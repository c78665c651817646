#include "core/coverage.h"

#include <unordered_set>

namespace pathsel::core {

namespace {

std::uint64_t ordered_key(topo::HostId src, topo::HostId dst) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src.value()))
          << 32) |
         static_cast<std::uint32_t>(dst.value());
}

std::uint64_t undirected_key(topo::HostId x, topo::HostId y) {
  return x.value() < y.value() ? ordered_key(x, y) : ordered_key(y, x);
}

}  // namespace

double CoverageSummary::coverage() const noexcept {
  return potential_pairs == 0
             ? 0.0
             : static_cast<double>(covered_pairs) /
                   static_cast<double>(potential_pairs);
}

CoverageSummary summarize_coverage(const meas::Dataset& dataset,
                                   const PathTable& table) {
  CoverageSummary c;
  c.hosts = dataset.hosts.size();
  c.potential_pairs = dataset.potential_paths();
  c.usable_edges = table.edges().size();

  std::unordered_set<std::uint64_t> attempted;
  std::unordered_set<std::uint64_t> covered;
  std::unordered_set<std::uint64_t> measured;
  for (const auto& m : dataset.measurements) {
    c.attempts += m.attempts;
    attempted.insert(ordered_key(m.src, m.dst));
    if (m.completed) {
      ++c.completed;
      covered.insert(ordered_key(m.src, m.dst));
      measured.insert(undirected_key(m.src, m.dst));
    } else {
      ++c.failures_by_reason[static_cast<std::size_t>(m.failure)];
    }
  }
  c.attempted_pairs = attempted.size();
  c.covered_pairs = covered.size();
  c.measured_edges = measured.size();
  c.under_sampled_edges =
      c.measured_edges > c.usable_edges ? c.measured_edges - c.usable_edges : 0;
  return c;
}

Result<DegradedAnalysis> analyze_with_coverage(const meas::Dataset& dataset,
                                               const BuildOptions& build,
                                               const AnalyzerOptions& analyze) {
  if (dataset.hosts.size() < 2) {
    return Status::error(ErrorCode::kInsufficientData,
                         "dataset has fewer than two hosts");
  }
  if (dataset.kind == meas::MeasurementKind::kTcpTransfer) {
    return Status::error(ErrorCode::kInvalidArgument,
                         kPerProbeNeedsTraceroute);
  }
  if (analyze.metric == Metric::kPropagation && !build.keep_samples) {
    return Status::error(ErrorCode::kInvalidArgument,
                         "the propagation metric needs keep_samples");
  }

  DegradedAnalysis out;
  Result<PathTable> table = PathTable::build_checked(dataset, build);
  if (!table.is_ok()) return table.status();
  out.coverage = summarize_coverage(dataset, table.value());
  if (out.coverage.usable_edges == 0) {
    return Status::error(ErrorCode::kInsufficientData,
                         "no path met the min_samples filter");
  }
  Result<std::vector<PairResult>> swept =
      analyze_alternate_paths_checked(table.value(), analyze);
  if (!swept.is_ok()) return swept.status();
  out.columns = from_pairs(swept.value(), analyze.metric);
  out.coverage.analyzable_edges = out.columns.size();
  out.coverage.disconnected_edges =
      out.coverage.usable_edges - out.coverage.analyzable_edges;
  return out;
}

}  // namespace pathsel::core
