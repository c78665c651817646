// Disjointness vs availability: do the k disjoint alternates survive the
// failures that make you need them?
//
// Freezes the fault-free UW3 path choices — the direct path, the best
// overlapping alternate (the paper's Figure 1 winner), and k mutually
// link-disjoint alternates (Suurballe/Bhandari, k in {1, 2, 3}) — then
// replays deterministic fault schedules at 0/5/15/30% intensity against
// them (sim/survivability) and reports mean availability and the
// fully-available pair fraction per path class, plus the
// disjointness-vs-availability CDF at 15% intensity.  The 0% row is the
// engine's identity check: every path class must report 100% availability.
// The Qazi & Moors expectation is the headline: at 15%+ intensity having
// any of k >= 2 disjoint alternates strictly beats the single best
// overlapping alternate, because the overlap shares fate with the failure.
#include "bench_util.h"

#include <unordered_map>

#include "core/alternate.h"
#include "core/disjoint.h"
#include "core/path_table.h"
#include "sim/fault.h"
#include "sim/survivability.h"

namespace pathsel {
namespace {

constexpr int kMaxK = 3;

std::uint64_t pair_key(topo::HostId a, topo::HostId b) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a.value()))
          << 32) |
         static_cast<std::uint32_t>(b.value());
}

std::vector<topo::HostId> full_hops(topo::HostId a,
                                    const std::vector<topo::HostId>& via,
                                    topo::HostId b) {
  std::vector<topo::HostId> hops;
  hops.reserve(via.size() + 2);
  hops.push_back(a);
  hops.insert(hops.end(), via.begin(), via.end());
  hops.push_back(b);
  return hops;
}

void run() {
  bench::print_experiment_header(
      "Disjoint survivability",
      "UW3 path classes replayed under 0/5/15/30% fault intensity",
      "at 0% every class is 100% available; at >= 15% having any of k >= 2 "
      "disjoint alternates strictly beats the best overlapping alternate "
      "(disjointness, not raw quality, buys availability)");

  meas::Catalog catalog = bench::make_catalog();
  const meas::Dataset& ds = catalog.by_name("UW3");
  const sim::Network& net = catalog.world98();
  const Duration trace = catalog.spec("UW3").config.duration;

  core::BuildOptions build;
  build.min_samples = bench::scaled_min_samples();
  const core::PathTable table = core::PathTable::build(ds, build);
  bench::notef("path graph: %zu measured paths over %zu hosts\n",
               table.edges().size(), table.hosts().size());

  // Fault-free path choices, frozen before any fault is injected.
  core::AnalyzerOptions alt_options;
  const std::vector<core::PairResult> alternates =
      core::analyze_alternate_paths(table, alt_options);
  std::unordered_map<std::uint64_t, const core::PairResult*> alternate_by_pair;
  for (const core::PairResult& r : alternates) {
    alternate_by_pair.emplace(pair_key(r.a, r.b), &r);
  }
  // Separate sweeps per k: Suurballe's k=2 solution may reroute the k=1
  // path, so the k sets are not prefixes of each other.
  std::vector<std::vector<core::PairDisjointResult>> disjoint_by_k;
  for (int k = 1; k <= kMaxK; ++k) {
    core::DisjointOptions opt;
    opt.k = k;
    const auto swept = core::compute_disjoint_alternates(table, opt);
    disjoint_by_k.push_back(swept.is_ok()
                                ? swept.value()
                                : std::vector<core::PairDisjointResult>{});
  }

  // One PairSpec per measured pair that has both an overlapping alternate
  // and at least one disjoint alternate: paths = direct, overlap, then each
  // k's disjoint set; groups = "any of k" per k.
  std::vector<sim::PairSpec> specs;
  std::size_t skipped = 0;
  for (std::size_t i = 0; i < table.edges().size(); ++i) {
    const core::PathEdge& edge = table.edges()[i];
    const auto alt = alternate_by_pair.find(pair_key(edge.a, edge.b));
    if (alt == alternate_by_pair.end() || alt->second->via.empty() ||
        disjoint_by_k[0][i].paths.empty()) {
      ++skipped;
      continue;
    }
    sim::PairSpec spec;
    spec.paths.push_back({"direct", full_hops(edge.a, {}, edge.b)});
    spec.paths.push_back(
        {"overlap", full_hops(edge.a, alt->second->via, edge.b)});
    for (int k = 1; k <= kMaxK; ++k) {
      sim::PathGroup group;
      group.label = "any" + std::to_string(k);
      for (const core::DisjointPath& p :
           disjoint_by_k[static_cast<std::size_t>(k - 1)][i].paths) {
        group.members.push_back(spec.paths.size());
        spec.paths.push_back({"disjoint", full_hops(edge.a, p.via, edge.b)});
      }
      spec.groups.push_back(std::move(group));
    }
    specs.push_back(std::move(spec));
  }
  bench::notef("pairs replayed: %zu (%zu without both path classes)\n",
               specs.size(), skipped);

  Table mean_table{"mean availability (UW3)"};
  mean_table.set_header(
      {"intensity", "direct", "overlap", "any-1", "any-2", "any-3"});
  Table full_table{"fully available pairs (UW3)"};
  full_table.set_header(
      {"intensity", "direct", "overlap", "any-1", "any-2", "any-3"});

  std::vector<Series> cdf_at_15;
  for (const double intensity : {0.0, 0.05, 0.15, 0.30}) {
    const sim::FaultPlan plan{
        sim::FaultConfig::at_intensity(intensity), net.topology(), trace};
    const auto replayed = sim::replay_survivability(net, plan, specs, {});
    if (!replayed.is_ok()) {
      mean_table.add_row({Table::pct(intensity), "-", "-", "-", "-",
                          replayed.status().to_string()});
      continue;
    }
    const std::vector<sim::PairSurvivability>& results = replayed.value();
    // Column order matches the tables: direct, overlap, any-1..any-3.
    std::vector<std::vector<double>> columns(2 + kMaxK);
    for (const sim::PairSurvivability& r : results) {
      columns[0].push_back(r.paths[0].availability);
      columns[1].push_back(r.paths[1].availability);
      for (int k = 0; k < kMaxK; ++k) {
        columns[2 + static_cast<std::size_t>(k)].push_back(
            r.groups[static_cast<std::size_t>(k)].availability);
      }
    }
    std::vector<std::string> mean_row{Table::pct(intensity)};
    std::vector<std::string> full_row{Table::pct(intensity)};
    std::vector<double> means;
    for (const std::vector<double>& col : columns) {
      double sum = 0.0;
      std::size_t full = 0;
      for (const double a : col) {
        sum += a;
        if (a >= 1.0) ++full;
      }
      const double mean = col.empty() ? 0.0 : sum / static_cast<double>(col.size());
      means.push_back(mean);
      mean_row.push_back(Table::fmt(100.0 * mean, 2) + "%");
      full_row.push_back(Table::pct(
          col.empty() ? 0.0 : static_cast<double>(full) /
                                  static_cast<double>(col.size())));
    }
    mean_table.add_row(mean_row);
    full_table.add_row(full_row);

    if (intensity >= 0.15) {
      const bool dominates = means[3] > means[1] && means[4] > means[1];
      bench::notef(
          "intensity %s: disjoint k>=2 %s the overlapping alternate "
          "(overlap %.2f%%, any-2 %.2f%%, any-3 %.2f%%)\n",
          Table::pct(intensity).c_str(),
          dominates ? "strictly dominates" : "DOES NOT dominate",
          100.0 * means[1], 100.0 * means[3], 100.0 * means[4]);
    }
    if (intensity == 0.15) {
      cdf_at_15.push_back(bench::cdf_series(
          stats::EmpiricalCdf{std::move(columns[1])}, "overlap", 0.0, 1.0));
      for (int k = 0; k < kMaxK; ++k) {
        cdf_at_15.push_back(bench::cdf_series(
            stats::EmpiricalCdf{
                std::move(columns[2 + static_cast<std::size_t>(k)])},
            "any" + std::to_string(k + 1), 0.0, 1.0));
      }
    }
  }

  bench::emit(mean_table);
  bench::emit(full_table);
  bench::emit_series("disjointness vs availability CDF (intensity 15%)",
                     cdf_at_15);
}

}  // namespace
}  // namespace pathsel

int main(int argc, char** argv) {
  if (!pathsel::bench::init(argc, argv, "disjoint_survivability")) return 2;
  pathsel::run();
  return pathsel::bench::finish();
}
