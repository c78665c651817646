#include "core/contribution.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "util/expect.h"

namespace pathsel::core {

namespace {

double mean_improvement(const ResultColumns& results) {
  if (results.empty()) return 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    total += results.improvement(i);
  }
  return total / static_cast<double>(results.size());
}

}  // namespace

TopHostsResult remove_top_hosts(const PathTable& table, Metric metric,
                                int count, int threads) {
  PATHSEL_EXPECT(count >= 0, "removal count must be non-negative");
  AnalyzerOptions options;
  options.metric = metric;
  options.threads = threads;

  TopHostsResult out;
  out.full_results =
      from_pairs(analyze_alternate_paths(table, options), metric);

  PathTable current = table.without_hosts({});
  for (int round = 0; round < count; ++round) {
    topo::HostId best_host{};
    double best_mean = std::numeric_limits<double>::infinity();
    for (const topo::HostId candidate : current.hosts()) {
      const topo::HostId removal[] = {candidate};
      const PathTable reduced = current.without_hosts(removal);
      const double mean = mean_improvement(
          from_pairs(analyze_alternate_paths(reduced, options), metric));
      if (mean < best_mean) {
        best_mean = mean;
        best_host = candidate;
      }
    }
    PATHSEL_EXPECT(best_host.valid(), "no host available to remove");
    const topo::HostId removal[] = {best_host};
    current = current.without_hosts(removal);
    out.removed.push_back(best_host);
  }
  out.reduced_results =
      from_pairs(analyze_alternate_paths(current, options), metric);
  return out;
}

std::vector<HostContribution> improvement_contributions(const PathTable& table,
                                                        Metric metric) {
  std::unordered_map<topo::HostId, double> raw;
  for (const topo::HostId h : table.hosts()) raw.emplace(h, 0.0);

  for (const PathEdge& direct : table.edges()) {
    const double default_value = edge_metric_value(direct, metric);
    for (const topo::HostId c : table.hosts()) {
      if (c == direct.a || c == direct.b) continue;
      const PathEdge* first = table.find(direct.a, c);
      const PathEdge* second = table.find(c, direct.b);
      if (first == nullptr || second == nullptr) continue;
      const PathEdge* legs[] = {first, second};
      const double alt = compose_metric(legs, metric);
      if (alt < default_value) {
        raw[c] += default_value - alt;
      }
    }
  }

  double total = 0.0;
  for (const auto& [host, value] : raw) total += value;
  const double mean =
      raw.empty() ? 0.0 : total / static_cast<double>(raw.size());

  std::vector<HostContribution> out;
  out.reserve(raw.size());
  for (const auto& [host, value] : raw) {
    out.push_back(HostContribution{
        host, mean > 0.0 ? 100.0 * value / mean : 0.0});
  }
  std::sort(out.begin(), out.end(),
            [](const HostContribution& x, const HostContribution& y) {
              return x.normalized < y.normalized;
            });
  return out;
}

}  // namespace pathsel::core
