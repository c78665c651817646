// Quickstart: build a simulated Internet, measure it for a (simulated) day,
// and ask the paper's question for one host pair: is there an alternate
// path through another measurement host that beats the default route?
#include <cstdint>
#include <cstdio>

#include "core/alternate.h"
#include "core/path_table.h"
#include "core/result_columns.h"
#include "meas/collector.h"
#include "sim/network.h"
#include "topo/generator.h"

using namespace pathsel;

int main() {
  // 1. A late-90s-style Internet: tiered ASes, BGP policy routing, diurnal
  //    congestion.  Everything is driven by the seed.
  topo::GeneratorConfig gen;
  gen.seed = 7;
  gen.backbone_count = 5;
  gen.regional_count = 12;
  gen.stub_count = 30;
  sim::Network network{topo::generate_topology(gen), sim::NetworkConfig{}};
  std::printf("world: %zu ASes, %zu routers, %zu links, %zu hosts\n",
              network.topology().as_count(), network.topology().router_count(),
              network.topology().link_count(), network.topology().host_count());

  // 2. Run a one-day traceroute campaign between the first 12 hosts.
  std::vector<topo::HostId> hosts;
  for (int i = 0; i < 12; ++i) hosts.push_back(topo::HostId{i});
  meas::CollectorConfig campaign;
  campaign.duration = Duration::days(1);
  campaign.mean_interval = Duration::seconds(20);
  const meas::Dataset dataset =
      meas::collect(network, hosts, campaign, "quickstart");
  std::printf("campaign: %zu measurements, %zu/%zu paths covered\n",
              dataset.completed_count(), dataset.covered_paths(),
              dataset.potential_paths());

  // 3. Build the path-quality graph, compute the best alternate path for
  //    every measured pair, and lay the results out as columns (one per
  //    field, one row per pair).
  core::BuildOptions build;
  build.min_samples = 10;
  const core::PathTable table = core::PathTable::build(dataset, build);
  const core::ResultColumns results = core::from_pairs(
      core::analyze_alternate_paths(table, {}), core::Metric::kRtt);

  // 4. Report the most-improved pair.
  if (results.empty()) {
    std::printf("no pair had an alternate path\n");
    return 0;
  }
  std::size_t best = 0;
  for (std::size_t i = 1; i < results.size(); ++i) {
    if (results.improvement(i) > results.improvement(best)) best = i;
  }
  const auto& topo = network.topology();
  const auto host_name = [&](std::int32_t id) {
    return topo.host(topo::HostId{id}).name.c_str();
  };
  std::printf("\nmost-improved pair: %s -> %s\n", host_name(results.src[best]),
              host_name(results.dst[best]));
  std::printf("  default mean RTT:   %.1f ms\n", results.default_value[best]);
  std::printf("  best alternate RTT: %.1f ms via",
              results.alternate_value[best]);
  for (const std::int32_t hop : results.via_of(best)) {
    std::printf(" %s", host_name(hop));
  }
  std::printf("\n  improvement:        %.1f ms (%.0f%% better)\n",
              results.improvement(best),
              100.0 * (1.0 - results.alternate_value[best] /
                                 results.default_value[best]));

  std::size_t improved = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    improved += results.improvement(i) > 0.0 ? 1u : 0u;
  }
  std::printf("\n%zu of %zu measured pairs have a better alternate path\n",
              improved, results.size());
  return 0;
}
