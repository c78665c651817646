// Microbenchmarks of the topology/routing/simulation substrate.
#include <benchmark/benchmark.h>

#include "bench_gbench_report.h"

#include "meas/collector.h"
#include "route/bgp.h"
#include "route/igp.h"
#include "route/path.h"
#include "sim/network.h"
#include "topo/generator.h"

namespace pathsel {
namespace {

topo::GeneratorConfig gen_config() {
  topo::GeneratorConfig cfg;
  cfg.seed = 42;
  cfg.backbone_count = 6;
  cfg.regional_count = 20;
  cfg.stub_count = 70;
  return cfg;
}

void BM_TopologyGenerate(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo::generate_topology(gen_config()));
  }
}
BENCHMARK(BM_TopologyGenerate);

void BM_IgpTablesBuild(benchmark::State& state) {
  const auto topo = topo::generate_topology(gen_config());
  for (auto _ : state) {
    benchmark::DoNotOptimize(route::IgpTables{topo});
  }
}
BENCHMARK(BM_IgpTablesBuild);

// The tables compute a destination's routes on first use, so each iteration
// asks for every destination to time the whole computation.
void BM_BgpTablesBuild(benchmark::State& state) {
  const auto topo = topo::generate_topology(gen_config());
  for (auto _ : state) {
    const route::BgpTables bgp{topo};
    for (const auto& dest : topo.ases()) {
      benchmark::DoNotOptimize(bgp.route(dest.id, dest.id));
    }
  }
}
BENCHMARK(BM_BgpTablesBuild);

void BM_PathResolve(benchmark::State& state) {
  const auto topo = topo::generate_topology(gen_config());
  const route::IgpTables igp{topo};
  const route::BgpTables bgp{topo};
  const route::PathResolver resolver{topo, igp, bgp};
  std::size_t i = 0;
  const auto& hosts = topo.hosts();
  for (auto _ : state) {
    const auto& src = hosts[i % hosts.size()];
    const auto& dst = hosts[(i * 7 + 3) % hosts.size()];
    if (src.id != dst.id) {
      benchmark::DoNotOptimize(resolver.resolve(src.attachment, dst.attachment));
    }
    ++i;
  }
}
BENCHMARK(BM_PathResolve);

void BM_Traceroute(benchmark::State& state) {
  const sim::Network net{topo::generate_topology(gen_config()),
                         sim::NetworkConfig{}};
  std::size_t i = 0;
  const std::size_t n = net.topology().host_count();
  for (auto _ : state) {
    const topo::HostId src{static_cast<std::int32_t>(i % n)};
    const topo::HostId dst{static_cast<std::int32_t>((i * 13 + 1) % n)};
    if (src != dst) {
      benchmark::DoNotOptimize(net.traceroute(
          src, dst, SimTime::start() + Duration::seconds(static_cast<double>(i))));
    }
    ++i;
  }
}
BENCHMARK(BM_Traceroute);

void BM_TcpTransfer(benchmark::State& state) {
  const sim::Network net{topo::generate_topology(gen_config()),
                         sim::NetworkConfig{}};
  std::size_t i = 0;
  const std::size_t n = net.topology().host_count();
  for (auto _ : state) {
    const topo::HostId src{static_cast<std::int32_t>(i % n)};
    const topo::HostId dst{static_cast<std::int32_t>((i * 13 + 1) % n)};
    if (src != dst) {
      benchmark::DoNotOptimize(net.tcp_transfer(
          src, dst, SimTime::start() + Duration::seconds(static_cast<double>(i))));
    }
    ++i;
  }
}
BENCHMARK(BM_TcpTransfer);

void BM_CollectCampaign(benchmark::State& state) {
  const sim::Network net{topo::generate_topology(gen_config()),
                         sim::NetworkConfig{}};
  std::vector<topo::HostId> hosts;
  for (int i = 0; i < 15; ++i) hosts.push_back(topo::HostId{i});
  meas::CollectorConfig cfg;
  cfg.duration = Duration::hours(12);
  cfg.mean_interval = Duration::seconds(60);
  for (auto _ : state) {
    benchmark::DoNotOptimize(meas::collect(net, hosts, cfg, "bench"));
  }
}
BENCHMARK(BM_CollectCampaign);

}  // namespace
}  // namespace pathsel

PATHSEL_GBENCH_MAIN("micro_sim")
