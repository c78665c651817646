#include "sim/fault.h"

#include <gtest/gtest.h>

#include "topo/generator.h"
#include "util/metrics.h"

namespace pathsel::sim {
namespace {

topo::Topology small_topology(std::uint64_t seed = 1) {
  topo::GeneratorConfig g;
  g.seed = seed;
  g.backbone_count = 3;
  g.regional_count = 6;
  g.stub_count = 12;
  return topo::generate_topology(g);
}

FaultConfig full_config(std::uint64_t seed = 42) {
  FaultConfig cfg = FaultConfig::at_intensity(1.0, seed);
  return cfg;
}

TEST(FaultPlan, DefaultPlanIsDisabledAndEmpty) {
  const FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  EXPECT_TRUE(plan.routing_transitions().empty());
  EXPECT_TRUE(plan.link_down_intervals(topo::LinkId{0}).empty());
  EXPECT_TRUE(plan.host_down_intervals(topo::HostId{0}).empty());
  EXPECT_FALSE(plan.link_physically_down(topo::LinkId{0}, SimTime::start()));
  EXPECT_FALSE(plan.probe_stuck(topo::HostId{0}, topo::HostId{1},
                                SimTime::start()));
}

TEST(FaultPlan, ZeroIntensitySchedulesNothing) {
  const FaultConfig cfg = FaultConfig::at_intensity(0.0);
  EXPECT_FALSE(cfg.enabled());
  const topo::Topology topo = small_topology();
  const FaultPlan plan{cfg, topo, Duration::days(7)};
  EXPECT_FALSE(plan.enabled());
  EXPECT_TRUE(plan.routing_transitions().empty());
  for (const auto& link : topo.links()) {
    EXPECT_TRUE(plan.link_down_intervals(link.id).empty());
  }
}

TEST(FaultPlan, Deterministic) {
  const topo::Topology topo = small_topology();
  const FaultPlan a{full_config(), topo, Duration::days(7)};
  const FaultPlan b{full_config(), topo, Duration::days(7)};
  EXPECT_EQ(a.routing_transitions(), b.routing_transitions());
  for (const auto& link : topo.links()) {
    EXPECT_EQ(a.link_down_intervals(link.id), b.link_down_intervals(link.id));
  }
  for (const auto& host : topo.hosts()) {
    EXPECT_EQ(a.host_down_intervals(host.id), b.host_down_intervals(host.id));
    EXPECT_EQ(a.storm_intervals(host.id), b.storm_intervals(host.id));
  }
}

TEST(FaultPlan, DifferentSeedsDiffer) {
  const topo::Topology topo = small_topology();
  const FaultPlan a{full_config(42), topo, Duration::days(7)};
  const FaultPlan b{full_config(43), topo, Duration::days(7)};
  EXPECT_NE(a.routing_transitions(), b.routing_transitions());
}

TEST(FaultPlan, IntervalInvariants) {
  const topo::Topology topo = small_topology();
  const Duration trace = Duration::days(7);
  const FaultPlan plan{full_config(), topo, trace};
  const SimTime end = SimTime::start() + trace;
  std::size_t total = 0;
  auto check = [&](const std::vector<FaultInterval>& ivs) {
    for (std::size_t i = 0; i < ivs.size(); ++i) {
      EXPECT_LT(ivs[i].begin, ivs[i].end);
      EXPECT_FALSE(ivs[i].begin < SimTime::start());
      EXPECT_FALSE(end < ivs[i].end);
      if (i > 0) {
        EXPECT_LT(ivs[i - 1].end, ivs[i].begin);  // disjoint, sorted
      }
      ++total;
    }
  };
  for (const auto& link : topo.links()) check(plan.link_down_intervals(link.id));
  for (const auto& host : topo.hosts()) {
    check(plan.host_down_intervals(host.id));
    check(plan.storm_intervals(host.id));
  }
  EXPECT_GT(total, 0u);  // full intensity over 7 days must schedule something
}

TEST(FaultPlan, QueriesMatchIntervals) {
  const topo::Topology topo = small_topology();
  const FaultPlan plan{full_config(), topo, Duration::days(7)};
  for (const auto& link : topo.links()) {
    for (const auto& iv : plan.link_down_intervals(link.id)) {
      EXPECT_TRUE(plan.link_physically_down(link.id, iv.begin));
      EXPECT_FALSE(plan.link_physically_down(link.id, iv.end));  // half-open
    }
  }
  for (const auto& host : topo.hosts()) {
    for (const auto& iv : plan.host_down_intervals(host.id)) {
      EXPECT_TRUE(plan.host_crashed(host.id, iv.begin));
      EXPECT_FALSE(plan.host_crashed(host.id, iv.end));
    }
    for (const auto& iv : plan.storm_intervals(host.id)) {
      EXPECT_TRUE(plan.icmp_storm(host.id, iv.begin));
      EXPECT_FALSE(plan.icmp_storm(host.id, iv.end));
    }
  }
}

TEST(FaultPlan, RoutedViewLagsPhysicalByReconvergence) {
  const topo::Topology topo = small_topology();
  FaultConfig cfg = full_config();
  cfg.reconvergence = Duration::minutes(5);
  const FaultPlan plan{cfg, topo, Duration::days(7)};
  for (const auto& link : topo.links()) {
    for (int hour = 0; hour < 7 * 24; hour += 2) {
      const SimTime t = SimTime::start() + Duration::hours(hour);
      EXPECT_EQ(plan.link_routed_down(link.id, t),
                plan.link_physically_down(
                    link.id, SimTime::at(t.since_start() - cfg.reconvergence)));
    }
  }
}

TEST(FaultPlan, ExchangeOutageTakesDownWholeFabric) {
  const topo::Topology topo = small_topology();
  const auto fabrics = topo.exchange_fabrics();
  ASSERT_FALSE(fabrics.empty());
  FaultConfig cfg;
  cfg.exchange_outage_fraction = 1.0;  // only fabric outages
  const FaultPlan plan{cfg, topo, Duration::days(7)};
  for (const auto& fabric : fabrics) {
    ASSERT_FALSE(fabric.empty());
    const auto& first = plan.link_down_intervals(fabric.front());
    ASSERT_EQ(first.size(), 1u);
    for (const topo::LinkId link : fabric) {
      EXPECT_EQ(plan.link_down_intervals(link), first);  // shared window
    }
  }
}

TEST(FaultPlan, ProbeStuckIsAPureFunctionOfTheAttempt) {
  const topo::Topology topo = small_topology();
  FaultConfig cfg;
  cfg.probe_stuck_rate = 0.5;
  const FaultPlan plan{cfg, topo, Duration::days(7)};
  const FaultPlan again{cfg, topo, Duration::days(7)};
  int stuck = 0;
  for (int k = 0; k < 200; ++k) {
    const SimTime t = SimTime::start() + Duration::minutes(k);
    const bool s = plan.probe_stuck(topo::HostId{0}, topo::HostId{1}, t);
    EXPECT_EQ(s, plan.probe_stuck(topo::HostId{0}, topo::HostId{1}, t));
    EXPECT_EQ(s, again.probe_stuck(topo::HostId{0}, topo::HostId{1}, t));
    stuck += s ? 1 : 0;
  }
  EXPECT_GT(stuck, 50);
  EXPECT_LT(stuck, 150);
}

TEST(FaultPlan, TransitionsAreSortedAndUnique) {
  const topo::Topology topo = small_topology();
  const FaultPlan plan{full_config(), topo, Duration::days(7)};
  const auto& ts = plan.routing_transitions();
  ASSERT_FALSE(ts.empty());
  for (std::size_t i = 1; i < ts.size(); ++i) EXPECT_LT(ts[i - 1], ts[i]);
}

TEST(FaultInjector, RebuildsOnlyWhenCrossingTransitions) {
  const Network net{small_topology(), NetworkConfig{}};
  FaultConfig cfg;
  cfg.link_flap_fraction = 1.0;
  const FaultPlan plan{cfg, net.topology(), Duration::days(7)};
  ASSERT_FALSE(plan.routing_transitions().empty());
  FaultInjector inj{net, plan};
  EXPECT_EQ(inj.rebuild_count(), 0u);
  inj.advance_to(SimTime::start());
  EXPECT_EQ(inj.rebuild_count(), 0u);  // no transition at trace start
  inj.advance_to(SimTime::start() + Duration::days(7));
  const std::size_t after_all = inj.rebuild_count();
  EXPECT_GT(after_all, 0u);
  EXPECT_LE(after_all, plan.routing_transitions().size());
  inj.advance_to(SimTime::start() + Duration::days(7));
  EXPECT_EQ(inj.rebuild_count(), after_all);  // idempotent at the same time
}

TEST(FaultInjector, RebuildCounterCountsOnlyEpochChanges) {
  const Network net{small_topology(), NetworkConfig{}};
  FaultConfig cfg;
  cfg.link_flap_fraction = 1.0;
  const FaultPlan plan{cfg, net.topology(), Duration::days(7)};
  const auto rebuilds = [] {
    for (const auto& [key, value] :
         MetricsRegistry::global().snapshot().counters) {
      if (key == "sim.fault.routing_rebuilds") return value;
    }
    return std::uint64_t{0};
  };
  MetricsRegistry::global().enable();
  const std::uint64_t before = rebuilds();
  FaultInjector inj{net, plan};
  EXPECT_EQ(rebuilds(), before);  // the initial build is not an epoch change
  inj.advance_to(SimTime::start() + Duration::days(7));
  ASSERT_GT(inj.rebuild_count(), 0u);
  EXPECT_EQ(rebuilds() - before, inj.rebuild_count());
}

TEST(FaultInjectorDeathTest, TimeMustNotGoBackwards) {
  const Network net{small_topology(), NetworkConfig{}};
  FaultConfig cfg;
  cfg.link_flap_fraction = 1.0;
  const FaultPlan plan{cfg, net.topology(), Duration::days(7)};
  FaultInjector inj{net, plan};
  inj.advance_to(SimTime::start() + Duration::days(2));
  EXPECT_DEATH(inj.advance_to(SimTime::start() + Duration::days(1)),
               "time went backwards");
}

TEST(FaultInjector, AvoidsLinksRoutingKnowsAreDown) {
  const Network net{small_topology(), NetworkConfig{}};
  FaultConfig cfg;
  cfg.link_flap_fraction = 1.0;
  cfg.reconvergence = Duration{};  // instant convergence: routed == physical
  const FaultPlan plan{cfg, net.topology(), Duration::days(7)};
  FaultInjector inj{net, plan};
  const auto hosts = net.topology().hosts();
  ASSERT_GE(hosts.size(), 6u);
  for (int hour = 0; hour < 7 * 24; hour += 6) {
    const SimTime t = SimTime::start() + Duration::hours(hour);
    inj.advance_to(t);
    for (std::size_t i = 0; i + 1 < 6; i += 2) {
      const auto& path = inj.effective_path(hosts[i].id, hosts[i + 1].id);
      if (!path.valid()) continue;  // faults may disconnect the pair
      for (const auto& hop : path.hops) {
        EXPECT_FALSE(plan.link_physically_down(hop.via, t))
            << "resolved path crosses a link routing knows is dead";
      }
      // With zero reconvergence lag there is no blackhole window.
      EXPECT_FALSE(inj.blackholed(path, t));
    }
  }
}

TEST(FaultInjector, BlackholeRequiresAPhysicallyDeadHop) {
  const Network net{small_topology(), NetworkConfig{}};
  FaultConfig cfg;
  cfg.link_flap_fraction = 1.0;
  cfg.reconvergence = Duration::minutes(30);  // long stale-routing windows
  const FaultPlan plan{cfg, net.topology(), Duration::days(7)};
  FaultInjector inj{net, plan};
  const auto hosts = net.topology().hosts();
  for (int minute = 0; minute < 7 * 24 * 60; minute += 90) {
    const SimTime t = SimTime::start() + Duration::minutes(minute);
    inj.advance_to(t);
    const auto& path = inj.effective_path(hosts[0].id, hosts[3].id);
    if (!path.valid()) continue;
    bool dead_hop = false;
    for (const auto& hop : path.hops) {
      dead_hop = dead_hop || plan.link_physically_down(hop.via, t);
    }
    EXPECT_EQ(inj.blackholed(path, t), dead_hop);
  }
}

}  // namespace
}  // namespace pathsel::sim
