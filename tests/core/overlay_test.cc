#include "core/overlay.h"

#include <gtest/gtest.h>

#include <limits>

#include "topo/generator.h"

namespace pathsel::core {
namespace {

sim::Network make_network(std::uint64_t seed) {
  topo::GeneratorConfig g;
  g.seed = seed;
  g.backbone_count = 4;
  g.regional_count = 10;
  g.stub_count = 24;
  g.rate_limited_host_fraction = 0.0;
  sim::NetworkConfig cfg;
  cfg.seed = seed;
  cfg.measurement_failure_rate = 0.0;
  return sim::Network{topo::generate_topology(g), cfg};
}

std::vector<topo::HostId> first_hosts(int n) {
  std::vector<topo::HostId> out;
  for (int i = 0; i < n; ++i) out.push_back(topo::HostId{i});
  return out;
}

SimTime noon() { return SimTime::start() + Duration::hours(12); }

TEST(Overlay, EstimatesEmptyBeforeProbe) {
  const auto net = make_network(1);
  OverlayMesh mesh{net, first_hosts(6), OverlayConfig{}};
  EXPECT_FALSE(mesh.estimate(topo::HostId{0}, topo::HostId{1}).has_value());
}

TEST(Overlay, ProbePopulatesEstimates) {
  const auto net = make_network(2);
  OverlayMesh mesh{net, first_hosts(6), OverlayConfig{}};
  mesh.probe(noon());
  int valid = 0;
  for (int i = 0; i < 6; ++i) {
    for (int j = i + 1; j < 6; ++j) {
      if (mesh.estimate(topo::HostId{i}, topo::HostId{j}).has_value()) ++valid;
    }
  }
  EXPECT_EQ(valid, 15);
}

TEST(Overlay, EstimateTracksGroundTruthRoughly) {
  const auto net = make_network(3);
  OverlayMesh mesh{net, first_hosts(6), OverlayConfig{}};
  for (int k = 0; k < 5; ++k) {
    mesh.probe(noon() + Duration::minutes(k * 10));
  }
  const auto est = mesh.estimate(topo::HostId{0}, topo::HostId{3});
  ASSERT_TRUE(est.has_value());
  OverlayRoute direct;
  direct.src = topo::HostId{0};
  direct.dst = topo::HostId{3};
  const double truth = mesh.ground_truth(direct, noon() + Duration::minutes(40));
  EXPECT_NEAR(*est, truth, truth * 0.5 + 5.0);
}

TEST(Overlay, RouteFallsBackToDirectWithoutEstimates) {
  const auto net = make_network(4);
  OverlayMesh mesh{net, first_hosts(6), OverlayConfig{}};
  const auto r = mesh.route(topo::HostId{0}, topo::HostId{1});
  EXPECT_FALSE(r.detoured());
}

TEST(Overlay, DetourOnlyWhenPredictedGainBeatsHysteresis) {
  const auto net = make_network(5);
  OverlayConfig strict;
  strict.hysteresis = 0.95;  // essentially never detour
  OverlayMesh mesh{net, first_hosts(10), strict};
  for (int k = 0; k < 3; ++k) mesh.probe(noon() + Duration::minutes(k * 10));
  for (int i = 0; i < 10; ++i) {
    for (int j = 0; j < 10; ++j) {
      if (i == j) continue;
      EXPECT_FALSE(mesh.route(topo::HostId{i}, topo::HostId{j}).detoured());
    }
  }
}

TEST(Overlay, ZeroHysteresisDetoursWheneverPredictedBetter) {
  const auto net = make_network(6);
  OverlayConfig loose;
  loose.hysteresis = 0.0;
  OverlayMesh mesh{net, first_hosts(10), loose};
  for (int k = 0; k < 3; ++k) mesh.probe(noon() + Duration::minutes(k * 10));
  std::size_t detours = 0;
  for (int i = 0; i < 10; ++i) {
    for (int j = 0; j < 10; ++j) {
      if (i == j) continue;
      const auto r = mesh.route(topo::HostId{i}, topo::HostId{j});
      if (r.detoured()) {
        ++detours;
        EXPECT_LT(r.predicted, r.predicted_direct);
      }
    }
  }
  EXPECT_GT(detours, 0u);
}

// The overlay ablation's network, members and day (bench_ablation_overlay):
// every decision stays within the relay budget, and `predicted` is the
// composed estimate of exactly the legs it returns.  A search that walks one
// shared parent array back breaks both, here on 99 decisions at one relay.
TEST(Overlay, RelayBudgetRespected) {
  topo::GeneratorConfig g;
  g.seed = 4242;
  g.backbone_count = 5;
  g.regional_count = 14;
  g.stub_count = 40;
  g.rate_limited_host_fraction = 0.0;
  sim::NetworkConfig net_cfg;
  net_cfg.seed = 4242;
  const sim::Network net{topo::generate_topology(g), net_cfg};
  std::vector<topo::HostId> members;
  for (int i = 0; i < 12; ++i) members.push_back(topo::HostId{i * 3});

  for (const int max_relays : {1, 2}) {
    OverlayConfig cfg;
    cfg.max_relays = max_relays;
    OverlayMesh mesh{net, members, cfg};
    const SimTime begin = SimTime::start() + Duration::hours(6);
    std::size_t over_budget = 0;
    std::size_t mispredicted = 0;
    for (SimTime now = begin; now < begin + Duration::hours(24);
         now = now + cfg.probe_interval) {
      mesh.probe(now);
      for (const topo::HostId src : members) {
        for (const topo::HostId dst : members) {
          if (src == dst) continue;
          const OverlayRoute r = mesh.route(src, dst);
          // compose() over the legs: RTTs add, first leg first.
          double composed = 0.0;
          topo::HostId from = src;
          for (const topo::HostId hop : r.relays) {
            composed += mesh.estimate(from, hop).value();
            from = hop;
          }
          composed += mesh.estimate(from, dst).value_or(
              std::numeric_limits<double>::infinity());
          if (r.relays.size() > static_cast<std::size_t>(max_relays)) {
            ++over_budget;
          }
          if (r.predicted != composed) ++mispredicted;
        }
      }
    }
    EXPECT_EQ(over_budget, 0u) << "max_relays " << max_relays;
    EXPECT_EQ(mispredicted, 0u) << "max_relays " << max_relays;
  }
}

TEST(Overlay, MoreRelaysNeverWorsenPrediction) {
  const auto net = make_network(8);
  OverlayConfig one;
  one.max_relays = 1;
  one.hysteresis = 0.0;
  OverlayConfig two;
  two.max_relays = 2;
  two.hysteresis = 0.0;
  OverlayMesh mesh1{net, first_hosts(10), one};
  OverlayMesh mesh2{net, first_hosts(10), two};
  for (int k = 0; k < 3; ++k) {
    mesh1.probe(noon() + Duration::minutes(k * 10));
    mesh2.probe(noon() + Duration::minutes(k * 10));
  }
  for (int i = 0; i < 10; ++i) {
    for (int j = 0; j < 10; ++j) {
      if (i == j) continue;
      const auto r1 = mesh1.route(topo::HostId{i}, topo::HostId{j});
      const auto r2 = mesh2.route(topo::HostId{i}, topo::HostId{j});
      EXPECT_LE(r2.predicted, r1.predicted + 1e-9);
    }
  }
}

TEST(Overlay, GroundTruthComposesLegs) {
  const auto net = make_network(9);
  OverlayMesh mesh{net, first_hosts(6), OverlayConfig{}};
  OverlayRoute direct;
  direct.src = topo::HostId{0};
  direct.dst = topo::HostId{2};
  OverlayRoute relayed = direct;
  relayed.relays = {topo::HostId{4}};
  const double d = mesh.ground_truth(direct, noon());
  const double r = mesh.ground_truth(relayed, noon());
  OverlayRoute leg1{topo::HostId{0}, topo::HostId{4}, {}, 0, 0};
  OverlayRoute leg2{topo::HostId{4}, topo::HostId{2}, {}, 0, 0};
  EXPECT_NEAR(r,
              mesh.ground_truth(leg1, noon()) + mesh.ground_truth(leg2, noon()),
              1e-9);
  EXPECT_GT(d, 0.0);
}

TEST(Overlay, EvaluateImprovesOrMatchesDirect) {
  const auto net = make_network(10);
  OverlayConfig cfg;
  cfg.probe_interval = Duration::minutes(30);
  cfg.hysteresis = 0.05;
  OverlayMesh mesh{net, first_hosts(10), cfg};
  const auto report =
      mesh.evaluate(SimTime::start() + Duration::hours(8), Duration::hours(6));
  EXPECT_GT(report.decisions, 0u);
  // With hysteresis, overlay routing should not be worse than direct on
  // average (stale estimates can cost a little; allow 2% slack).
  EXPECT_LT(report.overlay_metric.mean(),
            report.direct_metric.mean() * 1.02);
  EXPECT_GE(report.detour_fraction(), 0.0);
  EXPECT_LE(report.detour_fraction(), 1.0);
}

TEST(Overlay, LossMetricRouting) {
  const auto net = make_network(11);
  OverlayConfig cfg;
  cfg.metric = Metric::kLoss;
  cfg.hysteresis = 0.0;
  OverlayMesh mesh{net, first_hosts(8), cfg};
  for (int k = 0; k < 3; ++k) mesh.probe(noon() + Duration::minutes(k * 10));
  const auto r = mesh.route(topo::HostId{0}, topo::HostId{5});
  EXPECT_GE(r.predicted, 0.0);
  EXPECT_LE(r.predicted, 1.0);
  OverlayRoute direct;
  direct.src = topo::HostId{0};
  direct.dst = topo::HostId{5};
  const double truth = mesh.ground_truth(direct, noon());
  EXPECT_GE(truth, 0.0);
  EXPECT_LE(truth, 1.0);
}

TEST(Overlay, InvalidConfigsAbort) {
  const auto net = make_network(12);
  OverlayConfig bad;
  bad.metric = Metric::kPropagation;
  EXPECT_DEATH((OverlayMesh{net, first_hosts(6), bad}), "RTT or loss");
  OverlayConfig zero_relays;
  zero_relays.max_relays = 0;
  EXPECT_DEATH((OverlayMesh{net, first_hosts(6), zero_relays}), "budget");
  EXPECT_DEATH((OverlayMesh{net, first_hosts(2), OverlayConfig{}}),
               "three members");
}

TEST(Overlay, NonMemberRouteAborts) {
  const auto net = make_network(13);
  OverlayMesh mesh{net, first_hosts(6), OverlayConfig{}};
  EXPECT_DEATH((void)mesh.route(topo::HostId{0}, topo::HostId{20}),
               "not an overlay member");
}

}  // namespace
}  // namespace pathsel::core
