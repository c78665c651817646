#include "sim/network.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "topo/generator.h"

namespace pathsel::sim {
namespace {

Network make_network(std::uint64_t seed, NetworkConfig cfg = {}) {
  topo::GeneratorConfig g;
  g.seed = seed;
  g.backbone_count = 4;
  g.regional_count = 8;
  g.stub_count = 20;
  g.rate_limited_host_fraction = 0.3;
  cfg.seed = seed;
  return Network{topo::generate_topology(g), cfg};
}

SimTime noon() { return SimTime::start() + Duration::hours(12); }

TEST(Network, DefaultPathCachedAndStable) {
  const Network net = make_network(1);
  const auto& p1 = net.default_path(topo::HostId{0}, topo::HostId{1});
  const auto& p2 = net.default_path(topo::HostId{0}, topo::HostId{1});
  EXPECT_EQ(&p1, &p2);
  EXPECT_TRUE(p1.valid());
}

TEST(Network, TracerouteDeterministic) {
  const Network a = make_network(2);
  const Network b = make_network(2);
  const auto ra = a.traceroute(topo::HostId{0}, topo::HostId{5}, noon());
  const auto rb = b.traceroute(topo::HostId{0}, topo::HostId{5}, noon());
  EXPECT_EQ(ra.completed, rb.completed);
  for (std::size_t i = 0; i < ra.samples.size(); ++i) {
    EXPECT_EQ(ra.samples[i].lost, rb.samples[i].lost);
    EXPECT_DOUBLE_EQ(ra.samples[i].rtt_ms, rb.samples[i].rtt_ms);
  }
  EXPECT_TRUE(std::ranges::equal(ra.as_path, rb.as_path));
}

TEST(Network, TracerouteRttExceedsPropagation) {
  const Network net = make_network(3);
  const auto& fwd = net.default_path(topo::HostId{0}, topo::HostId{5});
  const auto& rev = net.default_path(topo::HostId{5}, topo::HostId{0});
  const double floor = fwd.propagation_delay_ms(net.topology()) +
                       rev.propagation_delay_ms(net.topology());
  for (int k = 0; k < 20; ++k) {
    const auto r = net.traceroute(topo::HostId{0}, topo::HostId{5},
                                  noon() + Duration::minutes(k));
    if (!r.completed) continue;
    for (const auto& s : r.samples) {
      if (!s.lost) {
        EXPECT_GT(s.rtt_ms, floor);
      }
    }
  }
}

TEST(Network, TracerouteReportsForwardAsPath) {
  const Network net = make_network(4);
  const auto r = net.traceroute(topo::HostId{1}, topo::HostId{6}, noon());
  const auto& fwd = net.default_path(topo::HostId{1}, topo::HostId{6});
  EXPECT_TRUE(std::ranges::equal(r.as_path, fwd.as_path));
  EXPECT_EQ(r.as_path.data(), fwd.as_path.data());  // a view, not a copy
}

TEST(Network, RateLimitedTargetsDropLaterSamples) {
  NetworkConfig cfg;
  cfg.rate_limit_drop = 1.0;  // always drop samples 2 and 3
  cfg.measurement_failure_rate = 0.0;
  const Network net = make_network(5, cfg);
  topo::HostId limited{};
  for (const auto& h : net.topology().hosts()) {
    if (h.icmp_rate_limited) {
      limited = h.id;
      break;
    }
  }
  ASSERT_TRUE(limited.valid());
  const topo::HostId src =
      limited == topo::HostId{0} ? topo::HostId{1} : topo::HostId{0};
  const auto r = net.traceroute(src, limited, noon());
  ASSERT_TRUE(r.completed);
  EXPECT_TRUE(r.samples[1].lost);
  EXPECT_TRUE(r.samples[2].lost);
}

TEST(Network, FailureRateHonored) {
  NetworkConfig cfg;
  cfg.measurement_failure_rate = 1.0;
  const Network net = make_network(6, cfg);
  const auto r = net.traceroute(topo::HostId{0}, topo::HostId{1}, noon());
  EXPECT_FALSE(r.completed);
}

TEST(Network, ExpectedDelayHigherAtPeak) {
  const Network net = make_network(7);
  const auto& path = net.default_path(topo::HostId{0}, topo::HostId{8});
  // Average across several days to wash out the weather field.
  double peak = 0.0;
  double trough = 0.0;
  for (int d = 0; d < 5; ++d) {
    peak += net.expected_one_way_ms(
        path, SimTime::start() + Duration::days(d) + Duration::hours(10));
    trough += net.expected_one_way_ms(
        path, SimTime::start() + Duration::days(d) + Duration::hours(3));
  }
  EXPECT_GT(peak, trough);
}

TEST(Network, LossProbabilityWithinUnitInterval) {
  const Network net = make_network(8);
  const auto& path = net.default_path(topo::HostId{2}, topo::HostId{9});
  const double p = net.one_way_loss_probability(path, noon());
  EXPECT_GE(p, 0.0);
  EXPECT_LT(p, 1.0);
}

TEST(Network, BottleneckBandwidthPositiveAndBounded) {
  const Network net = make_network(9);
  const auto& path = net.default_path(topo::HostId{3}, topo::HostId{7});
  const double bw = net.bottleneck_available_kBps(path, noon());
  EXPECT_GT(bw, 0.0);
  // No link is faster than OC12 (622 Mbps = 77750 kB/s).
  EXPECT_LE(bw, 78000.0);
}

TEST(Network, TcpTransferRespectsCaps) {
  NetworkConfig cfg;
  cfg.measurement_failure_rate = 0.0;
  cfg.tcp_window_kB = 16.0;
  const Network net = make_network(10, cfg);
  for (int i = 0; i < 10; ++i) {
    const auto r = net.tcp_transfer(topo::HostId{0}, topo::HostId{i + 2},
                                    noon() + Duration::minutes(i));
    ASSERT_TRUE(r.completed);
    EXPECT_GT(r.bandwidth_kBps, 0.0);
    // Window cap: 16 KB / rtt.
    EXPECT_LE(r.bandwidth_kBps, 16.0 * 1.024 / (r.rtt_ms / 1000.0) + 1e-6);
    EXPECT_GT(r.rtt_ms, 0.0);
    EXPECT_GE(r.loss_rate, 2e-5);
  }
}

TEST(Network, TcpTransferDeterministic) {
  const Network a = make_network(11);
  const Network b = make_network(11);
  const auto ra = a.tcp_transfer(topo::HostId{0}, topo::HostId{4}, noon());
  const auto rb = b.tcp_transfer(topo::HostId{0}, topo::HostId{4}, noon());
  EXPECT_DOUBLE_EQ(ra.bandwidth_kBps, rb.bandwidth_kBps);
  EXPECT_DOUBLE_EQ(ra.rtt_ms, rb.rtt_ms);
  EXPECT_DOUBLE_EQ(ra.loss_rate, rb.loss_rate);
}

TEST(Network, DifferentTimesGiveDifferentSamples) {
  const Network net = make_network(12);
  const auto r1 = net.traceroute(topo::HostId{0}, topo::HostId{5}, noon());
  const auto r2 = net.traceroute(topo::HostId{0}, topo::HostId{5},
                                 noon() + Duration::seconds(30));
  bool any_diff = false;
  for (std::size_t i = 0; i < r1.samples.size(); ++i) {
    if (r1.samples[i].rtt_ms != r2.samples[i].rtt_ms) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Network, SamePairSelfAborts) {
  const Network net = make_network(13);
  EXPECT_DEATH((void)net.default_path(topo::HostId{0}, topo::HostId{0}),
               "distinct");
}

TEST(Network, TracerouteElapsedScalesWithHops) {
  const Network net = make_network(14);
  const auto r = net.traceroute(topo::HostId{0}, topo::HostId{5}, noon());
  const auto& fwd = net.default_path(topo::HostId{0}, topo::HostId{5});
  EXPECT_GT(r.elapsed.total_seconds(), 1.9);
  EXPECT_NEAR(r.elapsed.total_seconds(),
              2.0 + 1.5 * static_cast<double>(fwd.hop_count()), 1e-9);
}

}  // namespace
}  // namespace pathsel::sim
