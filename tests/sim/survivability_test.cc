// Fault-survivability replay: segment-exact availability accounting,
// cross-checked against dense time sampling, plus the zero-intensity
// identity, spec validation, batching invariance, the one-rebuild-per-
// transition walk and cancellation.
#include "sim/survivability.h"

#include <algorithm>
#include <cmath>
#include <vector>

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

Network make_network(std::uint64_t seed = 1) {
  return Network{small_topology(seed), NetworkConfig{}};
}

// Direct, relayed, and "either of the two" specs over pairs the fault-free
// routing can actually resolve (including the relay legs).
std::vector<PairSpec> make_specs(const Network& net, std::size_t max_pairs) {
  const auto& hosts = net.topology().hosts();
  std::vector<PairSpec> specs;
  for (std::size_t i = 0; i < hosts.size() && specs.size() < max_pairs; ++i) {
    for (std::size_t j = i + 1; j < hosts.size() && specs.size() < max_pairs;
         ++j) {
      const topo::HostId a = hosts[i].id;
      const topo::HostId b = hosts[j].id;
      if (!net.default_path(a, b).valid()) continue;
      topo::HostId relay{};
      for (const topo::Host& host : hosts) {
        if (host.id == a || host.id == b) continue;
        if (net.default_path(a, host.id).valid() &&
            net.default_path(host.id, b).valid()) {
          relay = host.id;
          break;
        }
      }
      if (!relay.valid()) continue;
      PairSpec spec;
      spec.paths.push_back({"direct", {a, b}});
      spec.paths.push_back({"relay", {a, relay, b}});
      spec.groups.push_back({"either", {0, 1}});
      specs.push_back(std::move(spec));
    }
  }
  return specs;
}

// Independent reference: sample the trace on a fine grid with a fresh
// injector and score each path/group by the fraction of up samples.  Exact
// replay must agree within one grid step per state boundary.
struct SampledPair {
  std::vector<double> paths;
  std::vector<double> groups;
};

std::vector<SampledPair> sample_availability(const Network& net,
                                             const FaultPlan& plan,
                                             const std::vector<PairSpec>& pairs,
                                             Duration step) {
  const std::int64_t samples = static_cast<std::int64_t>(
      plan.trace_duration().total_seconds() / step.total_seconds());
  std::vector<SampledPair> out(pairs.size());
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    out[p].paths.assign(pairs[p].paths.size(), 0.0);
    out[p].groups.assign(pairs[p].groups.size(), 0.0);
  }
  FaultInjector injector{net, plan};
  std::vector<char> path_up;
  for (std::int64_t s = 0; s < samples; ++s) {
    const SimTime t = SimTime::start() + step * static_cast<double>(s);
    injector.advance_to(t);
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      const PairSpec& spec = pairs[p];
      path_up.assign(spec.paths.size(), 1);
      for (std::size_t i = 0; i < spec.paths.size(); ++i) {
        const std::vector<topo::HostId>& hops = spec.paths[i].hops;
        for (std::size_t h = 0; h + 1 < hops.size(); ++h) {
          if (plan.host_crashed(hops[h], t) ||
              plan.host_crashed(hops[h + 1], t)) {
            path_up[i] = 0;
            break;
          }
          const route::RouterPath& routed =
              injector.effective_path(hops[h], hops[h + 1]);
          if (!routed.valid() || injector.blackholed(routed, t)) {
            path_up[i] = 0;
            break;
          }
        }
        if (path_up[i] != 0) out[p].paths[i] += 1.0;
      }
      for (std::size_t g = 0; g < spec.groups.size(); ++g) {
        const bool up = std::any_of(
            spec.groups[g].members.begin(), spec.groups[g].members.end(),
            [&path_up](std::size_t m) { return path_up[m] != 0; });
        if (up) out[p].groups[g] += 1.0;
      }
    }
  }
  for (SampledPair& sp : out) {
    for (double& v : sp.paths) v /= static_cast<double>(samples);
    for (double& v : sp.groups) v /= static_cast<double>(samples);
  }
  return out;
}

TEST(Survivability, ZeroIntensityIsFullyAvailable) {
  const Network net = make_network();
  const std::vector<PairSpec> specs = make_specs(net, 6);
  ASSERT_FALSE(specs.empty());
  const FaultPlan plan{FaultConfig::at_intensity(0.0), net.topology(),
                       Duration::days(1)};
  const auto replayed = replay_survivability(net, plan, specs);
  ASSERT_TRUE(replayed.is_ok()) << replayed.status().to_string();
  ASSERT_EQ(replayed.value().size(), specs.size());
  for (const PairSurvivability& pair : replayed.value()) {
    for (const PathAvailability& path : pair.paths) {
      EXPECT_DOUBLE_EQ(path.availability, 1.0) << path.label;
      EXPECT_EQ(path.outages, 0);
      EXPECT_DOUBLE_EQ(path.downtime.total_seconds(), 0.0);
    }
    for (const PathAvailability& group : pair.groups) {
      EXPECT_DOUBLE_EQ(group.availability, 1.0) << group.label;
      EXPECT_EQ(group.outages, 0);
    }
  }
}

TEST(Survivability, WindowlessPlanIsRejected) {
  const Network net = make_network();
  const std::vector<PairSpec> specs = make_specs(net, 1);
  ASSERT_FALSE(specs.empty());
  const FaultPlan windowless;  // no trace duration to replay over
  const auto replayed = replay_survivability(net, windowless, specs);
  ASSERT_FALSE(replayed.is_ok());
  EXPECT_EQ(replayed.status().code(), ErrorCode::kInvalidArgument);
}

TEST(Survivability, MalformedSpecsAreRejected) {
  const Network net = make_network();
  const FaultPlan plan{FaultConfig::at_intensity(0.0), net.topology(),
                       Duration::days(1)};
  const topo::HostId a = net.topology().hosts()[0].id;
  const topo::HostId b = net.topology().hosts()[1].id;

  PairSpec one_hop;
  one_hop.paths.push_back({"stub", {a}});
  const auto short_path = replay_survivability(net, plan, {one_hop});
  ASSERT_FALSE(short_path.is_ok());
  EXPECT_EQ(short_path.status().code(), ErrorCode::kInvalidArgument);

  // Every hop needs two distinct hosts.
  PairSpec self_hop;
  self_hop.paths.push_back({"loop", {a, b, b}});
  const auto repeated = replay_survivability(net, plan, {self_hop});
  ASSERT_FALSE(repeated.is_ok());
  EXPECT_EQ(repeated.status().code(), ErrorCode::kInvalidArgument);

  PairSpec bad_member;
  bad_member.paths.push_back({"direct", {a, b}});
  bad_member.groups.push_back({"oops", {0, 7}});
  const auto out_of_range = replay_survivability(net, plan, {bad_member});
  ASSERT_FALSE(out_of_range.is_ok());
  EXPECT_EQ(out_of_range.status().code(), ErrorCode::kInvalidArgument);
}

TEST(Survivability, FaultsProduceBoundedAvailability) {
  const Network net = make_network();
  const std::vector<PairSpec> specs = make_specs(net, 8);
  ASSERT_FALSE(specs.empty());
  const Duration trace = Duration::days(2);
  const FaultPlan plan{FaultConfig::at_intensity(1.0), net.topology(), trace};
  const auto replayed = replay_survivability(net, plan, specs);
  ASSERT_TRUE(replayed.is_ok()) << replayed.status().to_string();
  double min_availability = 1.0;
  for (const PairSurvivability& pair : replayed.value()) {
    double best_member = 0.0;
    for (const PathAvailability& path : pair.paths) {
      EXPECT_GE(path.availability, 0.0);
      EXPECT_LE(path.availability, 1.0);
      EXPECT_LE(path.downtime.total_seconds(), trace.total_seconds());
      EXPECT_NEAR(path.availability,
                  1.0 - path.downtime.total_seconds() / trace.total_seconds(),
                  1e-9);
      if (path.availability < 1.0) {
        EXPECT_GT(path.outages, 0);
      }
      best_member = std::max(best_member, path.availability);
      min_availability = std::min(min_availability, path.availability);
    }
    // A group is up whenever any member is: never worse than its best member.
    for (const PathAvailability& group : pair.groups) {
      EXPECT_GE(group.availability, best_member - 1e-12);
    }
  }
  // Full intensity crashes every host at some point; something must go down.
  EXPECT_LT(min_availability, 1.0);
}

TEST(Survivability, MatchesDenseTimeSampling) {
  const Network net = make_network();
  const std::vector<PairSpec> specs = make_specs(net, 5);
  ASSERT_FALSE(specs.empty());
  const Duration trace = Duration::days(1);
  const FaultPlan plan{FaultConfig::at_intensity(0.5), net.topology(), trace};
  const auto replayed = replay_survivability(net, plan, specs);
  ASSERT_TRUE(replayed.is_ok()) << replayed.status().to_string();

  // 30 s grid: sampling error is at most one grid step per state boundary,
  // and fault windows have multi-minute floors, so 2% headroom is ample.
  const std::vector<SampledPair> sampled =
      sample_availability(net, plan, specs, Duration::seconds(30));
  for (std::size_t p = 0; p < specs.size(); ++p) {
    const PairSurvivability& exact = replayed.value()[p];
    for (std::size_t i = 0; i < exact.paths.size(); ++i) {
      EXPECT_NEAR(exact.paths[i].availability, sampled[p].paths[i], 0.02)
          << "pair " << p << " path " << exact.paths[i].label;
    }
    for (std::size_t g = 0; g < exact.groups.size(); ++g) {
      EXPECT_NEAR(exact.groups[g].availability, sampled[p].groups[g], 0.02)
          << "pair " << p << " group " << exact.groups[g].label;
    }
  }
}

// Bitwise equality: determinism is the contract, not tolerance.
void expect_same_bits(const PathAvailability& x, const PathAvailability& y) {
  EXPECT_EQ(x.label, y.label);
  EXPECT_EQ(x.availability, y.availability) << x.label;
  EXPECT_EQ(x.downtime, y.downtime) << x.label;
  EXPECT_EQ(x.outages, y.outages) << x.label;
}

// The replay shares one hop table across every pair it is given; a pair's
// result must not depend on which other pairs shared it.
TEST(SurvivabilityBatchingInvariance, EachPairAloneMatchesAllPairs) {
  const Network net = make_network();
  const std::vector<PairSpec> specs = make_specs(net, 12);
  ASSERT_GT(specs.size(), 8u);
  const FaultPlan plan{FaultConfig::at_intensity(0.5), net.topology(),
                       Duration::days(1)};
  const auto all = replay_survivability(net, plan, specs);
  ASSERT_TRUE(all.is_ok()) << all.status().to_string();
  ASSERT_EQ(all.value().size(), specs.size());
  bool any_outage = false;
  for (std::size_t p = 0; p < specs.size(); ++p) {
    const auto alone = replay_survivability(net, plan, {specs[p]});
    ASSERT_TRUE(alone.is_ok()) << alone.status().to_string();
    ASSERT_EQ(alone.value().size(), 1u);
    const PairSurvivability& x = all.value()[p];
    const PairSurvivability& y = alone.value()[0];
    ASSERT_EQ(x.paths.size(), y.paths.size());
    for (std::size_t i = 0; i < x.paths.size(); ++i) {
      expect_same_bits(x.paths[i], y.paths[i]);
      any_outage = any_outage || x.paths[i].outages > 0;
    }
    ASSERT_EQ(x.groups.size(), y.groups.size());
    for (std::size_t g = 0; g < x.groups.size(); ++g) {
      expect_same_bits(x.groups[g], y.groups[g]);
    }
  }
  EXPECT_TRUE(any_outage) << "the plan should take some path down";
}

// One walk of the timeline drives one injector, so a replay rebuilds the
// routing tables exactly once per routing transition inside the trace.
TEST(SurvivabilityRebuilds, OnePerRoutingTransitionInTrace) {
  const Network net = make_network();
  const std::vector<PairSpec> specs = make_specs(net, 12);
  ASSERT_GT(specs.size(), 8u);
  const Duration trace = Duration::days(1);
  const FaultPlan plan{FaultConfig::at_intensity(0.5), net.topology(), trace};
  const SimTime start = SimTime::start();
  const std::vector<SimTime>& transitions = plan.routing_transitions();
  const auto in_trace = static_cast<std::uint64_t>(
      std::count_if(transitions.begin(), transitions.end(), [&](SimTime t) {
        return start < t && t < start + trace;
      }));
  ASSERT_GT(in_trace, 0u);

  const auto rebuilds = [] {
    for (const auto& [key, value] :
         MetricsRegistry::global().snapshot().counters) {
      if (key == "sim.fault.routing_rebuilds") return value;
    }
    return std::uint64_t{0};
  };
  MetricsRegistry& metrics = MetricsRegistry::global();
  const bool was_enabled = metrics.enabled();
  metrics.enable();
  const std::uint64_t before = rebuilds();
  const auto replayed = replay_survivability(net, plan, specs);
  const std::uint64_t after = rebuilds();
  metrics.enable(was_enabled);
  ASSERT_TRUE(replayed.is_ok()) << replayed.status().to_string();
  EXPECT_EQ(after - before, in_trace);
}

TEST(SurvivabilityCancel, TrippedTokenSurfacesStatus) {
  const Network net = make_network();
  const std::vector<PairSpec> specs = make_specs(net, 6);
  ASSERT_FALSE(specs.empty());
  const FaultPlan plan{FaultConfig::at_intensity(0.5), net.topology(),
                       Duration::days(1)};
  CancelToken token;
  token.cancel();
  const auto replayed = replay_survivability(net, plan, specs, &token);
  ASSERT_FALSE(replayed.is_ok());
  EXPECT_EQ(replayed.status().code(), ErrorCode::kCancelled);
}

}  // namespace
}  // namespace pathsel::sim
