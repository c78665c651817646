// Exactness of FaultInjector's path reuse, against the full rebuild.
//
// The injector returns the Network's default path for every pair the
// epoch's down links cannot reroute, and resolves only the rest on tables
// it builds on first need.  The oracle rebuilds every epoch from scratch:
// a topology copy with the routed-down state applied, fresh IGP and BGP
// tables, and a fresh resolver.  Every ordered host pair must get the same
// path from both.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "meas/catalog.h"
#include "route/bgp.h"
#include "route/igp.h"
#include "route/path.h"
#include "sim/fault.h"
#include "topo/generator.h"
#include "util/metrics.h"

namespace pathsel::sim {
namespace {

std::uint64_t counter(std::string_view name) {
  for (const auto& [key, value] : MetricsRegistry::global().snapshot().counters) {
    if (key == name) return value;
  }
  return 0;
}

topo::Topology routed_copy(const Network& net, const FaultPlan& plan,
                           SimTime t) {
  topo::Topology copy = net.topology();
  plan.apply_routed_state(copy, t);
  return copy;
}

// One epoch rebuilt from scratch.
struct Oracle {
  Oracle(const Network& net, const FaultPlan& plan, SimTime t)
      : topo{routed_copy(net, plan, t)},
        igp{topo},
        bgp{topo},
        resolver{topo, igp, bgp, net.config().egress} {}

  [[nodiscard]] route::RouterPath path(topo::HostId src,
                                       topo::HostId dst) const {
    return resolver.resolve(topo.host(src).attachment,
                            topo.host(dst).attachment);
  }

  topo::Topology topo;
  route::IgpTables igp;
  route::BgpTables bgp;
  route::PathResolver resolver;
};

bool same_path(const route::RouterPath& a, const route::RouterPath& b) {
  if (a.valid() != b.valid() || a.source != b.source ||
      a.as_path != b.as_path || a.hops.size() != b.hops.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.hops.size(); ++i) {
    if (a.hops[i].router != b.hops[i].router || a.hops[i].via != b.hops[i].via) {
      return false;
    }
  }
  return true;
}

bool crosses_routed_down(const route::RouterPath& path,
                         const topo::Topology& routed) {
  for (const auto& hop : path.hops) {
    if (routed.link(hop.via).down) return true;
  }
  return false;
}

struct Tally {
  std::size_t pair_epochs = 0;
  std::size_t mismatches = 0;
  // Pairs whose default path avoids every routed-down link although the
  // epoch routes them elsewhere: a rule that looked at the path alone
  // would have reused a wrong path for these.
  std::size_t rerouted_untouched = 0;
};

// Walks every routing epoch of the plan and compares every ordered pair of
// `hosts` with the oracle.
Tally check_every_epoch(const Network& net, const FaultPlan& plan,
                        const std::vector<topo::HostId>& hosts) {
  Tally tally;
  FaultInjector injector{net, plan};
  std::vector<SimTime> epochs{SimTime::start()};
  for (const SimTime t : plan.routing_transitions()) {
    if (SimTime::start() < t) epochs.push_back(t);
  }
  for (const SimTime t : epochs) {
    injector.advance_to(t);
    const Oracle oracle{net, plan, t};
    for (const topo::HostId src : hosts) {
      for (const topo::HostId dst : hosts) {
        if (src == dst) continue;
        const route::RouterPath expected = oracle.path(src, dst);
        ++tally.pair_epochs;
        if (!same_path(injector.effective_path(src, dst), expected)) {
          ++tally.mismatches;
          ADD_FAILURE() << "epoch at " << t.since_start().total_seconds()
                        << " s: host " << src.value() << " -> " << dst.value()
                        << " differs from the rebuilt tables";
        }
        const route::RouterPath& fallback = net.default_path(src, dst);
        if (!crosses_routed_down(fallback, oracle.topo) &&
            !same_path(fallback, expected)) {
          ++tally.rerouted_untouched;
        }
      }
    }
  }
  return tally;
}

// Every catalog traceroute campaign's world, hosts and fault plan, at three
// intensities: the injector's paths equal the full rebuild's at every
// transition, and both of its branches run.
TEST(FaultReuse, CatalogCampaignsMatchTheFullRebuild) {
  MetricsRegistry::global().enable();
  const std::uint64_t reused_before = counter("sim.fault.paths_reused");
  const std::uint64_t resolved_before = counter("sim.fault.paths_resolved");
  std::size_t campaigns = 0;
  for (const double intensity : {0.05, 0.15, 0.3}) {
    meas::Catalog catalog{meas::CatalogConfig{
        .scale = 0.05, .fault_intensity = intensity}};
    for (const std::string& name : meas::Catalog::dataset_names()) {
      const meas::DatasetSpec spec = catalog.spec(name);
      if (!spec.parent.empty() ||
          spec.config.kind != meas::MeasurementKind::kTraceroute) {
        continue;
      }
      SCOPED_TRACE(name + " at intensity " + std::to_string(intensity));
      const meas::MaterializedSpec m = catalog.materialize(spec);
      ASSERT_NE(m.plan, nullptr);
      ASSERT_FALSE(m.plan->routing_transitions().empty());
      const Tally tally = check_every_epoch(*m.net, *m.plan, m.hosts);
      EXPECT_GT(tally.pair_epochs, 0u);
      EXPECT_EQ(tally.mismatches, 0u);
      ++campaigns;
    }
  }
  EXPECT_EQ(campaigns, 15u);  // D2, UW1, UW3, UW4-A, UW4-B at each intensity
  EXPECT_GT(counter("sim.fault.paths_reused"), reused_before);
  EXPECT_GT(counter("sim.fault.paths_resolved"), resolved_before);
}

// A route can change at an AS whose path avoids every down link.  X buys
// transit from P and Q and reaches D through Q (AS path length 2, against
// 3 through P, whose own route to D is the customer route P-C-D).  When
// C-D fails, P falls back to its peer route straight to D (length 1, worse
// class but shorter), so X's route through P shortens to 2 and wins the tie
// on the lower AS id, although X-Q-D never touched C-D.  The injector must
// see that the destination's routes changed and resolve X's path anew.
TEST(FaultReuse, ResolvesAPathWhoseRouteChangedElsewhere) {
  topo::Topology t;
  const auto add = [&t](topo::AsTier tier, const char* name) {
    const topo::AsId as = t.add_as(tier, topo::IgpPolicy::kHopCount, name);
    return std::pair{as, t.add_router(as, 0, name)};
  };
  const auto [d, rd] = add(topo::AsTier::kStub, "D");
  const auto [x, rx] = add(topo::AsTier::kStub, "X");
  const auto [p, rp] = add(topo::AsTier::kRegional, "P");
  const auto [q, rq] = add(topo::AsTier::kRegional, "Q");
  const auto [c, rc] = add(topo::AsTier::kRegional, "C");
  const auto transit = [&t](topo::AsId provider, topo::RouterId rprov,
                            topo::AsId customer, topo::RouterId rcust) {
    t.add_link(rprov, rcust, topo::LinkKind::kTransit, 45, 0.3);
    t.add_relation(provider, customer, topo::AsRelation::kProviderOf);
  };
  transit(p, rp, x, rx);
  transit(q, rq, x, rx);
  transit(q, rq, d, rd);
  transit(p, rp, c, rc);
  transit(c, rc, d, rd);
  t.add_link(rp, rd, topo::LinkKind::kPrivatePeering, 45, 0.3);
  t.add_relation(p, d, topo::AsRelation::kPeerOf);
  const topo::HostId hx = t.add_host(rx, "x", false);
  const topo::HostId hd = t.add_host(rd, "d", false);
  const Network net{std::move(t), NetworkConfig{}};
  ASSERT_EQ(net.default_path(hx, hd).as_path,
            (std::vector<topo::AsId>{x, q, d}));

  // Every link flaps; some seed's epochs take C-D down while X-Q-D is up.
  MetricsRegistry::global().enable();
  const std::uint64_t resolved_before = counter("sim.fault.paths_resolved");
  std::size_t rerouted_untouched = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    FaultConfig cfg;
    cfg.seed = seed;
    cfg.link_flap_fraction = 1.0;
    const FaultPlan plan{cfg, net.topology(), Duration::days(7)};
    const Tally tally = check_every_epoch(net, plan, {hx, hd});
    EXPECT_EQ(tally.mismatches, 0u) << "seed " << seed;
    rerouted_untouched += tally.rerouted_untouched;
  }
  EXPECT_GT(rerouted_untouched, 0u);
  EXPECT_GT(counter("sim.fault.paths_resolved"), resolved_before);
}

// The small generated topology of fault_test.cc with every fault class at
// full intensity: many sessions down at once, over several plans.
TEST(FaultReuse, FullIntensityPlansMatchTheFullRebuild) {
  topo::GeneratorConfig g;
  g.seed = 1;
  g.backbone_count = 3;
  g.regional_count = 6;
  g.stub_count = 12;
  const Network net{topo::generate_topology(g), NetworkConfig{}};
  std::vector<topo::HostId> hosts;
  for (const auto& h : net.topology().hosts()) hosts.push_back(h.id);
  for (std::uint64_t seed = 40; seed < 43; ++seed) {
    const FaultPlan plan{FaultConfig::at_intensity(1.0, seed), net.topology(),
                         Duration::days(7)};
    const Tally tally = check_every_epoch(net, plan, hosts);
    EXPECT_GT(tally.pair_epochs, 0u);
    EXPECT_EQ(tally.mismatches, 0u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace pathsel::sim
