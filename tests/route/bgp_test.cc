#include "route/bgp.h"

#include <gtest/gtest.h>

#include <string_view>
#include <thread>

#include "topo/generator.h"
#include "util/metrics.h"

namespace pathsel::route {
namespace {

// Classic Gao-Rexford test harness.  Topology (all links physical):
//
//   B0 ===peer=== B1          (backbones)
//   |              |
//   R0 (cust)     R1 (cust)   (regionals)
//   |              |
//   S0 (cust)     S1 (cust)   (stubs)
//
// plus S0 multihomed to R1 in one variant.
struct Harness {
  topo::Topology t;
  topo::AsId b0, b1, r0, r1, s0, s1;
  topo::RouterId rb0, rb1, rr0, rr1, rs0, rs1;

  Harness() {
    b0 = t.add_as(topo::AsTier::kBackbone, topo::IgpPolicy::kDelay, "B0");
    b1 = t.add_as(topo::AsTier::kBackbone, topo::IgpPolicy::kDelay, "B1");
    r0 = t.add_as(topo::AsTier::kRegional, topo::IgpPolicy::kDelay, "R0");
    r1 = t.add_as(topo::AsTier::kRegional, topo::IgpPolicy::kDelay, "R1");
    s0 = t.add_as(topo::AsTier::kStub, topo::IgpPolicy::kHopCount, "S0");
    s1 = t.add_as(topo::AsTier::kStub, topo::IgpPolicy::kHopCount, "S1");
    rb0 = t.add_router(b0, 3, "b0");
    rb1 = t.add_router(b1, 3, "b1");
    rr0 = t.add_router(r0, 0, "r0");
    rr1 = t.add_router(r1, 25, "r1");
    rs0 = t.add_router(s0, 0, "s0");
    rs1 = t.add_router(s1, 25, "s1");
    t.add_link(rb0, rb1, topo::LinkKind::kPublicExchange, 45, 0.5);
    t.add_link(rr0, rb0, topo::LinkKind::kTransit, 45, 0.3);
    t.add_link(rr1, rb1, topo::LinkKind::kTransit, 45, 0.3);
    t.add_link(rs0, rr0, topo::LinkKind::kTransit, 45, 0.3);
    t.add_link(rs1, rr1, topo::LinkKind::kTransit, 45, 0.3);
    t.add_relation(b0, b1, topo::AsRelation::kPeerOf);
    t.add_relation(b0, r0, topo::AsRelation::kProviderOf);
    t.add_relation(b1, r1, topo::AsRelation::kProviderOf);
    t.add_relation(r0, s0, topo::AsRelation::kProviderOf);
    t.add_relation(r1, s1, topo::AsRelation::kProviderOf);
  }
};

TEST(Bgp, SelfRouteIsCustomerLengthZero) {
  Harness h;
  BgpTables bgp{h.t};
  const auto& r = bgp.route(h.s0, h.s0);
  EXPECT_EQ(r.cls, RouteClass::kCustomer);
  EXPECT_EQ(r.path_length, 0);
}

TEST(Bgp, ProviderLearnsCustomerRoute) {
  Harness h;
  BgpTables bgp{h.t};
  EXPECT_EQ(bgp.route(h.r0, h.s0).cls, RouteClass::kCustomer);
  EXPECT_EQ(bgp.route(h.r0, h.s0).path_length, 1);
  EXPECT_EQ(bgp.route(h.b0, h.s0).cls, RouteClass::kCustomer);
  EXPECT_EQ(bgp.route(h.b0, h.s0).path_length, 2);
}

TEST(Bgp, PeerLearnsOnlyCustomerRoutes) {
  Harness h;
  BgpTables bgp{h.t};
  EXPECT_EQ(bgp.route(h.b1, h.s0).cls, RouteClass::kPeer);
  EXPECT_EQ(bgp.route(h.b1, h.s0).path_length, 3);
}

TEST(Bgp, CustomerLearnsProviderRoute) {
  Harness h;
  BgpTables bgp{h.t};
  const auto& r = bgp.route(h.s0, h.s1);
  EXPECT_EQ(r.cls, RouteClass::kProvider);
  EXPECT_EQ(r.next_hop, h.r0);
  EXPECT_EQ(r.path_length, 5);  // S0 R0 B0 B1 R1 S1
}

TEST(Bgp, AsPathReconstruction) {
  Harness h;
  BgpTables bgp{h.t};
  const auto path = bgp.as_path(h.s0, h.s1);
  const std::vector<topo::AsId> expected{h.s0, h.r0, h.b0, h.b1, h.r1, h.s1};
  EXPECT_EQ(path, expected);
}

TEST(Bgp, ValleyFreeNoTransitThroughPeerOrCustomerlessPath) {
  // R0 must not be reachable from R1 through S-anything; the only path is up
  // through the backbones.
  Harness h;
  BgpTables bgp{h.t};
  const auto path = bgp.as_path(h.r1, h.r0);
  const std::vector<topo::AsId> expected{h.r1, h.b1, h.b0, h.r0};
  EXPECT_EQ(path, expected);
}

TEST(Bgp, CustomerRoutePreferredOverPeerAndProvider) {
  // Give B1 a direct customer link to S0; B1 must now prefer the (longer or
  // equal) customer route over the peer route.
  Harness h;
  h.t.add_link(h.rs0, h.rb1, topo::LinkKind::kTransit, 45, 0.3);
  h.t.add_relation(h.b1, h.s0, topo::AsRelation::kProviderOf);
  BgpTables bgp{h.t};
  EXPECT_EQ(bgp.route(h.b1, h.s0).cls, RouteClass::kCustomer);
  EXPECT_EQ(bgp.route(h.b1, h.s0).path_length, 1);
}

TEST(Bgp, ShortestAsPathWinsWithinClass) {
  // Multihome S1 to R0 as well: S0's provider route to S1 becomes shorter
  // via R0 (S0 R0 S1... wait R0 is not provider of S1; add it).
  Harness h;
  h.t.add_link(h.rs1, h.rr0, topo::LinkKind::kTransit, 45, 0.3);
  h.t.add_relation(h.r0, h.s1, topo::AsRelation::kProviderOf);
  BgpTables bgp{h.t};
  const auto path = bgp.as_path(h.s0, h.s1);
  const std::vector<topo::AsId> expected{h.s0, h.r0, h.s1};
  EXPECT_EQ(path, expected);
}

TEST(Bgp, PreferredProviderOverridesPathLength) {
  // Multihome S0 to R1 (long way to S1 is now short: S0 R1 S1).  Then force
  // preference to R0: the longer path must win.
  Harness h;
  h.t.add_link(h.rs0, h.rr1, topo::LinkKind::kTransit, 45, 0.3);
  h.t.add_relation(h.r1, h.s0, topo::AsRelation::kProviderOf);
  {
    BgpTables bgp{h.t};
    EXPECT_EQ(bgp.as_path(h.s0, h.s1).size(), 3u);  // S0 R1 S1
  }
  h.t.set_preferred_provider(h.s0, h.r0);
  BgpTables bgp{h.t};
  const auto path = bgp.as_path(h.s0, h.s1);
  ASSERT_GE(path.size(), 2u);
  EXPECT_EQ(path[1], h.r0);          // exits via the preferred provider
  EXPECT_EQ(path.size(), 6u);        // and pays the longer AS path
}

TEST(Bgp, UnreachableDestinationHasNoRoute) {
  // An isolated AS with no links or relations.
  Harness h;
  const auto lonely =
      h.t.add_as(topo::AsTier::kStub, topo::IgpPolicy::kHopCount, "L");
  (void)h.t.add_router(lonely, 5, "l0");
  BgpTables bgp{h.t};
  EXPECT_EQ(bgp.route(h.s0, lonely).cls, RouteClass::kNone);
  EXPECT_TRUE(bgp.as_path(h.s0, lonely).empty());
}

TEST(Bgp, GeneratedTopologyStubsFullyConnected) {
  topo::GeneratorConfig cfg;
  cfg.seed = 77;
  cfg.backbone_count = 3;
  cfg.regional_count = 6;
  cfg.stub_count = 15;
  const topo::Topology t = generate_topology(cfg);
  BgpTables bgp{t};
  EXPECT_TRUE(bgp.stubs_fully_connected());
}

TEST(Bgp, ResearchNetworkCarriesOnlyCustomerTraffic) {
  topo::GeneratorConfig cfg;
  cfg.seed = 78;
  cfg.backbone_count = 3;
  cfg.regional_count = 6;
  cfg.stub_count = 15;
  cfg.research_member_fraction = 0.5;
  const topo::Topology t = generate_topology(cfg);
  BgpTables bgp{t};
  topo::AsId research{};
  for (const auto& as : t.ases()) {
    if (as.name == "RESEARCH-NET") research = as.id;
  }
  ASSERT_TRUE(research.valid());
  // No commercial backbone can route to the research net (it exports no
  // routes upward), but its customers can.
  for (const auto& as : t.ases()) {
    if (as.tier == topo::AsTier::kBackbone && as.id != research) {
      EXPECT_EQ(bgp.route(as.id, research).cls, RouteClass::kNone);
    }
  }
  for (const topo::AsId member : t.as_at(research).customers) {
    EXPECT_NE(bgp.route(member, research).cls, RouteClass::kNone);
  }
}

std::uint64_t counter(std::string_view name) {
  const MetricsSnapshot snap = MetricsRegistry::global().snapshot();
  for (const auto& [key, value] : snap.counters) {
    if (key == name) return value;
  }
  return 0;
}

TEST(Bgp, OneAsPathComputesOneDestination) {
  Harness h;
  MetricsRegistry::global().enable();
  const BgpTables bgp{h.t};
  const std::uint64_t before = counter("route.bgp.destinations_computed");
  EXPECT_EQ(bgp.as_path(h.s0, h.s1).size(), 6u);
  EXPECT_EQ(counter("route.bgp.destinations_computed"), before + 1);
  (void)bgp.as_path(h.r0, h.s1);  // same destination: already computed
  EXPECT_EQ(counter("route.bgp.destinations_computed"), before + 1);
}

TEST(Bgp, ConcurrentReaders) {
  topo::GeneratorConfig cfg;
  cfg.seed = 79;
  cfg.backbone_count = 4;
  cfg.regional_count = 8;
  cfg.stub_count = 20;
  const topo::Topology t = generate_topology(cfg);
  const std::size_t n = t.as_count();
  const auto id = [](std::size_t i) {
    return topo::AsId{static_cast<std::int32_t>(i)};
  };
  const BgpTables serial{t};
  const BgpTables shared{t};
  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<RouteEntry>> seen(kThreads);
  std::vector<std::thread> readers;
  for (std::size_t k = 0; k < kThreads; ++k) {
    // Each reader starts at a different destination, so first uses collide.
    readers.emplace_back([&, k] {
      seen[k].resize(n * n);
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t d = (i + k * n / kThreads) % n;
        for (std::size_t at = 0; at < n; ++at) {
          seen[k][d * n + at] = shared.route(id(at), id(d));
        }
      }
    });
  }
  for (auto& r : readers) r.join();
  for (std::size_t d = 0; d < n; ++d) {
    for (std::size_t at = 0; at < n; ++at) {
      const RouteEntry& want = serial.route(id(at), id(d));
      for (std::size_t k = 0; k < kThreads; ++k) {
        const RouteEntry& got = seen[k][d * n + at];
        EXPECT_EQ(got.cls, want.cls);
        EXPECT_EQ(got.path_length, want.path_length);
        EXPECT_EQ(got.next_hop, want.next_hop);
      }
    }
  }
}

}  // namespace
}  // namespace pathsel::route
