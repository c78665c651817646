// Property tests over randomly generated topologies: every BGP route the
// engine selects must satisfy the valley-free export discipline, and every
// resolved router path must be physically consistent with it.
#include <gtest/gtest.h>

#include "route/bgp.h"
#include "route/igp.h"
#include "route/path.h"
#include "topo/generator.h"

namespace pathsel::route {
namespace {

enum class Rel { kUp, kDown, kPeer, kNone };

Rel relation(const topo::Topology& t, topo::AsId from, topo::AsId to) {
  const auto& as = t.as_at(from);
  for (const auto p : as.providers) {
    if (p == to) return Rel::kUp;
  }
  for (const auto c : as.customers) {
    if (c == to) return Rel::kDown;
  }
  for (const auto p : as.peers) {
    if (p == to) return Rel::kPeer;
  }
  return Rel::kNone;
}

// Valley-free: a path is a (possibly empty) uphill run of customer->provider
// steps, then at most one peer step, then a downhill run.
bool valley_free(const topo::Topology& t, const std::vector<topo::AsId>& path) {
  int phase = 0;  // 0 = climbing, 1 = after peak/peer (descending only)
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const Rel r = relation(t, path[i], path[i + 1]);
    switch (r) {
      case Rel::kUp:
        if (phase != 0) return false;
        break;
      case Rel::kPeer:
        if (phase != 0) return false;
        phase = 1;
        break;
      case Rel::kDown:
        phase = 1;
        break;
      case Rel::kNone:
        return false;  // hop without a business relationship
    }
  }
  return true;
}

class PolicySweep : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  static topo::Topology make(std::uint64_t seed) {
    topo::GeneratorConfig cfg;
    cfg.seed = seed;
    cfg.backbone_count = 3 + static_cast<int>(seed % 3);
    cfg.regional_count = 6 + static_cast<int>(seed % 5);
    cfg.stub_count = 14 + static_cast<int>(seed % 7);
    cfg.research_member_fraction = (seed % 2 == 0) ? 0.3 : 0.0;
    return topo::generate_topology(cfg);
  }
};

TEST_P(PolicySweep, AllSelectedRoutesAreValleyFree) {
  const topo::Topology t = make(GetParam());
  const BgpTables bgp{t};
  for (const auto& src : t.ases()) {
    for (const auto& dst : t.ases()) {
      if (src.id == dst.id) continue;
      const auto path = bgp.as_path(src.id, dst.id);
      if (path.empty()) continue;  // unreachable under policy is fine
      EXPECT_TRUE(valley_free(t, path))
          << "seed " << GetParam() << ": " << src.name << " -> " << dst.name;
    }
  }
}

TEST_P(PolicySweep, AsPathsAreLoopFree) {
  const topo::Topology t = make(GetParam());
  const BgpTables bgp{t};
  for (const auto& src : t.ases()) {
    for (const auto& dst : t.ases()) {
      if (src.id == dst.id) continue;
      const auto path = bgp.as_path(src.id, dst.id);
      for (std::size_t i = 0; i < path.size(); ++i) {
        for (std::size_t j = i + 1; j < path.size(); ++j) {
          EXPECT_NE(path[i], path[j]) << "seed " << GetParam();
        }
      }
    }
  }
}

TEST_P(PolicySweep, RouteLengthMatchesPath) {
  const topo::Topology t = make(GetParam());
  const BgpTables bgp{t};
  for (const auto& src : t.ases()) {
    for (const auto& dst : t.ases()) {
      if (src.id == dst.id) continue;
      const auto& entry = bgp.route(src.id, dst.id);
      const auto path = bgp.as_path(src.id, dst.id);
      if (entry.cls == RouteClass::kNone) {
        EXPECT_TRUE(path.empty());
        continue;
      }
      EXPECT_EQ(static_cast<int>(path.size()) - 1, entry.path_length)
          << "seed " << GetParam();
    }
  }
}

TEST_P(PolicySweep, ResolvedPathsTraverseTheBgpAsPath) {
  const topo::Topology t = make(GetParam());
  const IgpTables igp{t};
  const BgpTables bgp{t};
  const PathResolver resolver{t, igp, bgp};
  const auto& hosts = t.hosts();
  // Sample a handful of pairs per topology.
  for (std::size_t i = 0; i < hosts.size(); i += 3) {
    for (std::size_t j = 1; j < hosts.size(); j += 5) {
      if (hosts[i].id == hosts[j].id) continue;
      const auto path =
          resolver.resolve(hosts[i].attachment, hosts[j].attachment);
      if (!path.valid()) continue;
      // Router-level hop sequence visits exactly the AS path's ASes in order.
      std::vector<topo::AsId> seen{t.router(path.source).as};
      for (const auto& hop : path.hops) {
        const topo::AsId as = t.router(hop.router).as;
        if (seen.back() != as) seen.push_back(as);
      }
      EXPECT_EQ(seen, path.as_path) << "seed " << GetParam();
      // Physical contiguity.
      topo::RouterId cursor = path.source;
      for (const auto& hop : path.hops) {
        EXPECT_EQ(t.other_end(hop.via, hop.router), cursor);
        cursor = hop.router;
      }
      EXPECT_EQ(cursor, hosts[j].attachment);
    }
  }
}

TEST_P(PolicySweep, EveryInterAsHopHasRelationship) {
  const topo::Topology t = make(GetParam());
  const BgpTables bgp{t};
  for (const auto& src : t.ases()) {
    if (src.tier != topo::AsTier::kStub) continue;
    for (const auto& dst : t.ases()) {
      if (dst.tier != topo::AsTier::kStub || src.id == dst.id) continue;
      const auto path = bgp.as_path(src.id, dst.id);
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        EXPECT_NE(relation(t, path[i], path[i + 1]), Rel::kNone);
        EXPECT_TRUE(t.adjacent(path[i], path[i + 1]));
      }
    }
  }
}

// Destination columns are computed on first use; the order of first uses
// must not change any route, including with sessions down.
TEST_P(PolicySweep, RoutesIndependentOfQueryOrder) {
  topo::Topology t = make(GetParam());
  std::size_t inter_as = 0;
  for (const auto& l : t.links()) {
    if (l.kind == topo::LinkKind::kIntraAs) continue;
    if (inter_as++ % 4 == 0) t.set_link_down(l.id, true);
  }
  const BgpTables ascending{t};
  const BgpTables reverse{t};
  const auto n = static_cast<std::int32_t>(t.as_count());
  for (std::int32_t d = 0; d < n; ++d) {
    (void)ascending.route(topo::AsId{0}, topo::AsId{d});
    (void)reverse.route(topo::AsId{0}, topo::AsId{n - 1 - d});
  }
  for (const auto& at : t.ases()) {
    for (const auto& dest : t.ases()) {
      const RouteEntry& a = ascending.route(at.id, dest.id);
      const RouteEntry& b = reverse.route(at.id, dest.id);
      EXPECT_EQ(a.cls, b.cls);
      EXPECT_EQ(a.path_length, b.path_length);
      EXPECT_EQ(a.next_hop, b.next_hop);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PolicySweep,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707,
                                           808, 909, 1010));

}  // namespace
}  // namespace pathsel::route
