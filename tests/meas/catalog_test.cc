#include "meas/catalog.h"

#include <set>

#include <gtest/gtest.h>

namespace pathsel::meas {
namespace {

CatalogConfig tiny() {
  CatalogConfig cfg;
  cfg.scale = 0.02;
  return cfg;
}

TEST(Catalog, TableOneHostCounts) {
  Catalog cat{tiny()};
  EXPECT_EQ(cat.by_name("D2").hosts.size(), 33u);
  EXPECT_EQ(cat.by_name("D2-NA").hosts.size(), 22u);
  EXPECT_EQ(cat.by_name("N2").hosts.size(), 31u);
  EXPECT_EQ(cat.by_name("N2-NA").hosts.size(), 20u);
  EXPECT_EQ(cat.by_name("UW1").hosts.size(), 36u);
  EXPECT_EQ(cat.by_name("UW3").hosts.size(), 39u);
  EXPECT_EQ(cat.by_name("UW4-A").hosts.size(), 15u);
  EXPECT_EQ(cat.by_name("UW4-B").hosts.size(), 15u);
}

TEST(Catalog, DatasetKinds) {
  Catalog cat{tiny()};
  EXPECT_EQ(cat.by_name("D2").kind, MeasurementKind::kTraceroute);
  EXPECT_EQ(cat.by_name("N2").kind, MeasurementKind::kTcpTransfer);
  EXPECT_EQ(cat.by_name("UW3").kind, MeasurementKind::kTraceroute);
}

TEST(Catalog, D2UsesFirstSampleLossHeuristic) {
  Catalog cat{tiny()};
  EXPECT_TRUE(cat.by_name("D2").first_sample_loss_only);
  EXPECT_TRUE(cat.by_name("D2-NA").first_sample_loss_only);
  EXPECT_FALSE(cat.by_name("UW3").first_sample_loss_only);
}

TEST(Catalog, SubsetsAreActualSubsets) {
  Catalog cat{tiny()};
  const auto& d2 = cat.by_name("D2");
  const auto& na = cat.by_name("D2-NA");
  const std::set<topo::HostId> parent_hosts{d2.hosts.begin(), d2.hosts.end()};
  for (const auto h : na.hosts) {
    EXPECT_TRUE(parent_hosts.contains(h));
    EXPECT_EQ(cat.world95().topology().host(h).region,
              topo::Region::kNorthAmerica);
  }
  EXPECT_LE(na.measurements.size(), d2.measurements.size());
  for (const auto& m : na.measurements) {
    EXPECT_TRUE(std::find(na.hosts.begin(), na.hosts.end(), m.src) !=
                na.hosts.end());
    EXPECT_TRUE(std::find(na.hosts.begin(), na.hosts.end(), m.dst) !=
                na.hosts.end());
  }
}

TEST(Catalog, D2HasInternationalHosts) {
  Catalog cat{tiny()};
  int intl = 0;
  for (const auto h : cat.by_name("D2").hosts) {
    if (cat.world95().topology().host(h).region !=
        topo::Region::kNorthAmerica) {
      ++intl;
    }
  }
  EXPECT_EQ(intl, 11);
}

TEST(Catalog, Uw3HostsAreNotRateLimited) {
  Catalog cat{tiny()};
  for (const auto h : cat.by_name("UW3").hosts) {
    EXPECT_FALSE(cat.world98().topology().host(h).icmp_rate_limited);
  }
}

TEST(Catalog, Uw4HostsDrawnFromUw3) {
  Catalog cat{tiny()};
  const auto& uw3 = cat.by_name("UW3").hosts;
  const std::set<topo::HostId> pool{uw3.begin(), uw3.end()};
  for (const auto h : cat.by_name("UW4-A").hosts) {
    EXPECT_TRUE(pool.contains(h));
  }
  EXPECT_EQ(cat.by_name("UW4-A").hosts, cat.by_name("UW4-B").hosts);
}

TEST(Catalog, Uw4aHasEpisodes) {
  Catalog cat{tiny()};
  EXPECT_GT(cat.by_name("UW4-A").episode_count, 0);
  EXPECT_EQ(cat.by_name("UW4-B").episode_count, 0);
}

TEST(Catalog, ScaledDurations) {
  Catalog cat{tiny()};
  EXPECT_NEAR(cat.by_name("UW3").duration.total_days(), 7.0 * 0.02, 1e-6);
  EXPECT_NEAR(cat.by_name("D2").duration.total_days(), 48.0 * 0.02, 1e-6);
}

TEST(Catalog, ByNameRoundTrip) {
  Catalog cat{tiny()};
  EXPECT_EQ(cat.by_name("D2").name, "D2");
  EXPECT_EQ(cat.by_name("D2-NA").name, "D2-NA");
  EXPECT_EQ(cat.by_name("N2").name, "N2");
  EXPECT_EQ(cat.by_name("UW1").name, "UW1");
  EXPECT_EQ(cat.by_name("UW3").name, "UW3");
  EXPECT_EQ(cat.by_name("UW4-A").name, "UW4-A");
  EXPECT_EQ(cat.by_name("UW4-B").name, "UW4-B");
  EXPECT_DEATH((void)cat.by_name("bogus"), "unknown dataset");
}

TEST(Catalog, DeterministicAcrossInstances) {
  Catalog a{tiny()};
  Catalog b{tiny()};
  const auto& da = a.by_name("UW3");
  const auto& db = b.by_name("UW3");
  ASSERT_EQ(da.measurements.size(), db.measurements.size());
  for (std::size_t i = 0; i < std::min<std::size_t>(100, da.measurements.size());
       ++i) {
    EXPECT_EQ(da.measurements[i].when, db.measurements[i].when);
    EXPECT_EQ(da.measurements[i].src, db.measurements[i].src);
  }
}

TEST(Catalog, DatasetsCached) {
  Catalog cat{tiny()};
  const Dataset* first = &cat.by_name("UW3");
  EXPECT_EQ(first, &cat.by_name("UW3"));
  // A derived dataset is cached too, and later entries move no earlier one.
  const Dataset* na = &cat.by_name("N2-NA");
  EXPECT_EQ(na, &cat.by_name("N2-NA"));
  EXPECT_EQ(first, &cat.by_name("UW3"));
}

TEST(Catalog, WorldsDiffer) {
  Catalog cat{tiny()};
  EXPECT_NE(cat.world95().topology().as_count(),
            cat.world98().topology().as_count());
}

TEST(Catalog, InvalidScaleAborts) {
  CatalogConfig cfg;
  cfg.scale = 0.0;
  EXPECT_DEATH((Catalog{cfg}), "scale");
}

}  // namespace
}  // namespace pathsel::meas
