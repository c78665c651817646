#include "core/as_analysis.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace pathsel::core {
namespace {

using test::add_invocations;
using test::make_dataset;

// Triangle with AS paths attached: direct 0-1 goes through AS 10; the legs
// go through AS 20 and AS 30.
PathTable as_table() {
  auto ds = make_dataset(3);
  add_invocations(ds, 0, 1, 100.0, 3);
  add_invocations(ds, 0, 2, 30.0, 3);
  add_invocations(ds, 2, 1, 30.0, 3);
  for (auto& m : ds.measurements) {
    const int s = m.src.value();
    const int d = m.dst.value();
    if ((s == 0 && d == 1) || (s == 1 && d == 0)) {
      m.as_path = {topo::AsId{1}, topo::AsId{10}, topo::AsId{2}};
    } else if ((s == 0 && d == 2) || (s == 2 && d == 0)) {
      m.as_path = {topo::AsId{1}, topo::AsId{20}, topo::AsId{3}};
    } else {
      m.as_path = {topo::AsId{3}, topo::AsId{30}, topo::AsId{2}};
    }
  }
  return PathTable::build(ds, test::min_samples(1));
}

TEST(AsAnalysis, CountsDefaultAppearances) {
  const auto table = as_table();
  const auto apps = as_appearances(
      table, from_pairs(analyze_alternate_paths(table, AnalyzerOptions{}),
                        Metric::kRtt));
  auto find = [&apps](int as) -> const AsAppearance* {
    for (const auto& a : apps) {
      if (a.as == topo::AsId{as}) return &a;
    }
    return nullptr;
  };
  // AS 10 appears on exactly one measured default path (0-1).
  ASSERT_NE(find(10), nullptr);
  EXPECT_EQ(find(10)->default_count, 1u);
  // AS 1 (source stub) appears on two default paths: 0-1 and 0-2.
  ASSERT_NE(find(1), nullptr);
  EXPECT_EQ(find(1)->default_count, 2u);
}

TEST(AsAnalysis, CountsAlternateAppearances) {
  const auto table = as_table();
  const auto apps = as_appearances(
      table, from_pairs(analyze_alternate_paths(table, AnalyzerOptions{}),
                        Metric::kRtt));
  auto find = [&apps](int as) -> const AsAppearance* {
    for (const auto& a : apps) {
      if (a.as == topo::AsId{as}) return &a;
    }
    return nullptr;
  };
  // The best alternate for 0-1 is via host 2, whose legs traverse AS 20 and
  // AS 30; each of the three pairs has an alternate through the other two
  // edges.
  ASSERT_NE(find(20), nullptr);
  EXPECT_EQ(find(20)->alternate_count, 2u);  // alternates for 0-1 and 1-2... 
  ASSERT_NE(find(10), nullptr);
  EXPECT_GE(find(10)->alternate_count, 1u);  // 0-1 edge serves other pairs
}

TEST(AsAnalysis, SortedByAsId) {
  const auto table = as_table();
  const auto apps = as_appearances(
      table, from_pairs(analyze_alternate_paths(table, AnalyzerOptions{}),
                        Metric::kRtt));
  for (std::size_t i = 1; i < apps.size(); ++i) {
    EXPECT_LT(apps[i - 1].as, apps[i].as);
  }
}

TEST(AsAnalysis, EmptyResultsGiveOnlyDefaultCounts) {
  const auto table = as_table();
  const auto apps = as_appearances(table, {});
  for (const auto& a : apps) {
    EXPECT_EQ(a.alternate_count, 0u);
    EXPECT_GT(a.default_count, 0u);
  }
}

}  // namespace
}  // namespace pathsel::core
