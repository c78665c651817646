#include "core/median.h"

#include <gtest/gtest.h>

#include "core/result_columns.h"
#include "test_util.h"

namespace pathsel::core {
namespace {

using test::add_invocation;
using test::make_dataset;

PathTable sample_table() {
  auto ds = make_dataset(3);
  // Direct 0-1 around 100; legs around 30 each.
  for (int i = 0; i < 30; ++i) {
    const double jitter = static_cast<double>(i % 5);
    add_invocation(ds, 0, 1, {100.0 + jitter, 101.0 + jitter, 99.0 + jitter});
    add_invocation(ds, 0, 2, {30.0 + jitter, 30.0, 31.0});
    add_invocation(ds, 2, 1, {30.0 + jitter, 30.0, 29.0});
  }
  BuildOptions opt;
  opt.min_samples = 1;
  opt.keep_samples = true;
  return PathTable::build(ds, opt);
}

TEST(Median, FindsDetourByMedian) {
  const auto results = analyze_median_alternates(sample_table());
  ASSERT_EQ(results.size(), 3u);
  for (const auto& r : results) {
    if (r.a == topo::HostId{0} && r.b == topo::HostId{1}) {
      EXPECT_NEAR(r.default_median, 101.0, 2.0);
      EXPECT_NEAR(r.alternate_median, 61.0, 4.0);
      EXPECT_EQ(r.via, topo::HostId{2});
      EXPECT_GT(r.improvement(), 0.0);
    }
  }
}

TEST(Median, AgreesWithMeanForSymmetricNoise) {
  // The paper's Figure 6 point: mean- and median-based analyses agree when
  // distributions are not heavily skewed.
  const auto table = sample_table();
  const auto medians = analyze_median_alternates(table);
  AnalyzerOptions mean_opt;
  mean_opt.max_intermediate_hosts = 1;
  const auto means =
      from_pairs(analyze_alternate_paths(table, mean_opt), mean_opt.metric);
  ASSERT_EQ(medians.size(), means.size());
  for (std::size_t i = 0; i < medians.size(); ++i) {
    EXPECT_NEAR(medians[i].improvement(), means.improvement(i), 6.0);
  }
}

TEST(Median, SkewResistance) {
  // Heavy outliers pull the mean but not the median: direct path has 10%
  // samples at 1000 ms.  The median comparison must stay near the base rtt.
  auto ds = make_dataset(3);
  for (int i = 0; i < 30; ++i) {
    const double spike = i % 10 == 0 ? 1000.0 : 50.0;
    add_invocation(ds, 0, 1, {spike, 50.0, 50.0});
    add_invocation(ds, 0, 2, {30.0, 30.0, 30.0});
    add_invocation(ds, 2, 1, {30.0, 30.0, 30.0});
  }
  BuildOptions opt;
  opt.min_samples = 1;
  opt.keep_samples = true;
  const auto table = PathTable::build(ds, opt);
  const auto medians = analyze_median_alternates(table);
  for (const auto& r : medians) {
    if (r.a == topo::HostId{0} && r.b == topo::HostId{1}) {
      EXPECT_NEAR(r.default_median, 50.0, 5.0);
    }
  }
  // The mean for the same pair is inflated by the spikes.
  const auto* direct = table.find(topo::HostId{0}, topo::HostId{1});
  EXPECT_GT(direct->rtt.mean(), 75.0);
}

TEST(Median, NoOneHopAlternateOmitsPair) {
  auto ds = make_dataset(3);
  for (int i = 0; i < 5; ++i) {
    add_invocation(ds, 0, 1, {50.0, 50.0, 50.0});
    add_invocation(ds, 0, 2, {30.0, 30.0, 30.0});
  }
  BuildOptions opt;
  opt.min_samples = 1;
  opt.keep_samples = true;
  const auto table = PathTable::build(ds, opt);
  const auto medians = analyze_median_alternates(table);
  EXPECT_TRUE(medians.empty());
}

TEST(Median, BinWidthConfigurable) {
  const auto table = sample_table();
  MedianOptions coarse;
  coarse.bin_width_ms = 20.0;
  MedianOptions fine;
  fine.bin_width_ms = 1.0;
  const auto rc = analyze_median_alternates(table, coarse);
  const auto rf = analyze_median_alternates(table, fine);
  ASSERT_EQ(rc.size(), rf.size());
  for (std::size_t i = 0; i < rc.size(); ++i) {
    EXPECT_NEAR(rc[i].alternate_median, rf[i].alternate_median, 25.0);
  }
}

TEST(Median, RequiresRetainedSamples) {
  auto ds = make_dataset(3);
  test::add_invocations(ds, 0, 1, 10.0, 2);
  test::add_invocations(ds, 0, 2, 10.0, 2);
  test::add_invocations(ds, 2, 1, 10.0, 2);
  const auto table = PathTable::build(ds, test::min_samples(1));
  EXPECT_DEATH((void)analyze_median_alternates(table), "retained");
}

TEST(Median, InvalidBinWidthAborts) {
  const auto table = sample_table();
  MedianOptions opt;
  opt.bin_width_ms = 0.0;
  EXPECT_DEATH((void)analyze_median_alternates(table, opt), "positive");
}

}  // namespace
}  // namespace pathsel::core
