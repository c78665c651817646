#include "core/figures.h"

#include <gtest/gtest.h>

namespace pathsel::core {
namespace {

PairResult pair(double def, double alt) {
  PairResult r;
  r.a = topo::HostId{0};
  r.b = topo::HostId{1};
  r.default_value = def;
  r.alternate_value = alt;
  return r;
}

ResultColumns columns(const std::vector<PairResult>& pairs) {
  return from_pairs(pairs, Metric::kRtt);
}

BandwidthPairResult bw_pair(double def, double alt) {
  BandwidthPairResult r;
  r.default_kBps = def;
  r.alternate_kBps = alt;
  return r;
}

TEST(Figures, ImprovementCdfSign) {
  const auto cdf = improvement_cdf(columns({pair(100, 60), pair(50, 70)}));
  EXPECT_DOUBLE_EQ(cdf.fraction_above(0.0), 0.5);
  EXPECT_DOUBLE_EQ(cdf.value_at_fraction(1.0), 40.0);
}

TEST(Figures, RatioCdf) {
  const auto cdf = ratio_cdf(columns({pair(100, 50), pair(60, 60)}));
  EXPECT_DOUBLE_EQ(cdf.value_at_fraction(1.0), 2.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_above(1.0), 0.5);
}

TEST(Figures, BandwidthImprovementIsAltMinusDefault) {
  const std::vector<BandwidthPairResult> results{bw_pair(100, 300),
                                                 bw_pair(200, 100)};
  const auto cdf = bandwidth_improvement_cdf(results);
  EXPECT_DOUBLE_EQ(cdf.value_at_fraction(1.0), 200.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_above(0.0), 0.5);
}

TEST(Figures, BandwidthRatioIsAltOverDefault) {
  const std::vector<BandwidthPairResult> results{bw_pair(100, 300)};
  const auto cdf = bandwidth_ratio_cdf(results);
  EXPECT_DOUBLE_EQ(cdf.value_at_fraction(1.0), 3.0);
}

TEST(Figures, FractionImproved) {
  const ResultColumns results =
      columns({pair(100, 60), pair(50, 70), pair(10, 10)});
  EXPECT_NEAR(fraction_improved(results), 1.0 / 3.0, 1e-12);
}

TEST(Figures, FractionImprovedBandwidth) {
  const std::vector<BandwidthPairResult> results{bw_pair(100, 300),
                                                 bw_pair(100, 90)};
  EXPECT_DOUBLE_EQ(fraction_improved(results), 0.5);
}

TEST(Figures, EmptyInputs) {
  EXPECT_DOUBLE_EQ(fraction_improved(ResultColumns{}), 0.0);
  EXPECT_TRUE(improvement_cdf(ResultColumns{}).empty());
}

TEST(Figures, LossRatioGuardsZeroDenominator) {
  // alternate == 0: ratio defined as 1
  EXPECT_DOUBLE_EQ(columns({pair(0.05, 0.0)}).ratio(0), 1.0);
}

}  // namespace
}  // namespace pathsel::core
