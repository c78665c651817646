#include "core/propagation.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace pathsel::core {
namespace {

using test::add_invocation;
using test::make_dataset;

TEST(Propagation, GroupClassification) {
  // x = total diff, y = prop diff.
  EXPECT_EQ(classify_group(10.0, 5.0), 1);    // better in both
  EXPECT_EQ(classify_group(10.0, 15.0), 2);   // prop better, queueing worse
  EXPECT_EQ(classify_group(10.0, -5.0), 6);   // wins despite longer prop
  EXPECT_EQ(classify_group(-10.0, 5.0), 3);   // default wins despite prop
  EXPECT_EQ(classify_group(-10.0, -5.0), 4);  // default better in both
  EXPECT_EQ(classify_group(-10.0, -15.0), 5); // default prop better, queue worse
  EXPECT_EQ(classify_group(10.0, 10.0), 1);   // boundary y == x
  EXPECT_EQ(classify_group(0.0, 1.0), 1);
  EXPECT_EQ(classify_group(0.0, -1.0), 4);
}

// Dataset engineered so the 0-1 pair's alternate wins purely by avoiding
// queueing: direct has high queueing (samples 100 base + 80 congestion) but
// low propagation (p10 = 100); the detour's legs each have prop 60.
PathTable queueing_table() {
  auto ds = make_dataset(3);
  for (int i = 0; i < 30; ++i) {
    const double congestion = (i % 5 == 0) ? 0.0 : 120.0;  // mostly queued
    add_invocation(ds, 0, 1, {100.0 + congestion, 100.0 + congestion,
                              100.0 + congestion});
    add_invocation(ds, 0, 2, {60.0, 60.0, 60.0});
    add_invocation(ds, 2, 1, {60.0, 60.0, 60.0});
  }
  BuildOptions opt;
  opt.min_samples = 1;
  opt.keep_samples = true;
  return PathTable::build(ds, opt);
}

TEST(Propagation, AnalysisPopulatesAllParts) {
  const auto analysis = analyze_propagation(queueing_table());
  EXPECT_EQ(analysis.rtt_results.size(), 3u);
  EXPECT_EQ(analysis.propagation_results.size(), 3u);
  EXPECT_EQ(analysis.scatter.size(), 3u);
  std::size_t total = 0;
  for (const auto c : analysis.group_counts) total += c;
  EXPECT_EQ(total, analysis.scatter.size());
}

TEST(Propagation, SetsCarryTheirAnalyzerMetric) {
  const auto analysis = analyze_propagation(queueing_table());
  EXPECT_EQ(analysis.rtt_results.metric, Metric::kRtt);
  EXPECT_EQ(analysis.propagation_results.metric, Metric::kPropagation);
}

TEST(Propagation, DetectsCongestionAvoidance) {
  const auto analysis = analyze_propagation(queueing_table());
  for (const auto& p : analysis.scatter) {
    if (p.total_diff > 0.0) {
      // Total improvement ~ 196 - 120 = 76 ms; propagation diff = 100 - 120
      // = -20 ms: the alternate wins despite longer propagation -> group 6.
      EXPECT_EQ(p.group, 6);
      EXPECT_LT(p.prop_diff, 0.0);
    }
  }
}

TEST(Propagation, PropagationMetricShowsSmallerGains) {
  // The paper's Figure 15: improvements measured on propagation delay are
  // smaller in magnitude than improvements on mean RTT when congestion
  // dominates.
  const auto analysis = analyze_propagation(queueing_table());
  double max_rtt_gain = 0.0;
  double max_prop_gain = 0.0;
  for (std::size_t i = 0; i < analysis.rtt_results.size(); ++i) {
    max_rtt_gain = std::max(max_rtt_gain, analysis.rtt_results.improvement(i));
  }
  for (std::size_t i = 0; i < analysis.propagation_results.size(); ++i) {
    max_prop_gain =
        std::max(max_prop_gain, analysis.propagation_results.improvement(i));
  }
  EXPECT_GT(max_rtt_gain, max_prop_gain);
}

TEST(Propagation, PropagationDominatedCase) {
  // Direct path has long propagation and no congestion; alternate is
  // genuinely shorter: groups 1/2 territory.
  auto ds = make_dataset(3);
  for (int i = 0; i < 20; ++i) {
    add_invocation(ds, 0, 1, {150.0, 151.0, 149.0});
    add_invocation(ds, 0, 2, {50.0, 51.0, 49.0});
    add_invocation(ds, 2, 1, {50.0, 51.0, 49.0});
  }
  BuildOptions opt;
  opt.min_samples = 1;
  opt.keep_samples = true;
  const auto table = PathTable::build(ds, opt);
  const auto analysis = analyze_propagation(table);
  for (const auto& p : analysis.scatter) {
    if (p.total_diff > 0.0) {
      // All of the gain is propagation: group 1 (or 2 when sampling noise
      // nudges the propagation difference past the total).
      EXPECT_TRUE(p.group == 1 || p.group == 2) << p.group;
      EXPECT_NEAR(p.prop_diff, p.total_diff, 5.0);
    }
  }
}

}  // namespace
}  // namespace pathsel::core
