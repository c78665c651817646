// Qualitative reproduction checks: the paper's headline shapes must hold on
// scaled-down datasets.  Bands are intentionally loose — exact values for
// the full-scale datasets are recorded in EXPERIMENTS.md.
#include <gtest/gtest.h>

#include "core/alternate.h"
#include "core/bandwidth.h"
#include "core/confidence.h"
#include "core/figures.h"
#include "core/path_table.h"
#include "core/propagation.h"
#include "core/result_columns.h"
#include "meas/catalog.h"

namespace pathsel {
namespace {

class PaperResultsTest : public ::testing::Test {
 protected:
  static meas::Catalog& catalog() {
    static meas::Catalog cat{meas::CatalogConfig{.seed = 1999, .scale = 0.12}};
    return cat;
  }

  static core::PathTable table_for(const meas::Dataset& ds, int min_samples,
                                   bool keep = false) {
    core::BuildOptions opt;
    opt.min_samples = min_samples;
    opt.keep_samples = keep;
    return core::PathTable::build(ds, opt);
  }

  static core::ResultColumns sweep(const core::PathTable& table,
                                   const core::AnalyzerOptions& opt = {}) {
    return core::from_pairs(core::analyze_alternate_paths(table, opt),
                            opt.metric);
  }
};

TEST_F(PaperResultsTest, SignificantFractionHasBetterRttAlternate) {
  // Paper §5: 30-55 percent of paths have a lower-RTT alternate.
  for (const char* name : {"UW3", "D2"}) {
    const auto table = table_for(catalog().by_name(name), 8);
    const double frac = core::fraction_improved(sweep(table));
    EXPECT_GT(frac, 0.20) << name;
    EXPECT_LT(frac, 0.70) << name;
  }
}

TEST_F(PaperResultsTest, ManyPathsHaveBetterLossAlternate) {
  // Paper §5: 75-85 percent of paths have a lower-loss alternate.  Loss is
  // sampling-limited: at this reduced scale (12% of the trace) many truly
  // lossy defaults measure zero losses and cannot be beaten, so the band
  // here is loose; the full-scale run reaches ~0.77 (see EXPERIMENTS.md).
  const auto table = table_for(catalog().by_name("UW3"), 8);
  core::AnalyzerOptions opt;
  opt.metric = core::Metric::kLoss;
  const double frac = core::fraction_improved(sweep(table, opt));
  EXPECT_GT(frac, 0.30);
}

TEST_F(PaperResultsTest, BandwidthAlternatesCommon) {
  // Paper §5: 70-80 percent of N2 paths have a higher-bandwidth one-hop
  // alternate (optimistic composition; scaled datasets run lower).
  const auto table = table_for(catalog().by_name("N2"), 5);
  const auto results =
      core::analyze_bandwidth(table, core::LossComposition::kOptimistic);
  ASSERT_GT(results.size(), 30u);
  const double frac = core::fraction_improved(results);
  EXPECT_GT(frac, 0.4);
}

TEST_F(PaperResultsTest, TTestTalliesMatchTable2Shape) {
  // Table 2: better 20-32%, indeterminate 32-41%, worse 29-48%.
  const auto table = table_for(catalog().by_name("UW3"), 8);
  core::ResultColumns results = sweep(table);
  ASSERT_TRUE(core::annotate_significance(results).is_ok());
  const auto tally = core::tally_significance(results);
  EXPECT_GT(tally.better, 0.10);
  EXPECT_LT(tally.better, 0.50);
  EXPECT_GT(tally.indeterminate, 0.15);
  EXPECT_GT(tally.worse, 0.15);
}

TEST_F(PaperResultsTest, SomeAlternatesWinByAvoidingCongestion) {
  // §7.2 / Figure 16: group 6 (alternate wins despite longer propagation)
  // must be populated, and more than its mirror group 3.
  const auto table = table_for(catalog().by_name("UW3"), 8, /*keep=*/true);
  const auto analysis = core::analyze_propagation(table);
  EXPECT_GT(analysis.group_counts[5], 0u);                          // group 6
  EXPECT_GE(analysis.group_counts[5], analysis.group_counts[2]);    // vs 3
}

TEST_F(PaperResultsTest, PropagationGainsSmallerThanRttGains) {
  // §7.2 / Figure 15: the improvement magnitude shrinks when only
  // propagation delay is considered.
  const auto table = table_for(catalog().by_name("UW3"), 8, /*keep=*/true);
  const auto analysis = core::analyze_propagation(table);
  const auto rtt_cdf = core::improvement_cdf(analysis.rtt_results);
  const auto prop_cdf = core::improvement_cdf(analysis.propagation_results);
  EXPECT_GT(rtt_cdf.value_at_fraction(0.95),
            prop_cdf.value_at_fraction(0.95));
}

TEST_F(PaperResultsTest, D2ShowsStrongerLossImprovements) {
  // Figure 3: the 1995 D2 dataset shows substantially more large loss
  // improvements (>= 5 percentage points) than the 1998-99 UW datasets.
  core::AnalyzerOptions opt;
  opt.metric = core::Metric::kLoss;
  const auto d2 = sweep(table_for(catalog().by_name("D2"), 5), opt);
  const auto uw3 = sweep(table_for(catalog().by_name("UW3"), 8), opt);
  const double d2_large = core::improvement_cdf(d2).fraction_above(0.05);
  const double uw3_large = core::improvement_cdf(uw3).fraction_above(0.05);
  EXPECT_GT(d2_large, uw3_large);
  EXPECT_GT(d2_large, 0.02);
}

TEST_F(PaperResultsTest, RelativeRttImprovementTail) {
  // Figure 2: a visible fraction of pairs sees >= 1.5x better latency.
  const auto table = table_for(catalog().by_name("UW3"), 8);
  const auto ratios = core::ratio_cdf(sweep(table));
  EXPECT_GT(ratios.fraction_above(1.25), 0.02);
}

TEST_F(PaperResultsTest, TransOceanicLatencyGapDisappearsInRatio) {
  // Figures 1 vs 2: D2 (world) shows larger absolute improvements than
  // D2-NA, but the relative curves come together.
  const auto d2 = sweep(table_for(catalog().by_name("D2"), 5));
  const auto na = sweep(table_for(catalog().by_name("D2-NA"), 5));
  const double d2_abs = core::improvement_cdf(d2).value_at_fraction(0.95);
  const double na_abs = core::improvement_cdf(na).value_at_fraction(0.95);
  const double d2_rel = core::ratio_cdf(d2).value_at_fraction(0.95);
  const double na_rel = core::ratio_cdf(na).value_at_fraction(0.95);
  EXPECT_GT(d2_abs, na_abs * 0.8);
  EXPECT_NEAR(d2_rel, na_rel, 0.5);
}

}  // namespace
}  // namespace pathsel
