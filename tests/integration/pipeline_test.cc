// End-to-end pipeline: generate a world, collect datasets, run every
// analysis, and check internal consistency (not paper numbers — those live
// in paper_results_test.cc and EXPERIMENTS.md).
#include <gtest/gtest.h>

#include "core/alternate.h"
#include "core/as_analysis.h"
#include "core/bandwidth.h"
#include "core/confidence.h"
#include "core/contribution.h"
#include "core/episodes.h"
#include "core/figures.h"
#include "core/median.h"
#include "core/path_table.h"
#include "core/result_columns.h"
#include "core/propagation.h"
#include "core/timeofday.h"
#include "meas/catalog.h"

namespace pathsel {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  static meas::Catalog& catalog() {
    static meas::Catalog cat{meas::CatalogConfig{.seed = 2024, .scale = 0.05}};
    return cat;
  }

  static core::PathTable uw3_table() {
    core::BuildOptions opt;
    opt.min_samples = 5;
    opt.keep_samples = true;
    return core::PathTable::build(catalog().by_name("UW3"), opt);
  }
};

TEST_F(PipelineTest, DatasetsNonEmptyAndCovered) {
  const auto& uw3 = catalog().by_name("UW3");
  EXPECT_GT(uw3.completed_count(), 1000u);
  EXPECT_GT(uw3.covered_paths(), uw3.potential_paths() / 2);
}

TEST_F(PipelineTest, RttAnalysisConsistency) {
  const auto table = uw3_table();
  const auto results = core::analyze_alternate_paths(table, {});
  ASSERT_GT(results.size(), 100u);
  for (const auto& r : results) {
    // The direct edge exists and its mean matches the recorded default.
    const auto* e = table.find(r.a, r.b);
    ASSERT_NE(e, nullptr);
    EXPECT_DOUBLE_EQ(r.default_value, e->rtt.mean());
    EXPECT_GT(r.alternate_value, 0.0);
    // The via chain is backed by measured edges and reproduces the value.
    std::vector<topo::HostId> chain{r.a};
    chain.insert(chain.end(), r.via.begin(), r.via.end());
    chain.push_back(r.b);
    double sum = 0.0;
    for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
      const auto* leg = table.find(chain[i], chain[i + 1]);
      ASSERT_NE(leg, nullptr);
      sum += leg->rtt.mean();
    }
    EXPECT_NEAR(sum, r.alternate_value, 1e-9);
  }
}

TEST_F(PipelineTest, AlternateNeverWorseThanBestOneHop) {
  const auto table = uw3_table();
  core::AnalyzerOptions unlimited;
  core::AnalyzerOptions one_hop;
  one_hop.max_intermediate_hosts = 1;
  const auto full = core::analyze_alternate_paths(table, unlimited);
  const auto restricted = core::analyze_alternate_paths(table, one_hop);
  ASSERT_EQ(full.size(), restricted.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_LE(full[i].alternate_value, restricted[i].alternate_value + 1e-9);
  }
}

TEST_F(PipelineTest, LossValuesInUnitRange) {
  const auto table = uw3_table();
  core::AnalyzerOptions opt;
  opt.metric = core::Metric::kLoss;
  for (const auto& r : core::analyze_alternate_paths(table, opt)) {
    EXPECT_GE(r.default_value, 0.0);
    EXPECT_LE(r.default_value, 1.0);
    EXPECT_GE(r.alternate_value, 0.0);
    EXPECT_LE(r.alternate_value, 1.0);
  }
}

TEST_F(PipelineTest, SignificanceTallyConsistent) {
  const auto table = uw3_table();
  const auto results = core::from_pairs(
      core::analyze_alternate_paths(table, {}), core::Metric::kRtt);
  const auto tally = core::classify_significance(results);
  EXPECT_EQ(tally.pairs, results.size());
  EXPECT_NEAR(tally.better + tally.worse + tally.indeterminate + tally.zero,
              1.0, 1e-9);
  // Significant fractions are a subset of raw fractions.
  const double raw_better = core::fraction_improved(results);
  EXPECT_LE(tally.better, raw_better + 1e-9);
}

TEST_F(PipelineTest, BandwidthAnalysisBrackets) {
  core::BuildOptions opt;
  opt.min_samples = 3;
  const auto table = core::PathTable::build(catalog().by_name("N2"), opt);
  const auto optimistic =
      core::analyze_bandwidth(table, core::LossComposition::kOptimistic);
  const auto pessimistic =
      core::analyze_bandwidth(table, core::LossComposition::kPessimistic);
  ASSERT_EQ(optimistic.size(), pessimistic.size());
  ASSERT_GT(optimistic.size(), 20u);
  for (std::size_t i = 0; i < optimistic.size(); ++i) {
    EXPECT_GE(optimistic[i].alternate_kBps,
              pessimistic[i].alternate_kBps - 1e-9);
    EXPECT_GT(optimistic[i].default_kBps, 0.0);
  }
}

TEST_F(PipelineTest, TimeOfDayBinsCoverData) {
  core::TimeOfDayOptions opt;
  opt.min_samples = 1;
  const auto bins = core::analyze_by_time_of_day(catalog().by_name("UW3"), opt);
  ASSERT_EQ(bins.size(), 5u);
  std::size_t total = 0;
  for (const auto& bin : bins) total += bin.results.size();
  EXPECT_GT(total, 0u);
}

TEST_F(PipelineTest, EpisodesAnalyzeUw4a) {
  const auto analysis = core::analyze_episodes(catalog().by_name("UW4-A"), {});
  EXPECT_GT(analysis.episodes_analyzed, 5u);
  EXPECT_GT(analysis.unaveraged.size(), analysis.pair_averaged.size());
  // Unaveraged tails are at least as broad as pair-averaged tails.
  EXPECT_GE(analysis.unaveraged.value_at_fraction(1.0),
            analysis.pair_averaged.value_at_fraction(1.0) - 1e-9);
}

TEST_F(PipelineTest, MedianAnalysisRuns) {
  const auto table = uw3_table();
  const auto medians = core::analyze_median_alternates(table);
  EXPECT_GT(medians.size(), 50u);
  for (const auto& r : medians) {
    EXPECT_GT(r.default_median, 0.0);
    EXPECT_GT(r.alternate_median, 0.0);
  }
}

TEST_F(PipelineTest, ContributionNormalization) {
  const auto table = uw3_table();
  const auto contributions =
      core::improvement_contributions(table, core::Metric::kRtt);
  ASSERT_EQ(contributions.size(), table.hosts().size());
  double total = 0.0;
  for (const auto& c : contributions) total += c.normalized;
  EXPECT_NEAR(total / static_cast<double>(contributions.size()), 100.0, 1e-6);
}

TEST_F(PipelineTest, AsAppearancesCoverDefaultPaths) {
  const auto table = uw3_table();
  const auto apps = core::as_appearances(
      table, core::from_pairs(core::analyze_alternate_paths(table, {}),
                              core::Metric::kRtt));
  EXPECT_GT(apps.size(), 10u);
  std::size_t default_total = 0;
  for (const auto& a : apps) default_total += a.default_count;
  // Every edge has an AS path with >= 2 ASes.
  EXPECT_GE(default_total, table.edges().size() * 2);
}

TEST_F(PipelineTest, PropagationScatterGroupsValid) {
  const auto table = uw3_table();
  const auto analysis = core::analyze_propagation(table);
  for (const auto& p : analysis.scatter) {
    EXPECT_GE(p.group, 1);
    EXPECT_LE(p.group, 6);
    EXPECT_EQ(p.group, core::classify_group(p.total_diff, p.prop_diff));
  }
}

}  // namespace
}  // namespace pathsel
