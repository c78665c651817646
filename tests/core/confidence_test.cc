#include "core/confidence.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <string>

#include "meas/catalog.h"
#include "test_util.h"

namespace pathsel::core {
namespace {

using test::add_invocation;
using test::add_invocations;
using test::make_dataset;

ResultColumns rtt_results(const PathTable& table) {
  return from_pairs(analyze_alternate_paths(table, AnalyzerOptions{}),
                    Metric::kRtt);
}

TEST(Confidence, TallyFractionsSumToOne) {
  auto ds = make_dataset(4);
  add_invocations(ds, 0, 1, 100.0, 10);
  add_invocations(ds, 0, 2, 30.0, 10);
  add_invocations(ds, 2, 1, 30.0, 10);
  add_invocations(ds, 0, 3, 80.0, 10);
  add_invocations(ds, 3, 1, 80.0, 10);
  const auto table = PathTable::build(ds, test::min_samples(1));
  const auto tally = classify_significance(rtt_results(table));
  EXPECT_GT(tally.pairs, 0u);
  EXPECT_NEAR(tally.better + tally.worse + tally.indeterminate + tally.zero,
              1.0, 1e-12);
}

TEST(Confidence, ClearWinnerClassifiedBetter) {
  // Constant samples -> tiny variance -> decisive verdicts.
  auto ds = make_dataset(3);
  for (int i = 0; i < 20; ++i) {
    add_invocation(ds, 0, 1, {100.0 + (i % 3), 100.0, 100.0});
    add_invocation(ds, 0, 2, {30.0 + (i % 3), 30.0, 30.0});
    add_invocation(ds, 2, 1, {30.0 + (i % 3), 30.0, 30.0});
  }
  const auto table = PathTable::build(ds, test::min_samples(1));
  const auto results = analyze_alternate_paths(table, AnalyzerOptions{});
  for (const auto& r : results) {
    const auto t = stats::welch_ttest(r.default_estimate, r.alternate_estimate);
    if (r.a == topo::HostId{0} && r.b == topo::HostId{1}) {
      EXPECT_EQ(t.verdict, stats::Significance::kBetter);
    } else {
      EXPECT_EQ(t.verdict, stats::Significance::kWorse);
    }
  }
}

TEST(Confidence, NoisyTieIndeterminate) {
  auto ds = make_dataset(3);
  Rng rng{9};
  for (int i = 0; i < 15; ++i) {
    add_invocation(ds, 0, 1, {60.0 + rng.normal(0, 20), 60.0 + rng.normal(0, 20),
                              60.0 + rng.normal(0, 20)});
    add_invocation(ds, 0, 2, {30.0 + rng.normal(0, 20), 30.0 + rng.normal(0, 20),
                              30.0 + rng.normal(0, 20)});
    add_invocation(ds, 2, 1, {30.0 + rng.normal(0, 20), 30.0 + rng.normal(0, 20),
                              30.0 + rng.normal(0, 20)});
  }
  const auto table = PathTable::build(ds, test::min_samples(1));
  const auto tally = classify_significance(rtt_results(table));
  EXPECT_GT(tally.indeterminate, 0.0);
}

TEST(Confidence, LossZeroClass) {
  auto ds = make_dataset(3);
  add_invocations(ds, 0, 1, 10.0, 10);  // no losses anywhere
  add_invocations(ds, 0, 2, 10.0, 10);
  add_invocations(ds, 2, 1, 10.0, 10);
  const auto table = PathTable::build(ds, test::min_samples(1));
  AnalyzerOptions opt;
  opt.metric = Metric::kLoss;
  const auto tally = classify_significance(
      from_pairs(analyze_alternate_paths(table, opt), opt.metric));
  EXPECT_DOUBLE_EQ(tally.zero, 1.0);
}

TEST(Confidence, CdfSortedWithFractions) {
  auto ds = make_dataset(4);
  add_invocations(ds, 0, 1, 100.0, 8);
  add_invocations(ds, 0, 2, 30.0, 8);
  add_invocations(ds, 2, 1, 30.0, 8);
  add_invocations(ds, 0, 3, 50.0, 8);
  add_invocations(ds, 3, 1, 55.0, 8);
  const auto table = PathTable::build(ds, test::min_samples(1));
  const auto points = confidence_cdf(rtt_results(table));
  ASSERT_FALSE(points.empty());
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_LE(points[i - 1].difference, points[i].difference);
    EXPECT_LT(points[i - 1].fraction, points[i].fraction);
  }
  EXPECT_NEAR(points.back().fraction, 1.0, 1e-12);
  for (const auto& p : points) {
    EXPECT_GE(p.half_width, 0.0);
  }
}

// The class welch_ttest's bisected interval gives, as the column stores it.
SignificanceClass reference_class(const ResultColumns& cols, std::size_t i,
                                  double confidence) {
  return static_cast<SignificanceClass>(
      stats::welch_ttest(cols.default_estimate(i), cols.alternate_estimate(i),
                         confidence)
          .verdict);
}

// annotate_significance's column, classify_pair and the tallies all equal the
// welch_ttest verdict on every row; returns how many rows were compared.
std::size_t expect_verdicts_match_ttest(ResultColumns cols, double confidence,
                                        const std::string& label) {
  EXPECT_TRUE(annotate_significance(cols, confidence, 2).is_ok());
  std::array<std::size_t, 4> want{};
  for (std::size_t i = 0; i < cols.size(); ++i) {
    const SignificanceClass ref = reference_class(cols, i, confidence);
    EXPECT_EQ(static_cast<SignificanceClass>(cols.significance[i]), ref)
        << label << " row " << i;
    EXPECT_EQ(classify_pair(cols, i, confidence), ref) << label << " row " << i;
    ++want[static_cast<std::size_t>(ref)];
  }
  const SignificanceTally tally = classify_significance(cols, confidence, 2);
  if (!cols.empty()) {
    const auto n = static_cast<double>(cols.size());
    EXPECT_EQ(tally.better, static_cast<double>(want[0]) / n) << label;
    EXPECT_EQ(tally.worse, static_cast<double>(want[1]) / n) << label;
    EXPECT_EQ(tally.indeterminate, static_cast<double>(want[2]) / n) << label;
    EXPECT_EQ(tally.zero, static_cast<double>(want[3]) / n) << label;
  }
  return cols.size();
}

TEST(Confidence, VerdictsMatchTTestOverSeededCorpus) {
  // Random estimate pairs with Welch dof spread over 1-200 and observed t
  // on both sides of every quantile.
  Rng rng{77};
  ResultColumns cols;
  for (int i = 0; i < 1500; ++i) {
    const double v = rng.uniform(1.0, 200.0);
    const double s = std::exp(rng.uniform(-4.0, 4.0));
    const double f = rng.uniform(0.0, 1.0);
    const double denom = s * s * s * s / v;
    cols.src.push_back(0);
    cols.dst.push_back(i + 1);
    cols.default_mean.push_back(50.0 + rng.uniform(-8.0, 8.0) * s);
    cols.default_var.push_back(f * s * s);
    cols.default_dof_denom.push_back(f * f * denom);
    cols.alternate_mean.push_back(50.0);
    cols.alternate_var.push_back((1.0 - f) * s * s);
    cols.alternate_dof_denom.push_back((1.0 - f) * (1.0 - f) * denom);
    cols.significance.push_back(
        static_cast<std::int8_t>(SignificanceClass::kUnclassified));
  }
  for (const double confidence : {0.90, 0.95, 0.99}) {
    expect_verdicts_match_ttest(cols, confidence,
                                "conf " + std::to_string(confidence));
  }
}

TEST(Confidence, VerdictsMatchTTestOnCatalogDatasets) {
  meas::Catalog catalog{meas::CatalogConfig{.seed = 1999, .scale = 0.05}};
  std::size_t rows = 0;
  for (const std::string& name : meas::Catalog::dataset_names()) {
    const meas::Dataset& ds = catalog.by_name(name);
    // TCP transfer datasets carry bandwidth, which has no significance test.
    if (ds.kind == meas::MeasurementKind::kTcpTransfer) continue;
    const PathTable table = PathTable::build(ds, test::min_samples(5));
    for (const Metric metric : {Metric::kRtt, Metric::kLoss}) {
      for (const int hops : {1, 0}) {
        AnalyzerOptions opt;
        opt.metric = metric;
        opt.max_intermediate_hosts = hops;
        const ResultColumns cols =
            from_pairs(analyze_alternate_paths(table, opt), metric);
        for (const double confidence : {0.90, 0.95, 0.99}) {
          rows += expect_verdicts_match_ttest(
              cols, confidence,
              name + " " + metric_name(metric) + " hops " +
                  std::to_string(hops) + " conf " +
                  std::to_string(confidence));
        }
      }
    }
  }
  EXPECT_GT(rows, 1000u);
}

TEST(Confidence, EmptyInputHandled) {
  const auto tally = classify_significance(ResultColumns{});
  EXPECT_EQ(tally.pairs, 0u);
  EXPECT_TRUE(confidence_cdf(ResultColumns{}).empty());
}

}  // namespace
}  // namespace pathsel::core
