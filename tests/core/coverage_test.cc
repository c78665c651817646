#include "core/coverage.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace pathsel::core {
namespace {

// Triangle with enough samples everywhere plus one thin extra edge and one
// recorded failure.
meas::Dataset triangle_dataset() {
  auto ds = test::make_dataset(4);
  test::add_invocations(ds, 0, 1, 10.0, 5);
  test::add_invocations(ds, 1, 2, 20.0, 5);
  test::add_invocations(ds, 0, 2, 50.0, 5);
  test::add_invocations(ds, 0, 3, 30.0, 1);  // under the min_samples filter
  meas::Measurement failed;
  failed.src = topo::HostId{1};
  failed.dst = topo::HostId{3};
  failed.completed = false;
  failed.failure = meas::FailureReason::kEndpointDown;
  failed.attempts = 3;
  ds.measurements.push_back(failed);
  return ds;
}

TEST(Coverage, SummarizeCounts) {
  const auto ds = triangle_dataset();
  const auto table = PathTable::build(ds, test::min_samples(2));
  const CoverageSummary c = summarize_coverage(ds, table);
  EXPECT_EQ(c.hosts, 4u);
  EXPECT_EQ(c.potential_pairs, 12u);
  EXPECT_EQ(c.attempted_pairs, 5u);  // 4 completed pairs + the failed one
  EXPECT_EQ(c.covered_pairs, 4u);
  EXPECT_EQ(c.measured_edges, 4u);
  EXPECT_EQ(c.usable_edges, 3u);  // 0-3 has one sample, filtered out
  EXPECT_EQ(c.under_sampled_edges, 1u);
  EXPECT_EQ(c.completed, 16u);
  EXPECT_EQ(c.attempts, 16u + 3u);  // the failure spent three attempts
  EXPECT_EQ(c.failures_by_reason[static_cast<std::size_t>(
                meas::FailureReason::kEndpointDown)],
            1u);
  EXPECT_NEAR(c.coverage(), 4.0 / 12.0, 1e-12);
  // The analysis split is only known to analyze_with_coverage.
  EXPECT_EQ(c.analyzable_edges, 0u);
  EXPECT_EQ(c.disconnected_edges, 0u);
}

TEST(Coverage, AnalyzeFillsDegradationSplit) {
  const auto ds = triangle_dataset();
  const auto result = analyze_with_coverage(ds, test::min_samples(2), {});
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  const DegradedAnalysis& analysis = result.value();
  // All three triangle edges have a two-hop alternate.
  EXPECT_EQ(analysis.columns.size(), 3u);
  EXPECT_EQ(analysis.coverage.analyzable_edges, 3u);
  EXPECT_EQ(analysis.coverage.disconnected_edges, 0u);
}

TEST(Coverage, DisconnectedEdgesCounted) {
  // A triangle plus an isolated pendant edge 3-4: removing 3-4 disconnects
  // the pair, so it shows up as disconnected rather than analyzable.
  auto ds = test::make_dataset(5);
  test::add_invocations(ds, 0, 1, 10.0, 5);
  test::add_invocations(ds, 1, 2, 20.0, 5);
  test::add_invocations(ds, 0, 2, 50.0, 5);
  test::add_invocations(ds, 3, 4, 40.0, 5);
  const auto result = analyze_with_coverage(ds, test::min_samples(2), {});
  ASSERT_TRUE(result.is_ok());
  EXPECT_EQ(result.value().coverage.usable_edges, 4u);
  EXPECT_EQ(result.value().coverage.analyzable_edges, 3u);
  EXPECT_EQ(result.value().coverage.disconnected_edges, 1u);
}

TEST(Coverage, TooFewHostsIsInsufficientData) {
  const auto ds = test::make_dataset(1);
  const auto result = analyze_with_coverage(ds, test::min_samples(1), {});
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kInsufficientData);
}

TEST(Coverage, EmptyPathGraphIsInsufficientData) {
  auto ds = test::make_dataset(4);
  test::add_invocations(ds, 0, 1, 10.0, 2);
  const auto result = analyze_with_coverage(ds, test::min_samples(30), {});
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kInsufficientData);
  EXPECT_FALSE(result.status().message().empty());
}

TEST(Coverage, TcpDatasetIsInvalidForProbeMetrics) {
  auto ds = test::make_dataset(3);
  ds.kind = meas::MeasurementKind::kTcpTransfer;
  test::add_transfer(ds, 0, 1, 100.0, 50.0, 0.01);
  const auto result = analyze_with_coverage(ds, test::min_samples(1), {});
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kInvalidArgument);
}

TEST(Coverage, PropagationWithoutSamplesIsInvalid) {
  const auto ds = triangle_dataset();
  AnalyzerOptions opts;
  opts.metric = Metric::kPropagation;
  const auto result = analyze_with_coverage(ds, test::min_samples(2), opts);
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kInvalidArgument);
}

// min_samples = 1 plus the D2-style first-sample-only loss filter leaves an
// edge whose loss summary holds a single sample; the estimate falls back to
// a zero-variance point instead of aborting in MeanEstimate::from_summary.
TEST(Coverage, SingleSampleLossEdgesAnalyzeWithoutAborting) {
  auto ds = test::make_dataset(3);
  ds.first_sample_loss_only = true;
  test::add_invocations(ds, 0, 1, 10.0, 3);
  test::add_invocations(ds, 1, 2, 20.0, 3);
  test::add_invocation(ds, 0, 2, {50.0, 50.0, 50.0});  // loss.count() == 1
  AnalyzerOptions opts;
  opts.metric = Metric::kLoss;
  const auto result = analyze_with_coverage(ds, test::min_samples(1), opts);
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_EQ(result.value().columns.size(), 3u);
  for (const double alternate : result.value().columns.alternate_value) {
    EXPECT_GE(alternate, 0.0);
  }
}

TEST(Coverage, StatusToStringNamesTheCode) {
  const Status s = Status::error(ErrorCode::kInsufficientData, "too sparse");
  EXPECT_NE(s.to_string().find("insufficient"), std::string::npos);
  EXPECT_NE(s.to_string().find("too sparse"), std::string::npos);
  EXPECT_EQ(Status::ok().to_string(), "ok");
}

}  // namespace
}  // namespace pathsel::core
