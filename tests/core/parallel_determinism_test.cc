// The parallel layer's contract: every analysis sweep produces bit-identical
// results at any thread count.  A generated 64-host world is measured once,
// then every ported sweep is run serially (threads = 1) and at 8 threads and
// compared field-for-field with exact floating-point equality.
#include <gtest/gtest.h>

#include "core/alternate.h"
#include "core/confidence.h"
#include "core/figures.h"
#include "core/path_table.h"
#include "meas/collector.h"
#include "sim/network.h"
#include "topo/generator.h"

namespace pathsel {
namespace {

const meas::Dataset& sixty_four_host_dataset() {
  static const meas::Dataset dataset = [] {
    topo::GeneratorConfig gen;
    gen.seed = 64;
    gen.backbone_count = 4;
    gen.regional_count = 10;
    gen.stub_count = 64;
    gen.hosts_per_stub = 1;
    sim::Network network{topo::generate_topology(gen), sim::NetworkConfig{}};

    std::vector<topo::HostId> hosts;
    for (int i = 0; i < 64; ++i) hosts.push_back(topo::HostId{i});
    meas::CollectorConfig campaign;
    campaign.seed = 8;
    campaign.duration = Duration::hours(12);
    campaign.mean_interval = Duration::seconds(5);
    return meas::collect(network, hosts, campaign, "parallel-determinism");
  }();
  return dataset;
}

core::PathTable build_table(int threads) {
  core::BuildOptions opt;
  opt.min_samples = 1;
  opt.keep_samples = true;
  opt.threads = threads;
  return core::PathTable::build(sixty_four_host_dataset(), opt);
}

void expect_identical_tables(const core::PathTable& serial,
                             const core::PathTable& threaded) {
  ASSERT_EQ(serial.edges().size(), threaded.edges().size());
  for (std::size_t i = 0; i < serial.edges().size(); ++i) {
    const auto& s = serial.edges()[i];
    const auto& t = threaded.edges()[i];
    EXPECT_EQ(s.a, t.a);
    EXPECT_EQ(s.b, t.b);
    EXPECT_EQ(s.invocations, t.invocations);
    EXPECT_EQ(s.rtt.count(), t.rtt.count());
    EXPECT_EQ(s.rtt.mean(), t.rtt.mean());
    EXPECT_EQ(s.loss.count(), t.loss.count());
    EXPECT_EQ(s.loss.mean(), t.loss.mean());
    EXPECT_EQ(s.rtt_samples, t.rtt_samples);
    EXPECT_EQ(s.as_path, t.as_path);
    if (s.rtt.count() > 1) {
      EXPECT_EQ(s.rtt.variance(), t.rtt.variance());
    }
  }
}

void expect_identical_results(const std::vector<core::PairResult>& serial,
                              const std::vector<core::PairResult>& threaded) {
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const auto& s = serial[i];
    const auto& t = threaded[i];
    EXPECT_EQ(s.a, t.a);
    EXPECT_EQ(s.b, t.b);
    EXPECT_EQ(s.default_value, t.default_value);
    EXPECT_EQ(s.alternate_value, t.alternate_value);
    EXPECT_EQ(s.via, t.via);
    EXPECT_EQ(s.default_estimate.mean, t.default_estimate.mean);
    EXPECT_EQ(s.default_estimate.var_of_mean, t.default_estimate.var_of_mean);
    EXPECT_EQ(s.default_estimate.dof_denom, t.default_estimate.dof_denom);
    EXPECT_EQ(s.alternate_estimate.mean, t.alternate_estimate.mean);
    EXPECT_EQ(s.alternate_estimate.var_of_mean,
              t.alternate_estimate.var_of_mean);
    EXPECT_EQ(s.alternate_estimate.dof_denom, t.alternate_estimate.dof_denom);
  }
}

TEST(ParallelDeterminism, DatasetIsLargeEnoughToExerciseThreading) {
  const auto table = build_table(1);
  // The sweeps fall back to the serial path for tiny inputs; this world must
  // be big enough that 8-thread runs actually run threaded.
  EXPECT_GT(table.edges().size(), 64u);
}

TEST(ParallelDeterminism, PathTableBuildMatchesSerial) {
  const auto serial = build_table(1);
  expect_identical_tables(serial, build_table(8));
  expect_identical_tables(serial, build_table(3));
}

TEST(ParallelDeterminism, BestAlternatesMatchSerial) {
  const auto table = build_table(1);
  for (const auto metric : {core::Metric::kRtt, core::Metric::kLoss}) {
    core::AnalyzerOptions serial_opt;
    serial_opt.metric = metric;
    serial_opt.threads = 1;
    core::AnalyzerOptions threaded_opt = serial_opt;
    threaded_opt.threads = 8;
    expect_identical_results(core::analyze_alternate_paths(table, serial_opt),
                             core::analyze_alternate_paths(table, threaded_opt));
  }
}

TEST(ParallelDeterminism, OneHopSweepMatchesSerial) {
  const auto table = build_table(1);
  core::AnalyzerOptions serial_opt;
  serial_opt.max_intermediate_hosts = 1;
  serial_opt.threads = 1;
  core::AnalyzerOptions threaded_opt = serial_opt;
  threaded_opt.threads = 8;
  expect_identical_results(core::analyze_alternate_paths(table, serial_opt),
                           core::analyze_alternate_paths(table, threaded_opt));
}

TEST(ParallelDeterminism, ConfidenceSweepsMatchSerial) {
  const auto table = build_table(1);
  core::AnalyzerOptions opt;
  opt.threads = 1;
  const auto results =
      core::from_pairs(core::analyze_alternate_paths(table, opt), opt.metric);

  core::ResultColumns serial = results;
  core::ResultColumns threaded = results;
  ASSERT_TRUE(core::annotate_significance(serial, 0.95, 1).is_ok());
  ASSERT_TRUE(core::annotate_significance(threaded, 0.95, 8).is_ok());
  EXPECT_EQ(serial.significance, threaded.significance);

  const auto serial_ci = core::confidence_cdf(results, 0.95, 1);
  const auto threaded_ci = core::confidence_cdf(results, 0.95, 8);
  ASSERT_EQ(serial_ci.size(), threaded_ci.size());
  for (std::size_t i = 0; i < serial_ci.size(); ++i) {
    EXPECT_EQ(serial_ci[i].difference, threaded_ci[i].difference);
    EXPECT_EQ(serial_ci[i].fraction, threaded_ci[i].fraction);
    EXPECT_EQ(serial_ci[i].half_width, threaded_ci[i].half_width);
  }
}

TEST(ParallelDeterminism, FigureCdfsMatchSerial) {
  const auto table = build_table(1);
  core::AnalyzerOptions opt;
  opt.threads = 1;
  const auto results =
      core::from_pairs(core::analyze_alternate_paths(table, opt), opt.metric);

  const auto serial_cdf = core::improvement_cdf(results, 1);
  const auto threaded_cdf = core::improvement_cdf(results, 8);
  ASSERT_EQ(serial_cdf.size(), threaded_cdf.size());
  const auto sv = serial_cdf.sorted_values();
  const auto tv = threaded_cdf.sorted_values();
  for (std::size_t i = 0; i < sv.size(); ++i) EXPECT_EQ(sv[i], tv[i]);

  const auto serial_ratio = core::ratio_cdf(results, 1);
  const auto threaded_ratio = core::ratio_cdf(results, 8);
  ASSERT_EQ(serial_ratio.size(), threaded_ratio.size());
  const auto sr = serial_ratio.sorted_values();
  const auto tr = threaded_ratio.sorted_values();
  for (std::size_t i = 0; i < sr.size(); ++i) EXPECT_EQ(sr[i], tr[i]);

  EXPECT_EQ(core::fraction_improved(results, 1),
            core::fraction_improved(results, 8));
}

}  // namespace
}  // namespace pathsel
