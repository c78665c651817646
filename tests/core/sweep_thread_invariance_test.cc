// Thread-count invariance for the sweeps not covered by
// parallel_determinism_test: episodes, time-of-day, and contribution must
// produce bit-identical results at 1, 4 and 8 executors, and the (serial)
// overlay evaluation must be run-to-run deterministic.  All comparisons use
// exact floating-point equality.
#include <gtest/gtest.h>

#include <vector>

#include "core/contribution.h"
#include "core/episodes.h"
#include "core/overlay.h"
#include "core/path_table.h"
#include "core/result_columns.h"
#include "core/timeofday.h"
#include "meas/collector.h"
#include "sim/network.h"
#include "topo/generator.h"

namespace pathsel::core {
namespace {

sim::Network make_network() {
  topo::GeneratorConfig gen;
  gen.seed = 48;
  gen.backbone_count = 4;
  gen.regional_count = 8;
  gen.stub_count = 48;
  gen.hosts_per_stub = 1;
  return sim::Network{topo::generate_topology(gen), sim::NetworkConfig{}};
}

std::vector<topo::HostId> mesh_hosts(int n) {
  std::vector<topo::HostId> hosts;
  for (int i = 0; i < n; ++i) hosts.push_back(topo::HostId{i});
  return hosts;
}

// Multi-day exponential-pair campaign: feeds time-of-day (weekday/weekend
// bins) and the contribution analyses.
const meas::Dataset& pair_dataset() {
  static const meas::Dataset dataset = [] {
    const sim::Network network = make_network();
    meas::CollectorConfig campaign;
    campaign.seed = 5;
    campaign.duration = Duration::days(3);
    campaign.mean_interval = Duration::seconds(20);
    return meas::collect(network, mesh_hosts(48), campaign,
                         "sweep-invariance-pair");
  }();
  return dataset;
}

// Episode-full-mesh campaign for the simultaneous-measurement analysis.
const meas::Dataset& episode_dataset() {
  static const meas::Dataset dataset = [] {
    const sim::Network network = make_network();
    meas::CollectorConfig campaign;
    campaign.seed = 6;
    campaign.discipline = meas::Discipline::kEpisodeFullMesh;
    campaign.duration = Duration::hours(24);
    campaign.mean_interval = Duration::minutes(45);
    return meas::collect(network, mesh_hosts(24), campaign,
                         "sweep-invariance-episodes");
  }();
  return dataset;
}

// Every column, bit for bit (the serialized image is the columns' bytes).
void expect_identical_results(const ResultColumns& serial,
                              const ResultColumns& threaded) {
  EXPECT_EQ(serialize_result_columns({&serial, 1}),
            serialize_result_columns({&threaded, 1}));
}

void expect_identical_cdfs(const stats::EmpiricalCdf& a,
                           const stats::EmpiricalCdf& b) {
  const auto va = a.sorted_values();
  const auto vb = b.sorted_values();
  ASSERT_EQ(va.size(), vb.size());
  for (std::size_t i = 0; i < va.size(); ++i) EXPECT_EQ(va[i], vb[i]);
}

TEST(SweepThreadInvariance, EpisodesMatchSerial) {
  EpisodeOptions serial_opt;
  serial_opt.threads = 1;
  const auto serial = analyze_episodes(episode_dataset(), serial_opt);
  ASSERT_GT(serial.episodes_analyzed, 0u);
  ASSERT_GT(serial.pair_episode_points, 0u);
  for (const int threads : {4, 8}) {
    EpisodeOptions opt;
    opt.threads = threads;
    const auto threaded = analyze_episodes(episode_dataset(), opt);
    EXPECT_EQ(serial.episodes_analyzed, threaded.episodes_analyzed);
    EXPECT_EQ(serial.pair_episode_points, threaded.pair_episode_points);
    expect_identical_cdfs(serial.pair_averaged, threaded.pair_averaged);
    expect_identical_cdfs(serial.unaveraged, threaded.unaveraged);
  }
}

TEST(SweepThreadInvariance, TimeOfDayMatchesSerial) {
  TimeOfDayOptions serial_opt;
  serial_opt.min_samples = 2;
  serial_opt.threads = 1;
  const auto serial = analyze_by_time_of_day(pair_dataset(), serial_opt);
  ASSERT_EQ(serial.size(), 5u);
  std::size_t total_results = 0;
  for (const auto& bin : serial) total_results += bin.results.size();
  ASSERT_GT(total_results, 0u);
  for (const int threads : {4, 8}) {
    TimeOfDayOptions opt = serial_opt;
    opt.threads = threads;
    const auto threaded = analyze_by_time_of_day(pair_dataset(), opt);
    ASSERT_EQ(serial.size(), threaded.size());
    for (std::size_t b = 0; b < serial.size(); ++b) {
      EXPECT_EQ(serial[b].label, threaded[b].label);
      expect_identical_results(serial[b].results, threaded[b].results);
    }
  }
}

TEST(SweepThreadInvariance, TopHostRemovalMatchesSerial) {
  BuildOptions build;
  build.min_samples = 2;
  build.threads = 1;
  const PathTable table = PathTable::build(pair_dataset(), build);
  ASSERT_GT(table.edges().size(), 0u);
  const auto serial = remove_top_hosts(table, Metric::kRtt, 5, 1);
  ASSERT_FALSE(serial.removed.empty());
  for (const int threads : {4, 8}) {
    const auto threaded = remove_top_hosts(table, Metric::kRtt, 5, threads);
    EXPECT_EQ(serial.removed, threaded.removed);
    expect_identical_results(serial.full_results, threaded.full_results);
    expect_identical_results(serial.reduced_results, threaded.reduced_results);
  }
}

TEST(SweepThreadInvariance, ContributionsUnaffectedByTableBuildThreads) {
  BuildOptions serial_build;
  serial_build.min_samples = 2;
  serial_build.threads = 1;
  const PathTable serial_table = PathTable::build(pair_dataset(), serial_build);
  const auto serial = improvement_contributions(serial_table, Metric::kRtt);
  ASSERT_FALSE(serial.empty());
  for (const int threads : {4, 8}) {
    BuildOptions build = serial_build;
    build.threads = threads;
    const PathTable table = PathTable::build(pair_dataset(), build);
    const auto threaded = improvement_contributions(table, Metric::kRtt);
    ASSERT_EQ(serial.size(), threaded.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i].host, threaded[i].host);
      EXPECT_EQ(serial[i].normalized, threaded[i].normalized);
    }
  }
}

TEST(SweepThreadInvariance, OverlayEvaluationIsRunToRunDeterministic) {
  // The overlay probe/route loop is serial by design; lock in that two
  // evaluations from identically constructed meshes agree bit-for-bit.
  const sim::Network network = make_network();
  const SimTime begin = SimTime::start() + Duration::hours(1);
  OverlayConfig config;
  config.probe_interval = Duration::minutes(30);
  auto run = [&] {
    OverlayMesh mesh{network, mesh_hosts(12), config};
    return mesh.evaluate(begin, Duration::hours(6));
  };
  const OverlayReport a = run();
  const OverlayReport b = run();
  EXPECT_EQ(a.decisions, b.decisions);
  EXPECT_EQ(a.detoured, b.detoured);
  EXPECT_EQ(a.direct_metric.count(), b.direct_metric.count());
  EXPECT_EQ(a.direct_metric.mean(), b.direct_metric.mean());
  EXPECT_EQ(a.overlay_metric.count(), b.overlay_metric.count());
  EXPECT_EQ(a.overlay_metric.mean(), b.overlay_metric.mean());
  ASSERT_GT(a.decisions, 0u);
}

}  // namespace
}  // namespace pathsel::core
