#include "core/path_table.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace pathsel::core {
namespace {

using test::add_invocation;
using test::add_invocations;
using test::make_dataset;

TEST(PathTable, ComputesPerPathMeans) {
  auto ds = make_dataset(2);
  add_invocation(ds, 0, 1, {10.0, 20.0, 30.0});
  add_invocation(ds, 0, 1, {40.0, 50.0, 60.0});
  BuildOptions opt;
  opt.min_samples = 1;
  const auto table = PathTable::build(ds, opt);
  ASSERT_EQ(table.edges().size(), 1u);
  const PathEdge& e = table.edges()[0];
  EXPECT_DOUBLE_EQ(e.rtt.mean(), 35.0);
  EXPECT_EQ(e.rtt.count(), 6);
  EXPECT_EQ(e.invocations, 2);
  EXPECT_DOUBLE_EQ(e.loss.mean(), 0.0);
}

TEST(PathTable, CountsLossIndicators) {
  auto ds = make_dataset(2);
  add_invocation(ds, 0, 1, {10.0, -1.0, 30.0});  // one lost sample
  add_invocation(ds, 0, 1, {10.0, 20.0, 30.0});
  BuildOptions opt;
  opt.min_samples = 1;
  const auto table = PathTable::build(ds, opt);
  const PathEdge& e = table.edges()[0];
  EXPECT_EQ(e.loss.count(), 6);
  EXPECT_NEAR(e.loss.mean(), 1.0 / 6.0, 1e-12);
  EXPECT_EQ(e.rtt.count(), 5);
}

TEST(PathTable, FirstSampleLossHeuristic) {
  auto ds = make_dataset(2);
  ds.first_sample_loss_only = true;
  add_invocation(ds, 0, 1, {10.0, -1.0, -1.0});  // losses on samples 2, 3
  add_invocation(ds, 0, 1, {-1.0, 20.0, 30.0});  // loss on sample 1
  BuildOptions opt;
  opt.min_samples = 1;
  const auto table = PathTable::build(ds, opt);
  const PathEdge& e = table.edges()[0];
  // Only first samples count: one loss out of two.
  EXPECT_EQ(e.loss.count(), 2);
  EXPECT_DOUBLE_EQ(e.loss.mean(), 0.5);
  // RTT still uses every successful sample.
  EXPECT_EQ(e.rtt.count(), 3);
}

TEST(PathTable, MergesDirectionsIntoUndirectedEdge) {
  auto ds = make_dataset(2);
  add_invocation(ds, 0, 1, {10.0, 10.0, 10.0});
  add_invocation(ds, 1, 0, {30.0, 30.0, 30.0});
  BuildOptions opt;
  opt.min_samples = 1;
  const auto table = PathTable::build(ds, opt);
  ASSERT_EQ(table.edges().size(), 1u);
  EXPECT_DOUBLE_EQ(table.edges()[0].rtt.mean(), 20.0);
  EXPECT_EQ(table.find(topo::HostId{0}, topo::HostId{1}),
            table.find(topo::HostId{1}, topo::HostId{0}));
}

TEST(PathTable, MinSamplesFilter) {
  auto ds = make_dataset(3);
  add_invocations(ds, 0, 1, 10.0, 30);
  add_invocations(ds, 0, 2, 10.0, 29);
  BuildOptions opt;
  opt.min_samples = 30;
  const auto table = PathTable::build(ds, opt);
  EXPECT_EQ(table.edges().size(), 1u);
  EXPECT_NE(table.find(topo::HostId{0}, topo::HostId{1}), nullptr);
  EXPECT_EQ(table.find(topo::HostId{0}, topo::HostId{2}), nullptr);
}

TEST(PathTable, IncompleteMeasurementsIgnored) {
  auto ds = make_dataset(2);
  add_invocation(ds, 0, 1, {10.0, 10.0, 10.0});
  meas::Measurement failed;
  failed.src = topo::HostId{0};
  failed.dst = topo::HostId{1};
  failed.completed = false;
  ds.measurements.push_back(failed);
  BuildOptions opt;
  opt.min_samples = 1;
  const auto table = PathTable::build(ds, opt);
  EXPECT_EQ(table.edges()[0].invocations, 1);
}

TEST(PathTable, FilterCallbackApplied) {
  auto ds = make_dataset(2);
  add_invocation(ds, 0, 1, {10.0, 10.0, 10.0}, SimTime::start());
  add_invocation(ds, 0, 1, {90.0, 90.0, 90.0},
                 SimTime::start() + Duration::hours(5));
  BuildOptions opt;
  opt.min_samples = 1;
  opt.filter = [](const meas::Measurement& m) {
    return m.when < SimTime::start() + Duration::hours(1);
  };
  const auto table = PathTable::build(ds, opt);
  EXPECT_DOUBLE_EQ(table.edges()[0].rtt.mean(), 10.0);
}

TEST(PathTable, KeepSamplesRetainsRawValues) {
  auto ds = make_dataset(2);
  add_invocation(ds, 0, 1, {10.0, 20.0, 30.0});
  BuildOptions opt;
  opt.min_samples = 1;
  opt.keep_samples = true;
  const auto table = PathTable::build(ds, opt);
  EXPECT_EQ(table.edges()[0].rtt_samples.size(), 3u);
}

TEST(PathTable, PropagationIsTenthPercentile) {
  auto ds = make_dataset(2);
  meas::Measurement m;
  for (int i = 1; i <= 33; ++i) {
    add_invocation(ds, 0, 1,
                   {static_cast<double>(i), static_cast<double>(i + 33),
                    static_cast<double>(i + 66)});
  }
  BuildOptions opt;
  opt.min_samples = 1;
  opt.keep_samples = true;
  const auto table = PathTable::build(ds, opt);
  // Samples are 1..99; the 10th percentile ~ 10.8.
  EXPECT_NEAR(table.edges()[0].propagation_ms(), 10.8, 0.5);
}

TEST(PathTable, PropagationWithoutSamplesAborts) {
  auto ds = make_dataset(2);
  add_invocation(ds, 0, 1, {10.0, 20.0, 30.0});
  BuildOptions opt;
  opt.min_samples = 1;
  const auto table = PathTable::build(ds, opt);
  EXPECT_DEATH((void)table.edges()[0].propagation_ms(), "retained");
}

TEST(PathTable, AllSamplesLostPathDropped) {
  auto ds = make_dataset(2);
  add_invocation(ds, 0, 1, {-1.0, -1.0, -1.0});
  add_invocation(ds, 0, 1, {-1.0, -1.0, -1.0});
  BuildOptions opt;
  opt.min_samples = 1;
  const auto table = PathTable::build(ds, opt);
  EXPECT_TRUE(table.edges().empty());
}

TEST(PathTable, AsPathStored) {
  auto ds = make_dataset(2);
  add_invocation(ds, 0, 1, {10.0, 10.0, 10.0});
  ds.measurements.back().path = test::intern_path(ds.paths, {3, 1});
  BuildOptions opt;
  opt.min_samples = 1;
  const auto table = PathTable::build(ds, opt);
  ASSERT_EQ(table.edges()[0].as_path.size(), 2u);
  EXPECT_EQ(table.edges()[0].as_path[0], topo::AsId{3});
}

TEST(PathTable, TcpDatasetPopulatesBandwidth) {
  auto ds = make_dataset(2);
  ds.kind = meas::MeasurementKind::kTcpTransfer;
  test::add_transfer(ds, 0, 1, 100.0, 80.0, 0.01);
  test::add_transfer(ds, 0, 1, 200.0, 90.0, 0.02);
  BuildOptions opt;
  opt.min_samples = 1;
  const auto table = PathTable::build(ds, opt);
  const PathEdge& e = table.edges()[0];
  EXPECT_DOUBLE_EQ(e.bandwidth.mean(), 150.0);
  EXPECT_DOUBLE_EQ(e.tcp_rtt.mean(), 85.0);
  EXPECT_NEAR(e.tcp_loss.mean(), 0.015, 1e-12);
}

TEST(PathTable, WithoutHostsRemovesEdges) {
  auto ds = make_dataset(3);
  add_invocations(ds, 0, 1, 10.0, 2);
  add_invocations(ds, 0, 2, 10.0, 2);
  add_invocations(ds, 1, 2, 10.0, 2);
  BuildOptions opt;
  opt.min_samples = 1;
  const auto table = PathTable::build(ds, opt);
  EXPECT_EQ(table.edges().size(), 3u);
  const topo::HostId removed[] = {topo::HostId{2}};
  const auto reduced = table.without_hosts(removed);
  EXPECT_EQ(reduced.edges().size(), 1u);
  EXPECT_EQ(reduced.hosts().size(), 2u);
  EXPECT_EQ(reduced.find(topo::HostId{0}, topo::HostId{2}), nullptr);
  EXPECT_NE(reduced.find(topo::HostId{0}, topo::HostId{1}), nullptr);
}

TEST(PathTable, WithoutHostsReindexesConsistently) {
  // Removing hosts from the middle of the host list shifts every later
  // index; the reduced table's host_index/find/edge order must all agree
  // with the surviving data (the dense kernel leans on this mapping).
  auto ds = make_dataset(5);
  add_invocations(ds, 0, 1, 10.0, 2);
  add_invocations(ds, 0, 2, 11.0, 2);
  add_invocations(ds, 1, 3, 12.0, 2);
  add_invocations(ds, 2, 4, 13.0, 2);
  add_invocations(ds, 3, 4, 14.0, 2);
  const auto table = PathTable::build(ds, test::min_samples(1));
  ASSERT_EQ(table.edges().size(), 5u);

  const topo::HostId removed[] = {topo::HostId{1}, topo::HostId{3}};
  const auto reduced = table.without_hosts(removed);

  // Hosts: original order minus the removed ones; host_index matches the
  // position in hosts() for every survivor.
  ASSERT_EQ(reduced.hosts().size(), 3u);
  EXPECT_EQ(reduced.hosts()[0], topo::HostId{0});
  EXPECT_EQ(reduced.hosts()[1], topo::HostId{2});
  EXPECT_EQ(reduced.hosts()[2], topo::HostId{4});
  for (std::size_t i = 0; i < reduced.hosts().size(); ++i) {
    EXPECT_EQ(reduced.host_index(reduced.hosts()[i]), i);
  }

  // Edges: only those between survivors, stats intact, lookup symmetric.
  ASSERT_EQ(reduced.edges().size(), 2u);
  const auto* e02 = reduced.find(topo::HostId{0}, topo::HostId{2});
  ASSERT_NE(e02, nullptr);
  EXPECT_EQ(e02, reduced.find(topo::HostId{2}, topo::HostId{0}));
  EXPECT_DOUBLE_EQ(e02->rtt.mean(), 11.0);
  const auto* e24 = reduced.find(topo::HostId{2}, topo::HostId{4});
  ASSERT_NE(e24, nullptr);
  EXPECT_DOUBLE_EQ(e24->rtt.mean(), 13.0);
  EXPECT_EQ(reduced.find(topo::HostId{0}, topo::HostId{1}), nullptr);
  EXPECT_EQ(reduced.find(topo::HostId{3}, topo::HostId{4}), nullptr);

  // Every surviving edge's endpoints resolve through host_index.
  for (const auto& e : reduced.edges()) {
    EXPECT_LT(reduced.host_index(e.a), reduced.hosts().size());
    EXPECT_LT(reduced.host_index(e.b), reduced.hosts().size());
  }

  // Removing nothing is the identity on hosts and edges.
  const auto same = table.without_hosts({});
  EXPECT_EQ(same.hosts().size(), table.hosts().size());
  EXPECT_EQ(same.edges().size(), table.edges().size());

  // Removed hosts are gone from the index entirely.
  EXPECT_DEATH((void)reduced.host_index(topo::HostId{1}), "not in path table");
}

TEST(PathTable, HostIndexAbortsOnUnknown) {
  auto ds = make_dataset(2);
  add_invocation(ds, 0, 1, {1.0, 1.0, 1.0});
  const auto table = PathTable::build(ds, test::min_samples(1));
  EXPECT_DEATH((void)table.host_index(topo::HostId{9}), "not in path table");
}

}  // namespace
}  // namespace pathsel::core
