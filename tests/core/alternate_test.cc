#include "core/alternate.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/result_columns.h"
#include "test_util.h"

namespace pathsel::core {
namespace {

using test::add_invocation;
using test::add_invocations;
using test::make_dataset;

// Triangle: direct 0-1 slow (100 ms), detour 0-2-1 fast (30 + 30 ms).
PathTable triangle_table() {
  auto ds = make_dataset(3);
  add_invocations(ds, 0, 1, 100.0, 5);
  add_invocations(ds, 0, 2, 30.0, 5);
  add_invocations(ds, 2, 1, 30.0, 5);
  return PathTable::build(ds, test::min_samples(1));
}

TEST(Alternate, FindsObviousDetour) {
  const ResultColumns results = from_pairs(
      analyze_alternate_paths(triangle_table(), AnalyzerOptions{}),
      Metric::kRtt);
  // All three pairs have alternates (the triangle is 2-connected).
  ASSERT_EQ(results.size(), 3u);
  std::size_t r01 = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results.src[i] == 0 && results.dst[i] == 1) r01 = i;
  }
  EXPECT_DOUBLE_EQ(results.default_value[r01], 100.0);
  EXPECT_DOUBLE_EQ(results.alternate_value[r01], 60.0);
  ASSERT_EQ(results.hop_count[r01], 1);
  EXPECT_EQ(results.via_of(r01)[0], 2);
  EXPECT_DOUBLE_EQ(results.improvement(r01), 40.0);
  EXPECT_NEAR(results.ratio(r01), 100.0 / 60.0, 1e-12);
}

TEST(Alternate, DetourWorseForGoodPairs) {
  const auto results =
      analyze_alternate_paths(triangle_table(), AnalyzerOptions{});
  for (const auto& r : results) {
    if (r.a == topo::HostId{0} && r.b == topo::HostId{2}) {
      // Alternate 0-1-2 costs 130; direct is 30.
      EXPECT_DOUBLE_EQ(r.alternate_value, 130.0);
      EXPECT_GT(r.alternate_value, r.default_value);
    }
  }
}

TEST(Alternate, PairWithNoAlternateOmitted) {
  auto ds = make_dataset(3);
  add_invocations(ds, 0, 1, 100.0, 5);
  add_invocations(ds, 0, 2, 30.0, 5);
  // No 2-1 edge: removing 0-1 disconnects the pair.
  const auto table = PathTable::build(ds, test::min_samples(1));
  const auto results = analyze_alternate_paths(table, AnalyzerOptions{});
  for (const auto& r : results) {
    EXPECT_FALSE(r.a == topo::HostId{0} && r.b == topo::HostId{1});
  }
}

TEST(Alternate, MultiHopAlternateFound) {
  // Chain detour: 0-1 direct 100; 0-2 20, 2-3 20, 3-1 20 -> alt 60 via 2,3.
  auto ds = make_dataset(4);
  add_invocations(ds, 0, 1, 100.0, 5);
  add_invocations(ds, 0, 2, 20.0, 5);
  add_invocations(ds, 2, 3, 20.0, 5);
  add_invocations(ds, 3, 1, 20.0, 5);
  const auto table = PathTable::build(ds, test::min_samples(1));
  const auto results = analyze_alternate_paths(table, AnalyzerOptions{});
  for (const auto& r : results) {
    if (r.a == topo::HostId{0} && r.b == topo::HostId{1}) {
      EXPECT_DOUBLE_EQ(r.alternate_value, 60.0);
      ASSERT_EQ(r.via.size(), 2u);
      EXPECT_EQ(r.via[0], topo::HostId{2});
      EXPECT_EQ(r.via[1], topo::HostId{3});
    }
  }
}

TEST(Alternate, HopLimitForcesWorseChoice) {
  // Same chain, but a mediocre one-hop alternative exists: 0-4 45, 4-1 45.
  auto ds = make_dataset(5);
  add_invocations(ds, 0, 1, 100.0, 5);
  add_invocations(ds, 0, 2, 20.0, 5);
  add_invocations(ds, 2, 3, 20.0, 5);
  add_invocations(ds, 3, 1, 20.0, 5);
  add_invocations(ds, 0, 4, 45.0, 5);
  add_invocations(ds, 4, 1, 45.0, 5);
  const auto table = PathTable::build(ds, test::min_samples(1));

  AnalyzerOptions unlimited;
  AnalyzerOptions one_hop;
  one_hop.max_intermediate_hosts = 1;
  for (const auto& r : analyze_alternate_paths(table, unlimited)) {
    if (r.a == topo::HostId{0} && r.b == topo::HostId{1}) {
      EXPECT_DOUBLE_EQ(r.alternate_value, 60.0);
    }
  }
  for (const auto& r : analyze_alternate_paths(table, one_hop)) {
    if (r.a == topo::HostId{0} && r.b == topo::HostId{1}) {
      EXPECT_DOUBLE_EQ(r.alternate_value, 90.0);
      EXPECT_EQ(r.via.size(), 1u);
      EXPECT_EQ(r.via[0], topo::HostId{4});
    }
  }
}

TEST(Alternate, LossComposesAsComplementProduct) {
  auto ds = make_dataset(3);
  // Direct 0-1: 50% loss.  Legs: 10% each -> composed 1 - 0.9^2 = 0.19.
  for (int i = 0; i < 10; ++i) {
    add_invocation(ds, 0, 1, {i < 5 ? 10.0 : -1.0, i < 5 ? 10.0 : -1.0,
                              i < 5 ? 10.0 : -1.0});
    add_invocation(ds, 0, 2, {10.0, 10.0, i < 3 ? -1.0 : 10.0});
    add_invocation(ds, 2, 1, {10.0, 10.0, i < 3 ? -1.0 : 10.0});
  }
  const auto table = PathTable::build(ds, test::min_samples(1));
  AnalyzerOptions opt;
  opt.metric = Metric::kLoss;
  for (const auto& r : analyze_alternate_paths(table, opt)) {
    if (r.a == topo::HostId{0} && r.b == topo::HostId{1}) {
      EXPECT_DOUBLE_EQ(r.default_value, 0.5);
      EXPECT_NEAR(r.alternate_value, 1.0 - 0.9 * 0.9, 1e-12);
    }
  }
}

TEST(Alternate, ZeroLossEdgesComposeToZero) {
  auto ds = make_dataset(3);
  for (int i = 0; i < 4; ++i) {
    add_invocation(ds, 0, 1, {10.0, -1.0, 10.0});  // direct has loss
    add_invocation(ds, 0, 2, {10.0, 10.0, 10.0});
    add_invocation(ds, 2, 1, {10.0, 10.0, 10.0});
  }
  const auto table = PathTable::build(ds, test::min_samples(1));
  AnalyzerOptions opt;
  opt.metric = Metric::kLoss;
  for (const auto& r : analyze_alternate_paths(table, opt)) {
    if (r.a == topo::HostId{0} && r.b == topo::HostId{1}) {
      EXPECT_DOUBLE_EQ(r.alternate_value, 0.0);
      EXPECT_LT(r.alternate_value, r.default_value);
    }
  }
}

TEST(Alternate, PropagationMetricUsesTenthPercentile) {
  auto ds = make_dataset(3);
  // Direct: samples 100..109 -> p10 ~ 100.9; legs constant 30.
  for (int i = 0; i < 10; ++i) {
    add_invocation(ds, 0, 1, {100.0 + i, 100.0 + i, 100.0 + i});
    add_invocation(ds, 0, 2, {30.0, 30.0, 30.0});
    add_invocation(ds, 2, 1, {30.0, 30.0, 30.0});
  }
  BuildOptions build;
  build.min_samples = 1;
  build.keep_samples = true;
  const auto table = PathTable::build(ds, build);
  AnalyzerOptions opt;
  opt.metric = Metric::kPropagation;
  for (const auto& r : analyze_alternate_paths(table, opt)) {
    if (r.a == topo::HostId{0} && r.b == topo::HostId{1}) {
      EXPECT_NEAR(r.default_value, 100.9, 0.1);
      EXPECT_DOUBLE_EQ(r.alternate_value, 60.0);
    }
  }
}

TEST(Alternate, EstimatesCarryUncertainty) {
  const auto results =
      analyze_alternate_paths(triangle_table(), AnalyzerOptions{});
  for (const auto& r : results) {
    EXPECT_DOUBLE_EQ(r.default_estimate.mean, r.default_value);
    EXPECT_NEAR(r.alternate_estimate.mean, r.alternate_value, 1e-9);
  }
}

TEST(Alternate, LossEstimateDeltaMethod) {
  auto ds = make_dataset(3);
  for (int i = 0; i < 20; ++i) {
    add_invocation(ds, 0, 1, {i % 2 == 0 ? -1.0 : 10.0, 10.0, 10.0});
    add_invocation(ds, 0, 2, {i % 4 == 0 ? -1.0 : 10.0, 10.0, 10.0});
    add_invocation(ds, 2, 1, {10.0, 10.0, 10.0});
  }
  const auto table = PathTable::build(ds, test::min_samples(1));
  AnalyzerOptions opt;
  opt.metric = Metric::kLoss;
  for (const auto& r : analyze_alternate_paths(table, opt)) {
    if (r.a == topo::HostId{0} && r.b == topo::HostId{1}) {
      // Composed variance must be positive and close to the sum of scaled
      // leg variances.
      EXPECT_GT(r.alternate_estimate.var_of_mean, 0.0);
      EXPECT_LT(r.alternate_estimate.var_of_mean,
                r.default_estimate.var_of_mean * 10.0);
    }
  }
}

TEST(Alternate, OneHopMatchesBruteForce) {
  // Random-ish table; verify Bellman-Ford one-hop equals explicit search.
  auto ds = make_dataset(6);
  int seed = 1;
  for (int i = 0; i < 6; ++i) {
    for (int j = i + 1; j < 6; ++j) {
      const double rtt = 20.0 + (seed = (seed * 31 + 7) % 97);
      add_invocations(ds, i, j, rtt, 3);
    }
  }
  const auto table = PathTable::build(ds, test::min_samples(1));
  AnalyzerOptions opt;
  opt.max_intermediate_hosts = 1;
  const auto results = analyze_alternate_paths(table, opt);
  for (const auto& r : results) {
    double best = std::numeric_limits<double>::infinity();
    for (const auto h : table.hosts()) {
      if (h == r.a || h == r.b) continue;
      const auto* e1 = table.find(r.a, h);
      const auto* e2 = table.find(h, r.b);
      if (e1 == nullptr || e2 == nullptr) continue;
      best = std::min(best, e1->rtt.mean() + e2->rtt.mean());
    }
    EXPECT_NEAR(r.alternate_value, best, 1e-9);
  }
}

TEST(Alternate, EdgeMetricValueDispatch) {
  const auto table = triangle_table();
  const auto* e = table.find(topo::HostId{0}, topo::HostId{1});
  ASSERT_NE(e, nullptr);
  EXPECT_DOUBLE_EQ(edge_metric_value(*e, Metric::kRtt), 100.0);
  EXPECT_DOUBLE_EQ(edge_metric_value(*e, Metric::kLoss), 0.0);
}

TEST(Alternate, ComposeEmptyAborts) {
  EXPECT_DEATH((void)compose_metric({}, Metric::kRtt), "empty");
  EXPECT_DEATH((void)compose_estimate({}, Metric::kRtt), "empty");
}

TEST(Alternate, BoundedSearchRespectsHopBudget) {
  // Regression: the bounded Bellman-Ford used to keep a single parent array
  // across rounds, so a later-round improvement of an intermediate node
  // (here host 2, reached cheaply via 0-1-2) could splice an over-budget
  // path into the one-hop reconstruction — reporting 0-1-2-3 (cost 3) for a
  // sweep whose budget only allows 0-2-3 (cost 51).
  auto ds = make_dataset(4);
  add_invocations(ds, 0, 3, 100.0, 5);
  add_invocations(ds, 0, 1, 1.0, 5);
  add_invocations(ds, 1, 2, 1.0, 5);
  add_invocations(ds, 2, 3, 1.0, 5);
  add_invocations(ds, 0, 2, 50.0, 5);
  const auto table = PathTable::build(ds, test::min_samples(1));

  AnalyzerOptions one_hop;
  one_hop.max_intermediate_hosts = 1;
  one_hop.kernel = Kernel::kSearch;
  for (const auto& r : analyze_alternate_paths(table, one_hop)) {
    if (r.a == topo::HostId{0} && r.b == topo::HostId{3}) {
      EXPECT_DOUBLE_EQ(r.alternate_value, 51.0);
      ASSERT_EQ(r.via.size(), 1u);
      EXPECT_EQ(r.via[0], topo::HostId{2});
    }
  }

  AnalyzerOptions two_hop;
  two_hop.max_intermediate_hosts = 2;
  for (const auto& r : analyze_alternate_paths(table, two_hop)) {
    if (r.a == topo::HostId{0} && r.b == topo::HostId{3}) {
      EXPECT_DOUBLE_EQ(r.alternate_value, 3.0);
      ASSERT_EQ(r.via.size(), 2u);
      EXPECT_EQ(r.via[0], topo::HostId{1});
      EXPECT_EQ(r.via[1], topo::HostId{2});
    }
  }
}

TEST(Alternate, DenseKernelRequiresOneHop) {
  AnalyzerOptions bad;
  bad.kernel = Kernel::kDense;  // max_intermediate_hosts left unbounded
  EXPECT_DEATH((void)analyze_alternate_paths(triangle_table(), bad),
               "max_intermediate_hosts");
}

}  // namespace
}  // namespace pathsel::core
