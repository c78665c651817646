// Property tests of the alternate-path analyzer over randomized path
// tables: invariants that must hold for any input, regardless of shape.
#include <gtest/gtest.h>

#include "core/alternate.h"
#include "core/path_table.h"
#include "core/result_columns.h"
#include "test_util.h"
#include "util/rng.h"

namespace pathsel::core {
namespace {

// A random complete-ish path table over `hosts` hosts: every pair measured
// with probability `density`, RTTs lognormal, loss occasional.
PathTable random_table(std::uint64_t seed, int hosts, double density) {
  Rng rng{seed};
  auto ds = test::make_dataset(hosts);
  for (int i = 0; i < hosts; ++i) {
    for (int j = i + 1; j < hosts; ++j) {
      if (!rng.bernoulli(density)) continue;
      const double base = rng.lognormal(4.0, 0.6);  // ~30-150 ms
      const double loss_p = rng.bernoulli(0.3) ? rng.uniform(0.0, 0.15) : 0.0;
      for (int k = 0; k < 6; ++k) {
        const double r1 = rng.bernoulli(loss_p) ? -1.0 : base + rng.uniform(0, 10);
        const double r2 = rng.bernoulli(loss_p) ? -1.0 : base + rng.uniform(0, 10);
        const double r3 = rng.bernoulli(loss_p) ? -1.0 : base + rng.uniform(0, 10);
        test::add_invocation(ds, i, j, {r1, r2, r3});
      }
    }
  }
  BuildOptions opt;
  opt.min_samples = 1;
  opt.keep_samples = true;
  return PathTable::build(ds, opt);
}

class AnalyzerSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AnalyzerSweep, AlternateNeverUsesDirectEdge) {
  const auto table = random_table(GetParam(), 10, 0.8);
  for (const auto& r : analyze_alternate_paths(table, {})) {
    // The via chain never degenerates to the direct edge.
    EXPECT_FALSE(r.via.empty());
    for (const auto h : r.via) {
      EXPECT_NE(h, r.a);
      EXPECT_NE(h, r.b);
    }
  }
}

TEST_P(AnalyzerSweep, AlternateValueMatchesViaChain) {
  const auto table = random_table(GetParam(), 10, 0.8);
  for (const auto& r : analyze_alternate_paths(table, {})) {
    std::vector<topo::HostId> chain{r.a};
    chain.insert(chain.end(), r.via.begin(), r.via.end());
    chain.push_back(r.b);
    std::vector<const PathEdge*> edges;
    for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
      const auto* e = table.find(chain[i], chain[i + 1]);
      ASSERT_NE(e, nullptr);
      edges.push_back(e);
    }
    EXPECT_NEAR(compose_metric(edges, Metric::kRtt), r.alternate_value, 1e-9);
  }
}

TEST_P(AnalyzerSweep, NoTwoHopChainBeatsReportedAlternate) {
  // Exhaustive check against all one- and two-intermediate chains.
  const auto table = random_table(GetParam(), 8, 0.9);
  const auto results = analyze_alternate_paths(table, {});
  for (const auto& r : results) {
    for (const auto c1 : table.hosts()) {
      if (c1 == r.a || c1 == r.b) continue;
      const auto* e1 = table.find(r.a, c1);
      if (e1 == nullptr) continue;
      const auto* direct_leg = table.find(c1, r.b);
      if (direct_leg != nullptr) {
        EXPECT_GE(e1->rtt.mean() + direct_leg->rtt.mean(),
                  r.alternate_value - 1e-9);
      }
      for (const auto c2 : table.hosts()) {
        if (c2 == r.a || c2 == r.b || c2 == c1) continue;
        const auto* e2 = table.find(c1, c2);
        const auto* e3 = table.find(c2, r.b);
        if (e2 == nullptr || e3 == nullptr) continue;
        EXPECT_GE(e1->rtt.mean() + e2->rtt.mean() + e3->rtt.mean(),
                  r.alternate_value - 1e-9);
      }
    }
  }
}

TEST_P(AnalyzerSweep, LossAlternateAtLeastMaxLeg) {
  const auto table = random_table(GetParam(), 10, 0.8);
  AnalyzerOptions opt;
  opt.metric = Metric::kLoss;
  for (const auto& r : analyze_alternate_paths(table, opt)) {
    std::vector<topo::HostId> chain{r.a};
    chain.insert(chain.end(), r.via.begin(), r.via.end());
    chain.push_back(r.b);
    double max_leg = 0.0;
    for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
      const auto* e = table.find(chain[i], chain[i + 1]);
      ASSERT_NE(e, nullptr);
      max_leg = std::max(max_leg, e->loss.mean());
    }
    // Independent composition can never fall below the worst leg.
    EXPECT_GE(r.alternate_value, max_leg - 1e-12);
    EXPECT_LE(r.alternate_value, 1.0);
  }
}

TEST_P(AnalyzerSweep, RatioAndImprovementAgreeOnSign) {
  const auto table = random_table(GetParam(), 10, 0.8);
  const ResultColumns results =
      from_pairs(analyze_alternate_paths(table, {}), Metric::kRtt);
  ASSERT_FALSE(results.empty());
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results.improvement(i) > 0.0) {
      EXPECT_GT(results.ratio(i), 1.0);
    } else if (results.improvement(i) < 0.0) {
      EXPECT_LT(results.ratio(i), 1.0);
    }
  }
}

TEST_P(AnalyzerSweep, HopBudgetMonotone) {
  const auto table = random_table(GetParam(), 10, 0.7);
  AnalyzerOptions h1;
  h1.max_intermediate_hosts = 1;
  AnalyzerOptions h2;
  h2.max_intermediate_hosts = 2;
  AnalyzerOptions h3;
  h3.max_intermediate_hosts = 3;
  const auto r1 = analyze_alternate_paths(table, h1);
  const auto r2 = analyze_alternate_paths(table, h2);
  const auto r3 = analyze_alternate_paths(table, h3);
  const auto unlimited = analyze_alternate_paths(table, {});
  // Key results by pair for comparison (hop budgets can change which pairs
  // have any alternate at all).
  auto value = [](const std::vector<PairResult>& rs, topo::HostId a,
                  topo::HostId b) -> double {
    for (const auto& r : rs) {
      if (r.a == a && r.b == b) return r.alternate_value;
    }
    return -1.0;
  };
  for (const auto& r : unlimited) {
    const double v1 = value(r1, r.a, r.b);
    const double v2 = value(r2, r.a, r.b);
    const double v3 = value(r3, r.a, r.b);
    if (v1 >= 0.0 && v2 >= 0.0) {
      EXPECT_LE(v2, v1 + 1e-9);
    }
    if (v2 >= 0.0 && v3 >= 0.0) {
      EXPECT_LE(v3, v2 + 1e-9);
    }
    if (v3 >= 0.0) {
      EXPECT_LE(r.alternate_value, v3 + 1e-9);
    }
  }
}

TEST_P(AnalyzerSweep, DeterministicAcrossRuns) {
  const auto table = random_table(GetParam(), 10, 0.8);
  const auto a = analyze_alternate_paths(table, {});
  const auto b = analyze_alternate_paths(table, {});
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].a, b[i].a);
    EXPECT_EQ(a[i].via, b[i].via);
    EXPECT_DOUBLE_EQ(a[i].alternate_value, b[i].alternate_value);
  }
}

TEST_P(AnalyzerSweep, SparseTablesNeverAbort) {
  const auto table = random_table(GetParam(), 12, 0.15);
  const auto results = analyze_alternate_paths(table, {});
  // Sparse graphs may have few or no alternates; whatever comes back must be
  // internally consistent.
  for (const auto& r : results) {
    EXPECT_GT(r.alternate_value, 0.0);
    EXPECT_NE(r.a, r.b);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnalyzerSweep,
                         ::testing::Values(1, 7, 13, 19, 29, 37, 43, 53, 61,
                                           71));

}  // namespace
}  // namespace pathsel::core
