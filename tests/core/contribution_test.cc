#include "core/contribution.h"

#include <gtest/gtest.h>

#include "core/figures.h"
#include "test_util.h"

namespace pathsel::core {
namespace {

using test::add_invocations;
using test::make_dataset;

// Five hosts: host 4 is a "magic" relay giving every pair a fast detour;
// all direct paths among 0..3 are slow.
PathTable star_table() {
  auto ds = make_dataset(5);
  for (int i = 0; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) {
      add_invocations(ds, i, j, 100.0, 3);
    }
    add_invocations(ds, i, 4, 20.0, 3);
  }
  return PathTable::build(ds, test::min_samples(1));
}

TEST(Contribution, MagicRelayDominatesContributions) {
  const auto contributions = improvement_contributions(star_table(), Metric::kRtt);
  ASSERT_EQ(contributions.size(), 5u);
  // Sorted ascending: the last entry must be host 4 with by far the largest
  // normalized contribution.
  EXPECT_EQ(contributions.back().host, topo::HostId{4});
  EXPECT_GT(contributions.back().normalized, 300.0);
}

TEST(Contribution, NormalizedMeanIsHundred) {
  const auto contributions = improvement_contributions(star_table(), Metric::kRtt);
  double total = 0.0;
  for (const auto& c : contributions) total += c.normalized;
  EXPECT_NEAR(total / static_cast<double>(contributions.size()), 100.0, 1e-9);
}

TEST(Contribution, UniformTriangleSharesEqually) {
  auto ds = make_dataset(3);
  add_invocations(ds, 0, 1, 100.0, 3);
  add_invocations(ds, 0, 2, 100.0, 3);
  add_invocations(ds, 1, 2, 100.0, 3);
  const auto table = PathTable::build(ds, test::min_samples(1));
  const auto contributions = improvement_contributions(table, Metric::kRtt);
  // No alternate is superior (all detours cost 200 > 100): zero everywhere.
  for (const auto& c : contributions) {
    EXPECT_DOUBLE_EQ(c.normalized, 0.0);
  }
}

TEST(Contribution, GreedyRemovalFindsMagicRelay) {
  const auto result = remove_top_hosts(star_table(), Metric::kRtt, 1);
  ASSERT_EQ(result.removed.size(), 1u);
  EXPECT_EQ(result.removed[0], topo::HostId{4});
}

TEST(Contribution, RemovalShiftsCdfLeft) {
  const auto result = remove_top_hosts(star_table(), Metric::kRtt, 1);
  const double before = fraction_improved(result.full_results);
  const double after = fraction_improved(result.reduced_results);
  // Six of the ten pairs (those among hosts 0..3) had the fast relay.
  EXPECT_NEAR(before, 0.6, 0.01);
  EXPECT_LT(after, 0.1);  // gone after removal
}

TEST(Contribution, RemovingFromRobustTableChangesLittle) {
  // Detours are plentiful and interchangeable: hosts on a line where
  // near-neighbor paths (distance <= 2) are fast and far paths are slow.
  // Distant pairs chain through many alternative relays, so removing any
  // single host barely moves the CDF — the paper's Figure 12 conclusion.
  auto ds = make_dataset(10);
  for (int i = 0; i < 10; ++i) {
    for (int j = i + 1; j < 10; ++j) {
      const double rtt = (j - i <= 2) ? 20.0 : 100.0;
      add_invocations(ds, i, j, rtt, 3);
    }
  }
  const auto table = PathTable::build(ds, test::min_samples(1));
  const auto result = remove_top_hosts(table, Metric::kRtt, 1);
  const double before = fraction_improved(result.full_results);
  const double after = fraction_improved(result.reduced_results);
  EXPECT_GT(before, 0.4);
  EXPECT_GT(after, 0.4);
  EXPECT_NEAR(before, after, 0.15);
}

TEST(Contribution, ZeroRemovalKeepsTable) {
  const auto result = remove_top_hosts(star_table(), Metric::kRtt, 0);
  EXPECT_TRUE(result.removed.empty());
  EXPECT_EQ(result.full_results.size(), result.reduced_results.size());
}

TEST(Contribution, RemovalSetsCarryTheAnalyzerMetric) {
  const auto result = remove_top_hosts(star_table(), Metric::kLoss, 1);
  EXPECT_EQ(result.full_results.metric, Metric::kLoss);
  EXPECT_EQ(result.reduced_results.metric, Metric::kLoss);
}

TEST(Contribution, NegativeCountAborts) {
  EXPECT_DEATH((void)remove_top_hosts(star_table(), Metric::kRtt, -1),
               "non-negative");
}

}  // namespace
}  // namespace pathsel::core
