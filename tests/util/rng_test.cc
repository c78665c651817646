#include "util/rng.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

namespace pathsel {
namespace {

TEST(Splitmix64, DeterministicAndMixing) {
  std::uint64_t s1 = 42;
  std::uint64_t s2 = 42;
  EXPECT_EQ(splitmix64(s1), splitmix64(s2));
  EXPECT_EQ(s1, s2);
  // Consecutive outputs differ.
  std::uint64_t s = 0;
  const auto a = splitmix64(s);
  const auto b = splitmix64(s);
  EXPECT_NE(a, b);
}

TEST(Rng, SameSeedSameStream) {
  Rng a{123};
  Rng b{123};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a{1};
  Rng b{2};
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.next_u64() == b.next_u64() ? 1 : 0;
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng{7};
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng{7};
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanApproximatelyHalf) {
  Rng rng{11};
  double sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Rng, UniformU64CoversRangeWithoutBias) {
  Rng rng{13};
  std::vector<int> counts(10, 0);
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) counts[rng.uniform_u64(10)] += 1;
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), kN / 10.0, kN / 10.0 * 0.1);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng{17};
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng{19};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng{23};
  int hits = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / static_cast<double>(kN), 0.3, 0.01);
}

TEST(Rng, ExponentialMeanAndPositivity) {
  Rng rng{29};
  double sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.exponential(4.0);
    EXPECT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / kN, 4.0, 0.1);
}

TEST(Rng, NormalMeanAndStddev) {
  Rng rng{31};
  double sum = 0.0;
  double sq = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.normal(10.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / kN;
  const double var = sq / kN - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(Rng, LognormalMedian) {
  Rng rng{37};
  std::vector<double> xs;
  for (int i = 0; i < 50001; ++i) xs.push_back(rng.lognormal(1.0, 0.5));
  std::nth_element(xs.begin(), xs.begin() + 25000, xs.end());
  EXPECT_NEAR(xs[25000], std::exp(1.0), 0.05);
}

TEST(Rng, IndexWithinRange) {
  Rng rng{43};
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.index(7), 7u);
}

TEST(Rng, ForkDecorrelatesStreams) {
  Rng parent{47};
  Rng a = parent.fork(0);
  Rng b = parent.fork(1);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.next_u64() == b.next_u64() ? 1 : 0;
  EXPECT_LT(equal, 3);
}

TEST(Rng, ForkIsDeterministic) {
  Rng p1{53};
  Rng p2{53};
  Rng a = p1.fork(9);
  Rng b = p2.fork(9);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng{59};
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  auto copy = v;
  rng.shuffle(std::span<int>{copy});
  std::sort(copy.begin(), copy.end());
  EXPECT_EQ(copy, v);
}

TEST(Rng, ShuffleActuallyShuffles) {
  Rng rng{61};
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[static_cast<std::size_t>(i)] = i;
  auto copy = v;
  rng.shuffle(std::span<int>{copy});
  EXPECT_NE(copy, v);
}

// Property sweep: uniform_u64 never exceeds its bound for many bounds.
class RngBoundSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngBoundSweep, UniformU64StaysBelowBound) {
  Rng rng{GetParam()};
  const std::uint64_t n = GetParam() % 97 + 1;
  for (int i = 0; i < 2000; ++i) EXPECT_LT(rng.uniform_u64(n), n);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngBoundSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89,
                                           144, 233, 377, 610, 987));

}  // namespace
}  // namespace pathsel
