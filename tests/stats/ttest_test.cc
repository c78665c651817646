#include "stats/ttest.h"

#include <cmath>
#include <limits>
#include <utility>

#include <gtest/gtest.h>

#include "stats/tdist.h"

#include "util/rng.h"

namespace pathsel::stats {
namespace {

MeanEstimate estimate_of(std::initializer_list<double> values) {
  Summary s;
  for (const double v : values) s.add(v);
  return MeanEstimate::from_summary(s);
}

MeanEstimate noisy_estimate(double mean, double sd, int n, std::uint64_t seed) {
  Rng rng{seed};
  Summary s;
  for (int i = 0; i < n; ++i) s.add(rng.normal(mean, sd));
  return MeanEstimate::from_summary(s);
}

TEST(WelchTTest, ClearlySeparatedMeansAreSignificant) {
  const auto a = noisy_estimate(100.0, 5.0, 50, 1);
  const auto b = noisy_estimate(50.0, 5.0, 50, 2);
  const auto r = welch_ttest(a, b);
  EXPECT_EQ(r.verdict, Significance::kBetter);
  EXPECT_NEAR(r.difference, 50.0, 3.0);
  EXPECT_GT(r.half_width, 0.0);
}

TEST(WelchTTest, ReversedMeansAreWorse) {
  const auto a = noisy_estimate(50.0, 5.0, 50, 3);
  const auto b = noisy_estimate(100.0, 5.0, 50, 4);
  EXPECT_EQ(welch_ttest(a, b).verdict, Significance::kWorse);
}

TEST(WelchTTest, OverlappingMeansIndeterminate) {
  const auto a = noisy_estimate(100.0, 30.0, 10, 5);
  const auto b = noisy_estimate(101.0, 30.0, 10, 6);
  EXPECT_EQ(welch_ttest(a, b).verdict, Significance::kIndeterminate);
}

TEST(WelchTTest, ZeroVarianceEqualMeansIsZeroClass) {
  // Loss-rate case: no losses at all on either path.
  const auto a = estimate_of({0.0, 0.0, 0.0});
  const auto b = estimate_of({0.0, 0.0, 0.0});
  const auto r = welch_ttest(a, b);
  EXPECT_EQ(r.verdict, Significance::kZero);
  EXPECT_DOUBLE_EQ(r.difference, 0.0);
}

TEST(WelchTTest, ZeroVarianceDifferentMeans) {
  const auto a = estimate_of({2.0, 2.0, 2.0});
  const auto b = estimate_of({1.0, 1.0, 1.0});
  EXPECT_EQ(welch_ttest(a, b).verdict, Significance::kBetter);
  EXPECT_EQ(welch_ttest(b, a).verdict, Significance::kWorse);
}

TEST(WelchTTest, HalfWidthMatchesClassicFormula) {
  // Equal-variance equal-n case: dof ~= 2n - 2, hw = t * sqrt(2 s^2 / n).
  Summary s1;
  Summary s2;
  Rng rng{7};
  for (int i = 0; i < 30; ++i) {
    s1.add(rng.normal(10.0, 2.0));
    s2.add(rng.normal(10.0, 2.0));
  }
  const auto r = welch_ttest(MeanEstimate::from_summary(s1),
                             MeanEstimate::from_summary(s2));
  EXPECT_NEAR(r.dof, 58.0, 6.0);
  const double expected_hw =
      student_t_quantile(0.975, r.dof) *
      std::sqrt(s1.variance_of_mean() + s2.variance_of_mean());
  EXPECT_NEAR(r.half_width, expected_hw, 1e-9);
}

TEST(WelchTTest, WiderConfidenceWidensInterval) {
  const auto a = noisy_estimate(10.0, 3.0, 20, 8);
  const auto b = noisy_estimate(11.0, 3.0, 20, 9);
  const auto r95 = welch_ttest(a, b, 0.95);
  const auto r99 = welch_ttest(a, b, 0.99);
  EXPECT_GT(r99.half_width, r95.half_width);
}

TEST(WelchTTest, CompositeAlternateEstimate) {
  // The alternate estimate of a two-hop path: the t-test consumes the summed
  // uncertainty exactly like a directly measured path.
  const auto leg1 = noisy_estimate(30.0, 4.0, 40, 10);
  const auto leg2 = noisy_estimate(35.0, 4.0, 40, 11);
  const auto direct = noisy_estimate(100.0, 4.0, 40, 12);
  const auto r = welch_ttest(direct, leg1 + leg2);
  EXPECT_EQ(r.verdict, Significance::kBetter);
  EXPECT_NEAR(r.difference, 35.0, 4.0);
}

TEST(WelchTTest, NonFiniteVarianceIsIndeterminate) {
  // A 1e300 sample overflows the variance to inf, and the Welch dof to
  // inf/inf = NaN; no interval exists, and the t CDF must never see it.
  const auto huge = estimate_of({10.0, 12.0, 1e300});
  const auto calm = estimate_of({10.0, 11.0, 12.0});
  ASSERT_TRUE(std::isinf(huge.var_of_mean));
  // A finite variance whose squared dof numerator overflows: dof = inf.
  const MeanEstimate wide{.mean = 5.0, .var_of_mean = 1e200,
                          .dof_denom = 1e-10};
  for (const auto& [d, a] : {std::pair{huge, calm}, std::pair{calm, huge},
                             std::pair{wide, calm}, std::pair{huge, huge}}) {
    const TTestResult r = welch_ttest(d, a);
    EXPECT_EQ(r.verdict, Significance::kIndeterminate);
    EXPECT_EQ(r.half_width, std::numeric_limits<double>::infinity());
    EXPECT_EQ(welch_verdict(d, a), Significance::kIndeterminate);
  }
}

// The verdict-only test must agree with the bisected interval everywhere:
// over dof 1-200, three confidence levels, both signs, and differences
// spread across the whole range where the verdict flips.
TEST(WelchVerdict, MatchesTTestOverSeededCorpus) {
  Rng rng{2024};
  std::size_t decisive = 0;
  std::size_t indeterminate = 0;
  for (const double confidence : {0.90, 0.95, 0.99}) {
    for (int i = 0; i < 2000; ++i) {
      // Split a total variance s^2 and a target dof v between the two
      // estimates, so dof = s^4 / (dof_denom_d + dof_denom_a) ~= v.
      const double v = rng.uniform(1.0, 200.0);
      const double s = std::exp(rng.uniform(-5.0, 5.0));
      const double f = rng.uniform(0.0, 1.0);
      const double g = rng.uniform(0.0, 1.0);
      const double denom = s * s * s * s / v;
      const double t = rng.uniform(-8.0, 8.0);
      const MeanEstimate d{.mean = 100.0 + t * s, .var_of_mean = f * s * s,
                           .dof_denom = g * denom};
      const MeanEstimate a{.mean = 100.0, .var_of_mean = (1.0 - f) * s * s,
                           .dof_denom = (1.0 - g) * denom};
      const Significance want = welch_ttest(d, a, confidence).verdict;
      ASSERT_EQ(welch_verdict(d, a, confidence), want)
          << "v=" << v << " s=" << s << " t=" << t << " conf=" << confidence;
      ++(want == Significance::kIndeterminate ? indeterminate : decisive);
    }
  }
  // The corpus straddles the boundary rather than sitting on one side.
  EXPECT_GT(decisive, 1000u);
  EXPECT_GT(indeterminate, 1000u);
}

// Observed t within ~1e-11 relative of the bisected quantile: the one CDF
// value lands inside the guard band, so welch_verdict must take its
// welch_ttest fallback, and the fallback's answer is the verdict.
TEST(WelchVerdict, QuantileEdgeTakesTheFallback) {
  std::size_t in_band = 0;
  std::size_t cases = 0;
  for (const double confidence : {0.90, 0.95, 0.99}) {
    const double p = 1.0 - (1.0 - confidence) / 2.0;
    for (const double v : {1.0, 2.0, 3.5, 7.0, 19.0, 60.0, 200.0}) {
      const MeanEstimate alternate{.mean = 0.0, .var_of_mean = 0.0,
                                   .dof_denom = 0.0};
      MeanEstimate d{.mean = 1.0, .var_of_mean = 1.0, .dof_denom = 1.0 / v};
      const double dof = welch_ttest(d, alternate, confidence).dof;
      const double q = student_t_quantile(p, dof);
      for (int k = -10; k <= 10; ++k) {
        for (const double sign : {1.0, -1.0}) {
          d.mean = sign * q * (1.0 + k * 1e-12);
          ++cases;
          // var is exactly 1, so t_obs is |mean|.
          if (std::fabs(student_t_cdf(std::fabs(d.mean), dof) - p) <=
              kWelchVerdictBand) {
            ++in_band;
          }
          EXPECT_EQ(welch_verdict(d, alternate, confidence),
                    welch_ttest(d, alternate, confidence).verdict)
              << "v=" << v << " k=" << k << " conf=" << confidence;
        }
      }
    }
  }
  EXPECT_EQ(in_band, cases);
}

TEST(WelchVerdict, ZeroVarianceMatchesTTest) {
  const auto zero = estimate_of({0.0, 0.0, 0.0});
  const auto two = estimate_of({2.0, 2.0, 2.0});
  EXPECT_EQ(welch_verdict(zero, zero), Significance::kZero);
  EXPECT_EQ(welch_verdict(two, zero), Significance::kBetter);
  EXPECT_EQ(welch_verdict(zero, two), Significance::kWorse);
}

TEST(WelchTTest, SignificanceToString) {
  EXPECT_STREQ(to_string(Significance::kBetter), "better");
  EXPECT_STREQ(to_string(Significance::kWorse), "worse");
  EXPECT_STREQ(to_string(Significance::kIndeterminate), "indeterminate");
  EXPECT_STREQ(to_string(Significance::kZero), "zero");
}

TEST(WelchTTest, InvalidConfidenceAborts) {
  const auto a = estimate_of({1.0, 2.0});
  EXPECT_DEATH((void)welch_ttest(a, a, 1.0), "confidence");
  EXPECT_DEATH((void)welch_verdict(a, a, 0.0), "confidence");
}

}  // namespace
}  // namespace pathsel::stats
