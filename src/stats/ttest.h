// Welch's t-test between composed mean estimates.
//
// Tables 2 and 3 of the paper classify each host pair by whether the
// difference between the default path's mean and the best alternate path's
// mean is significantly above zero, below zero, or indeterminate at the 95%
// confidence level; loss rate adds an "is zero" class for pairs with no
// measured losses on either path.
#pragma once

#include "stats/summary.h"

namespace pathsel::stats {

enum class Significance {
  kBetter,         // alternate significantly better (default - alternate > 0)
  kWorse,          // alternate significantly worse
  kIndeterminate,  // confidence interval crosses zero
  kZero,           // both estimates exactly zero (loss-rate-only class)
};

struct TTestResult {
  double difference = 0.0;  // default mean - alternate mean
  double half_width = 0.0;  // t[.975; v] * stddev of the difference
  double dof = 0.0;
  Significance verdict = Significance::kIndeterminate;
};

/// Classifies `default_path - alternate` at the given confidence level
/// (default 95%).  Both estimates must come from MeanEstimate composition so
/// variance and Welch-Satterthwaite degrees of freedom are propagated.
/// A non-finite variance or dof (samples whose variance overflows) yields
/// kIndeterminate with half_width = +inf: no interval can be formed.
[[nodiscard]] TTestResult welch_ttest(const MeanEstimate& default_path,
                                      const MeanEstimate& alternate,
                                      double confidence = 0.95) noexcept;

/// Half-width of the guard band around p = 1 - (1 - confidence)/2 inside
/// which welch_verdict defers to welch_ttest.  Outside it, one CDF value and
/// the bisected quantile q agree on which side of q the observed t lies:
/// the bisection stops once its bracket is below 1e-12 * (1 + |q|) and the t
/// density is at most 0.4, so the CDF moves by under 4e-13 * (1 + |q|)
/// across it (< 3e-11 even at q = 63.7, the 0.995 quantile at one dof);
/// each CDF evaluation carries the continued fraction's 3e-14 relative
/// tolerance plus a few ulps of rounding.  1e-9 sits well above both, and
/// still holds almost no real pairs.
inline constexpr double kWelchVerdictBand = 1e-9;

/// welch_ttest(default_path, alternate, confidence).verdict, without the
/// quantile: one student_t_cdf evaluation at t_obs = |difference| / sqrt(var)
/// is compared with p.  Above p + kWelchVerdictBand the sign of the
/// difference decides (kBetter/kWorse); below p - kWelchVerdictBand the
/// interval crosses zero (kIndeterminate); inside the band the answer is
/// welch_ttest's own.  The zero-variance and non-finite cases are
/// welch_ttest's too, so the verdict is identical for every input.
[[nodiscard]] Significance welch_verdict(const MeanEstimate& default_path,
                                         const MeanEstimate& alternate,
                                         double confidence = 0.95) noexcept;

[[nodiscard]] const char* to_string(Significance s) noexcept;

}  // namespace pathsel::stats
