#include "stats/ttest.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "stats/tdist.h"
#include "util/expect.h"

namespace pathsel::stats {

namespace {

// The inputs both tests decide from, computed in one place so the verdict
// path and the half-width path cannot differ by a rounding.
struct WelchTerms {
  double difference = 0.0;  // default mean - alternate mean
  double var = 0.0;         // variance of the difference
  double dof = 0.0;         // Welch-Satterthwaite, floored at 1
  double p = 0.0;           // two-sided quantile level
};

WelchTerms welch_terms(const MeanEstimate& default_path,
                       const MeanEstimate& alternate, double confidence) {
  PATHSEL_EXPECT(confidence > 0.0 && confidence < 1.0,
                 "confidence must be in (0,1)");
  WelchTerms w;
  w.difference = default_path.mean - alternate.mean;
  w.var = default_path.var_of_mean + alternate.var_of_mean;
  const double dof_denom = default_path.dof_denom + alternate.dof_denom;
  w.dof = dof_denom > 0.0 ? w.var * w.var / dof_denom : 1.0;
  w.dof = std::max(w.dof, 1.0);
  w.p = 1.0 - (1.0 - confidence) / 2.0;
  return w;
}

// No variance at all: both paths were perfectly consistent.  With equal
// means (the loss-rate zero/zero case) the difference is exactly zero.
Significance zero_variance_verdict(double difference) {
  if (difference == 0.0) return Significance::kZero;
  return difference > 0.0 ? Significance::kBetter : Significance::kWorse;
}

// An overflowed variance (samples near DBL_MAX) leaves var or dof infinite
// or NaN; no interval can be formed, and the t CDF would abort on it.
bool undefined_interval(const WelchTerms& w) {
  return !std::isfinite(w.var) || !std::isfinite(w.dof);
}

}  // namespace

TTestResult welch_ttest(const MeanEstimate& default_path,
                        const MeanEstimate& alternate,
                        double confidence) noexcept {
  const WelchTerms w = welch_terms(default_path, alternate, confidence);
  TTestResult r;
  r.difference = w.difference;
  if (w.var <= 0.0) {
    r.verdict = zero_variance_verdict(w.difference);
    return r;
  }
  r.dof = w.dof;
  if (undefined_interval(w)) {
    r.half_width = std::numeric_limits<double>::infinity();
    r.verdict = Significance::kIndeterminate;
    return r;
  }

  r.half_width = student_t_quantile(w.p, w.dof) * std::sqrt(w.var);

  if (r.difference - r.half_width > 0.0) {
    r.verdict = Significance::kBetter;
  } else if (r.difference + r.half_width < 0.0) {
    r.verdict = Significance::kWorse;
  } else {
    r.verdict = Significance::kIndeterminate;
  }
  return r;
}

Significance welch_verdict(const MeanEstimate& default_path,
                           const MeanEstimate& alternate,
                           double confidence) noexcept {
  const WelchTerms w = welch_terms(default_path, alternate, confidence);
  if (w.var <= 0.0) return zero_variance_verdict(w.difference);
  if (undefined_interval(w)) return Significance::kIndeterminate;

  const double t_obs = std::fabs(w.difference) / std::sqrt(w.var);
  const double cdf = student_t_cdf(t_obs, w.dof);
  if (cdf > w.p + kWelchVerdictBand) {
    return w.difference > 0.0 ? Significance::kBetter : Significance::kWorse;
  }
  if (cdf < w.p - kWelchVerdictBand) return Significance::kIndeterminate;
  return welch_ttest(default_path, alternate, confidence).verdict;
}

const char* to_string(Significance s) noexcept {
  switch (s) {
    case Significance::kBetter: return "better";
    case Significance::kWorse: return "worse";
    case Significance::kIndeterminate: return "indeterminate";
    case Significance::kZero: return "zero";
  }
  return "?";
}

}  // namespace pathsel::stats
