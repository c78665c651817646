// Student-t distribution.
//
// The paper computes per-path 95% confidence intervals as
//   (a_bar - b_bar) +- t[.975; v] * s
// (Jain, "The Art of Computer Systems Performance Analysis").  We implement
// the t CDF through the regularized incomplete beta function (evaluated with
// the Lentz continued fraction, relative tolerance 3e-14) and invert it by
// bisection, which stops once its bracket is below 1e-12 * (1 + |t|).  No
// external dependencies.  Significance verdicts need no quantile: they come
// from one CDF evaluation (stats/ttest.h welch_verdict); only CI half-widths
// pay for the bisection.
#pragma once

namespace pathsel::stats {

/// Regularized incomplete beta function I_x(a, b), x in [0, 1].
[[nodiscard]] double incomplete_beta(double a, double b, double x) noexcept;

/// CDF of Student's t with v > 0 degrees of freedom.
[[nodiscard]] double student_t_cdf(double t, double v) noexcept;

/// Quantile t[p; v]: the value with CDF p, for p in (0, 1).
[[nodiscard]] double student_t_quantile(double p, double v) noexcept;

}  // namespace pathsel::stats
