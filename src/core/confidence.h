// Confidence analysis (§6.2: Figures 7/8, Tables 2/3).
//
// For every pair the difference between the default mean and the best
// alternate's composed mean carries a 95% confidence interval computed as in
// the paper ((a - b) ± t[.975; v] · s, Jain's formulation) with
// Welch-Satterthwaite degrees of freedom from the per-edge sample statistics.
// Tables 2/3 classify pairs as better / worse / indeterminate (loss adds a
// "zero" class for pairs that saw no losses at all on either path).
#pragma once

#include <string>
#include <vector>

#include "core/alternate.h"
#include "core/result_columns.h"
#include "stats/ttest.h"

namespace pathsel::core {

struct SignificanceTally {
  std::size_t pairs = 0;
  double better = 0.0;         // fraction of pairs
  double indeterminate = 0.0;
  double worse = 0.0;
  double zero = 0.0;           // loss-rate only
};

/// `threads` <= 0 means util::default_thread_count(); 1 forces the serial
/// path.  Both sweeps are bit-identical for every thread count.  A caller
/// holding a sweep's PairResult vector transposes it once with from_pairs.
[[nodiscard]] SignificanceTally classify_significance(
    const ResultColumns& results, double confidence = 0.95, int threads = 0);

/// As classify_significance(), but polls `cancel` before every chunk and
/// returns its status (kDeadlineExceeded or kCancelled) when tripped.
[[nodiscard]] Result<SignificanceTally> classify_significance_checked(
    const ResultColumns& results, double confidence = 0.95, int threads = 0,
    const CancelToken* cancel = nullptr);

/// The verdict annotate_significance() writes for one pair — exposed so the
/// serve engine can re-classify just the rows an incremental update touched
/// and land on exactly the bytes a full annotate sweep would produce.  It is
/// stats::welch_verdict, so it equals welch_ttest's verdict without paying
/// for the quantile; the tallies count it too.
[[nodiscard]] SignificanceClass classify_pair(const ResultColumns& results,
                                              std::size_t i, double confidence);

/// Fills the significance column with the per-pair classify_pair verdicts the
/// tallies above count (same confidence, same chunking — bit-identical for
/// every thread count).  Serialized files then carry the classification, so
/// a --results-in consumer can re-tally without the estimate sweeps.
[[nodiscard]] Status annotate_significance(ResultColumns& results,
                                           double confidence = 0.95,
                                           int threads = 0,
                                           const CancelToken* cancel = nullptr);

/// One point of the Figure 7/8 plot: the pair's mean difference, its
/// cumulative fraction, and the CI half-width to draw as an error bar.
struct CiPoint {
  double difference = 0.0;
  double fraction = 0.0;
  double half_width = 0.0;
};

/// Points sorted by difference (the CDF), each with its own half-width.
[[nodiscard]] std::vector<CiPoint> confidence_cdf(
    const ResultColumns& results, double confidence = 0.95, int threads = 0);

}  // namespace pathsel::core
