// CDF builders for the paper's figures.
//
// Every figure in §5/§6 is a CDF across host pairs.  These helpers map pair
// results to the exact quantities plotted: absolute improvement (default −
// alternate for RTT/loss; alternate − default for bandwidth, so positive is
// always "alternate superior") and relative improvement (>1 means the
// alternate is superior).
//
// Each sweep takes a `threads` knob (<= 0 means util::default_thread_count(),
// 1 forces the serial path); per-pair values are computed in fixed chunks and
// merged in index order, so every thread count produces bit-identical CDFs.
#pragma once

#include <span>

#include "core/alternate.h"
#include "core/bandwidth.h"
#include "core/result_columns.h"
#include "stats/cdf.h"

namespace pathsel::core {

// RTT and loss results are read as ResultColumns only: a caller holding a
// sweep's PairResult vector transposes it once with from_pairs and its real
// metric.  Bandwidth keeps its own record, BandwidthPairResult.

[[nodiscard]] stats::EmpiricalCdf improvement_cdf(const ResultColumns& results,
                                                  int threads = 0);

[[nodiscard]] stats::EmpiricalCdf ratio_cdf(const ResultColumns& results,
                                            int threads = 0);

[[nodiscard]] stats::EmpiricalCdf bandwidth_improvement_cdf(
    std::span<const BandwidthPairResult> results, int threads = 0);

[[nodiscard]] stats::EmpiricalCdf bandwidth_ratio_cdf(
    std::span<const BandwidthPairResult> results, int threads = 0);

/// Fraction of pairs for which the best alternate is strictly better.
[[nodiscard]] double fraction_improved(const ResultColumns& results,
                                       int threads = 0);
[[nodiscard]] double fraction_improved(
    std::span<const BandwidthPairResult> results, int threads = 0);

}  // namespace pathsel::core
