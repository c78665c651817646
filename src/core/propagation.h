// Congestion vs. propagation delay (§7.2, Figures 15/16).
//
// Propagation delay is estimated as the 10th percentile of a path's RTT
// samples (robust to route changes contaminating the minimum).  Figure 15
// reruns the alternate-path analysis with propagation delay as the metric
// and overlays it on the mean-RTT CDF.  Figure 16 decomposes, for the
// alternates chosen by mean RTT, the total improvement into its propagation
// and queueing components, classifying each pair into the paper's six
// qualitative groups around the axes and the y = x line.
#pragma once

#include <array>
#include <vector>

#include "core/alternate.h"
#include "core/path_table.h"
#include "core/result_columns.h"

namespace pathsel::core {

struct PropagationPoint {
  double total_diff = 0.0;  // default mean RTT - best alternate mean RTT
  double prop_diff = 0.0;   // default propagation - alternate propagation
  int group = 0;            // 1..6 (paper's Figure 16 groups)
};

struct PropagationAnalysis {
  /// Alternates chosen (and judged) by propagation delay — Figure 15.
  ResultColumns propagation_results;
  /// Alternates chosen by mean RTT — the baseline CDF overlaid in Figure 15.
  ResultColumns rtt_results;
  /// Per-pair decomposition of the mean-RTT alternates — Figure 16.
  std::vector<PropagationPoint> scatter;
  std::array<std::size_t, 6> group_counts{};
};

/// Classifies a (total, propagation) difference pair into groups 1..6.
[[nodiscard]] int classify_group(double total_diff, double prop_diff) noexcept;

/// Requires a table built with keep_samples.
[[nodiscard]] PropagationAnalysis analyze_propagation(const PathTable& table);

}  // namespace pathsel::core
