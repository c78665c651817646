// Time-of-day breakdown (§6.3, Figures 9/10).
//
// Splits a dataset into the paper's bins — weekend, plus four six-hour
// weekday windows (times are trace-local, i.e. PST) — and reruns the
// alternate-path analysis within each bin.  Splitting reduces per-path
// sample counts, so the minimum-measurement threshold is scaled down
// proportionally (the paper notes the same granularity loss for its Figure
// 10).
#pragma once

#include <string>
#include <vector>

#include "core/alternate.h"
#include "core/result_columns.h"
#include "meas/dataset.h"

namespace pathsel::core {

struct TimeOfDayBin {
  std::string label;
  ResultColumns results;  // tagged with options.metric
};

struct TimeOfDayOptions {
  Metric metric = Metric::kRtt;
  /// Minimum completed measurements per path within one bin.
  int min_samples = 6;
  /// Executor count for the per-bin build/sweep; <= 0 means the default.
  int threads = 0;
};

/// Returns bins in the paper's order: weekend, 0000-0600, 0600-1200,
/// 1200-1800, 1800-2400 (weekdays).
[[nodiscard]] std::vector<TimeOfDayBin> analyze_by_time_of_day(
    const meas::Dataset& dataset, const TimeOfDayOptions& options = {});

}  // namespace pathsel::core
