#include "core/timeofday.h"

#include "util/expect.h"

namespace pathsel::core {

std::vector<TimeOfDayBin> analyze_by_time_of_day(
    const meas::Dataset& dataset, const TimeOfDayOptions& options) {
  Result<std::vector<TimeOfDayBin>> out =
      analyze_by_time_of_day_checked(dataset, options);
  PATHSEL_EXPECT(out.is_ok(),
                 "time-of-day analysis cancelled; use "
                 "analyze_by_time_of_day_checked for cancellable runs");
  return std::move(out.value());
}

Result<std::vector<TimeOfDayBin>> analyze_by_time_of_day_checked(
    const meas::Dataset& dataset, const TimeOfDayOptions& options) {
  struct BinDef {
    const char* label;
    double begin_hour;
    double end_hour;
    bool weekend;
  };
  static constexpr BinDef kBins[] = {
      {"weekend", 0.0, 24.0, true},
      {"0000-0600", 0.0, 6.0, false},
      {"0600-1200", 6.0, 12.0, false},
      {"1200-1800", 12.0, 18.0, false},
      {"1800-2400", 18.0, 24.0, false},
  };

  std::vector<TimeOfDayBin> out;
  for (const BinDef& bin : kBins) {
    if (options.cancel != nullptr && options.cancel->cancelled()) {
      return options.cancel->status();
    }
    BuildOptions build;
    build.min_samples = options.min_samples;
    build.threads = options.threads;
    build.cancel = options.cancel;
    build.filter = [bin](const meas::Measurement& m) {
      if (m.when.is_weekend() != bin.weekend) return false;
      if (bin.weekend) return true;
      const double h = m.when.hour_of_day();
      return h >= bin.begin_hour && h < bin.end_hour;
    };
    Result<PathTable> table = PathTable::build_checked(dataset, build);
    if (!table.is_ok()) return table.status();
    AnalyzerOptions analyze;
    analyze.metric = options.metric;
    analyze.max_intermediate_hosts = options.max_intermediate_hosts;
    analyze.threads = options.threads;
    analyze.cancel = options.cancel;
    Result<std::vector<PairResult>> swept =
        analyze_alternate_paths_checked(table.value(), analyze);
    if (!swept.is_ok()) return swept.status();
    out.push_back(
        TimeOfDayBin{bin.label, from_pairs(swept.value(), options.metric)});
  }
  return out;
}

}  // namespace pathsel::core
