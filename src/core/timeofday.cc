#include "core/timeofday.h"

namespace pathsel::core {

std::vector<TimeOfDayBin> analyze_by_time_of_day(
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
    BuildOptions build;
    build.min_samples = options.min_samples;
    build.threads = options.threads;
    build.filter = [bin](const meas::Measurement& m) {
      if (m.when.is_weekend() != bin.weekend) return false;
      if (bin.weekend) return true;
      const double h = m.when.hour_of_day();
      return h >= bin.begin_hour && h < bin.end_hour;
    };
    const PathTable table = PathTable::build(dataset, build);
    AnalyzerOptions analyze;
    analyze.metric = options.metric;
    analyze.max_intermediate_hosts = 0;
    analyze.threads = options.threads;
    out.push_back(TimeOfDayBin{
        bin.label,
        from_pairs(analyze_alternate_paths(table, analyze), options.metric)});
  }
  return out;
}

}  // namespace pathsel::core
