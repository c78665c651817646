#include "core/timeofday.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace pathsel::core {
namespace {

using test::add_invocation;
using test::make_dataset;

// Builds a dataset where the 0-1 path is congested only during the weekday
// 0600-1200 window, and the triangle detour 0-2-1 is always fast.
meas::Dataset tod_dataset() {
  auto ds = make_dataset(3);
  for (int day = 0; day < 7; ++day) {
    for (int hour = 0; hour < 24; hour += 2) {
      const SimTime when =
          SimTime::start() + Duration::days(day) + Duration::hours(hour);
      const bool peak =
          !when.is_weekend() && hour >= 6 && hour < 12;
      const double direct = peak ? 120.0 : 50.0;
      add_invocation(ds, 0, 1, {direct, direct, direct}, when);
      add_invocation(ds, 0, 2, {30.0, 30.0, 30.0}, when);
      add_invocation(ds, 2, 1, {30.0, 30.0, 30.0}, when);
    }
  }
  return ds;
}

TEST(TimeOfDay, ProducesPaperBins) {
  TimeOfDayOptions opt;
  opt.min_samples = 1;
  const auto bins = analyze_by_time_of_day(tod_dataset(), opt);
  ASSERT_EQ(bins.size(), 5u);
  EXPECT_EQ(bins[0].label, "weekend");
  EXPECT_EQ(bins[1].label, "0000-0600");
  EXPECT_EQ(bins[2].label, "0600-1200");
  EXPECT_EQ(bins[3].label, "1200-1800");
  EXPECT_EQ(bins[4].label, "1800-2400");
}

TEST(TimeOfDay, PeakWindowShowsLargerImprovement) {
  TimeOfDayOptions opt;
  opt.min_samples = 1;
  const auto bins = analyze_by_time_of_day(tod_dataset(), opt);
  auto improvement_for = [](const TimeOfDayBin& bin) {
    const ResultColumns& results = bin.results;
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (results.src[i] == 0 && results.dst[i] == 1) {
        return results.improvement(i);
      }
    }
    return 0.0;
  };
  const double peak = improvement_for(bins[2]);     // 0600-1200
  const double night = improvement_for(bins[1]);    // 0000-0600
  const double weekend = improvement_for(bins[0]);
  EXPECT_NEAR(peak, 120.0 - 60.0, 1e-9);
  EXPECT_NEAR(night, 50.0 - 60.0, 1e-9);
  EXPECT_NEAR(weekend, 50.0 - 60.0, 1e-9);
  EXPECT_GT(peak, night);
}

TEST(TimeOfDay, BinsPartitionMeasurements) {
  // Count of results cannot exceed the pair count, and every bin analysis
  // uses only its own window (verified indirectly through improvements
  // above); here check all bins produced results.
  TimeOfDayOptions opt;
  opt.min_samples = 1;
  const auto bins = analyze_by_time_of_day(tod_dataset(), opt);
  for (const auto& bin : bins) {
    EXPECT_EQ(bin.results.size(), 3u) << bin.label;
  }
}

TEST(TimeOfDay, MinSamplesDropsSparseBins) {
  auto ds = make_dataset(3);
  // Only two invocations, both on a weekday morning.
  const SimTime when = SimTime::start() + Duration::hours(8);
  add_invocation(ds, 0, 1, {10.0, 10.0, 10.0}, when);
  add_invocation(ds, 0, 2, {10.0, 10.0, 10.0}, when);
  add_invocation(ds, 2, 1, {10.0, 10.0, 10.0}, when);
  TimeOfDayOptions opt;
  opt.min_samples = 1;
  const auto bins = analyze_by_time_of_day(ds, opt);
  EXPECT_TRUE(bins[0].results.empty());   // weekend: nothing measured
  EXPECT_EQ(bins[2].results.size(), 3u);  // 0600-1200 has the data
}

TEST(TimeOfDay, LossMetricSupported) {
  TimeOfDayOptions opt;
  opt.metric = Metric::kLoss;
  opt.min_samples = 1;
  const auto bins = analyze_by_time_of_day(tod_dataset(), opt);
  EXPECT_EQ(bins.size(), 5u);
}

TEST(TimeOfDay, BinsCarryTheAnalyzerMetric) {
  TimeOfDayOptions opt;
  opt.metric = Metric::kLoss;
  opt.min_samples = 1;
  for (const auto& bin : analyze_by_time_of_day(tod_dataset(), opt)) {
    EXPECT_EQ(bin.results.metric, Metric::kLoss) << bin.label;
  }
}

}  // namespace
}  // namespace pathsel::core
