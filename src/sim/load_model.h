// Link load as a function of time.
//
// Utilization drives both queueing delay and loss.  Each link's utilization
// at time t is its configured peak-hour mean scaled by a diurnal/weekly
// profile (the Internet is busier during weekday working hours — §6.3 of the
// paper, [TMW97]) and modulated by a deterministic pseudo-random slow
// "weather" field so congestion episodes come and go on ~10-minute scales.
// The field is a pure function of (seed, link, time), so every probe that
// crosses a link at the same instant sees the same congestion — essential
// for the simultaneous-episode dataset (UW4-A).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "topo/topology.h"
#include "util/sim_time.h"

namespace pathsel::sim {

struct LoadModelConfig {
  std::uint64_t seed = 0x10ad;
  /// Diurnal trough-to-peak ratio on weekdays (utilization at night as a
  /// fraction of the peak-hour value).
  double weekday_trough = 0.55;
  /// Weekend utilization relative to the weekday peak.
  double weekend_level = 0.68;
  /// Hour of day (local) at which load peaks.
  double peak_hour = 10.0;
  /// Gaussian width of the daily peak, hours.
  double peak_width_hours = 3.5;
  /// Sigma of the lognormal slow-noise field.
  double weather_sigma = 0.25;
  /// Width of one weather bucket.
  Duration weather_bucket = Duration::minutes(10);
};

/// A bounded, direct-mapped memo of the load field's weather values for one
/// caller.  Each slot holds the exact double the field returns for one
/// (link, bucket) key and is overwritten when another key maps to it, so a
/// memo never changes a result, only how often the field is drawn.  Not
/// thread-safe: every thread (or parallel chunk) owns its own.
class LoadMemo {
 public:
  static constexpr int kSlotBits = 11;  // 2048 slots

  LoadMemo() : slots_(std::size_t{1} << kSlotBits) {}

 private:
  friend class LoadModel;
  struct Slot {
    double value = 0.0;
    std::int64_t bucket = 0;
    std::int32_t link = -1;  // -1: empty
  };
  std::vector<Slot> slots_;
};

class LoadModel {
 public:
  explicit LoadModel(LoadModelConfig config) : config_{config} {}

  /// Diurnal multiplier in (0, 1]; deterministic in t.  The two-argument
  /// form shifts the clock into a link's local timezone.
  [[nodiscard]] double diurnal_factor(SimTime t) const noexcept;
  [[nodiscard]] double diurnal_factor(SimTime t,
                                      double tz_offset_hours) const noexcept;

  /// Instantaneous utilization of a link, in [0.01, 0.985].  A non-null
  /// `memo` serves repeated (link, bucket) draws of the weather field; the
  /// result is bit-identical with or without it.
  [[nodiscard]] double utilization(const topo::Link& link, SimTime t,
                                   LoadMemo* memo = nullptr) const noexcept;

 private:
  [[nodiscard]] double weather(topo::LinkId link, SimTime t,
                               LoadMemo* memo) const noexcept;
  [[nodiscard]] double weather_at_bucket(topo::LinkId link,
                                         std::int64_t bucket) const noexcept;
  [[nodiscard]] double weather_at_bucket(topo::LinkId link, std::int64_t bucket,
                                         LoadMemo* memo) const noexcept;

  LoadModelConfig config_;
};

}  // namespace pathsel::sim
