#include "sim/load_model.h"

#include <algorithm>
#include <cmath>

#include "util/rng.h"

namespace pathsel::sim {

double LoadModel::diurnal_factor(SimTime t) const noexcept {
  return diurnal_factor(t, 0.0);
}

double LoadModel::diurnal_factor(SimTime t, double tz_offset_hours) const noexcept {
  double h = t.hour_of_day() + tz_offset_hours;
  h -= 24.0 * std::floor(h / 24.0);
  // Wrap-around distance to the peak hour.
  double dh = std::fabs(h - config_.peak_hour);
  dh = std::min(dh, 24.0 - dh);
  const double bump =
      std::exp(-dh * dh / (2.0 * config_.peak_width_hours * config_.peak_width_hours));
  if (t.is_weekend()) {
    return config_.weekend_level * (0.8 + 0.2 * bump);
  }
  return config_.weekday_trough + (1.0 - config_.weekday_trough) * bump;
}

double LoadModel::weather_at_bucket(topo::LinkId link,
                                    std::int64_t bucket) const noexcept {
  // Deterministic lognormal sample keyed by (seed, link, bucket).
  std::uint64_t key = config_.seed;
  key ^= 0x9e3779b97f4a7c15ULL +
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(link.value()));
  std::uint64_t state = splitmix64(key) ^ static_cast<std::uint64_t>(bucket);
  Rng rng{splitmix64(state)};
  return rng.lognormal(0.0, config_.weather_sigma);
}

double LoadModel::weather_at_bucket(topo::LinkId link, std::int64_t bucket,
                                    LoadMemo* memo) const noexcept {
  if (memo == nullptr) return weather_at_bucket(link, bucket);
  // Multiplicative hashing spreads neighbouring links and buckets apart.
  const std::uint64_t h =
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(link.value())) *
          0x9e3779b97f4a7c15ULL +
      static_cast<std::uint64_t>(bucket) * 0xc2b2ae3d27d4eb4fULL;
  LoadMemo::Slot& slot = memo->slots_[h >> (64 - LoadMemo::kSlotBits)];
  if (slot.link != link.value() || slot.bucket != bucket) {
    slot = {weather_at_bucket(link, bucket), bucket, link.value()};
  }
  return slot.value;
}

double LoadModel::weather(topo::LinkId link, SimTime t,
                          LoadMemo* memo) const noexcept {
  const std::int64_t bucket_ms = config_.weather_bucket.total_millis();
  const std::int64_t ms = t.since_start().total_millis();
  const std::int64_t bucket = ms / bucket_ms;
  const double frac =
      static_cast<double>(ms - bucket * bucket_ms) / static_cast<double>(bucket_ms);
  // Linear interpolation keeps the field continuous in time.
  const double a = weather_at_bucket(link, bucket, memo);
  const double b = weather_at_bucket(link, bucket + 1, memo);
  return a + frac * (b - a);
}

double LoadModel::utilization(const topo::Link& link, SimTime t,
                              LoadMemo* memo) const noexcept {
  const double u = link.base_utilization *
                   diurnal_factor(t, link.timezone_offset_hours) *
                   weather(link.id, t, memo);
  return std::clamp(u, 0.01, 0.985);
}

}  // namespace pathsel::sim
