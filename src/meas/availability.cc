#include "meas/availability.h"

#include <algorithm>

#include "util/expect.h"

namespace pathsel::meas {

HostAvailability::HostAvailability(const AvailabilityConfig& config,
                                   std::size_t host_count,
                                   Duration trace_duration)
    : trace_duration_{trace_duration} {
  PATHSEL_EXPECT(trace_duration > Duration{}, "trace duration must be positive");
  Rng rng{config.seed};
  down_.resize(host_count);
  down_fraction_.assign(host_count, 0.0);

  for (std::size_t h = 0; h < host_count; ++h) {
    Rng host_rng = rng.fork(h);
    if (host_rng.bernoulli(config.dead_fraction)) {
      down_fraction_[h] = 1.0;
      down_[h].push_back(sim::FaultInterval{SimTime::start(),
                                            SimTime::start() + trace_duration});
      continue;
    }
    if (!host_rng.bernoulli(config.flaky_fraction)) continue;
    const double frac = host_rng.uniform(config.min_down_fraction,
                                         config.max_down_fraction);
    down_fraction_[h] = frac;
    // Alternate up/down intervals with exponential lengths whose means hit
    // the target down fraction.
    const double mean_up_s = config.mean_up.total_seconds() * (1.0 - frac);
    const double mean_down_s = config.mean_up.total_seconds() * frac;
    SimTime cursor = SimTime::start();
    const SimTime end = SimTime::start() + trace_duration;
    bool up = host_rng.bernoulli(1.0 - frac);
    while (cursor < end) {
      const double len_s =
          host_rng.exponential(up ? mean_up_s : mean_down_s) + 60.0;
      // Clamp to the trace like add_downtime does; in-trace queries are
      // unaffected, but published intervals must not reach past the end.
      const SimTime next = std::min(cursor + Duration::seconds(len_s), end);
      if (!up) {
        down_[h].push_back(sim::FaultInterval{cursor, next});
      }
      cursor = next;
      up = !up;
    }
  }
}

bool HostAvailability::is_up(topo::HostId host, SimTime t) const {
  PATHSEL_EXPECT(host.index() < down_.size(), "availability: unknown host");
  return !sim::intervals_contain(down_[host.index()], t);
}

double HostAvailability::down_fraction(topo::HostId host) const {
  PATHSEL_EXPECT(host.index() < down_fraction_.size(),
                 "availability: unknown host");
  return down_fraction_[host.index()];
}

const std::vector<sim::FaultInterval>& HostAvailability::down_intervals(
    topo::HostId host) const {
  PATHSEL_EXPECT(host.index() < down_.size(), "availability: unknown host");
  return down_[host.index()];
}

void HostAvailability::add_downtime(topo::HostId host, SimTime begin,
                                    SimTime end) {
  PATHSEL_EXPECT(host.index() < down_.size(), "availability: unknown host");
  const SimTime lo = std::max(begin, SimTime::start());
  const SimTime hi = std::min(end, SimTime::start() + trace_duration_);
  if (!(lo < hi)) return;

  auto& intervals = down_[host.index()];
  intervals.push_back(sim::FaultInterval{lo, hi});
  sim::normalize_intervals(intervals);
}

}  // namespace pathsel::meas
