// Host availability over a trace.
//
// Public traceroute servers come and go: some are solid for weeks, others
// are down for large fractions of a trace.  This is why the paper's Table 1
// coverage is 86-100% rather than 100%, and why it cautions that the data
// "under-represent events correlated with host and server connectivity".
// Availability is modeled as alternating up/down intervals drawn
// deterministically from a seed; a measurement attempt fails when either
// endpoint is down.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/fault.h"
#include "topo/ids.h"
#include "util/rng.h"
#include "util/sim_time.h"

namespace pathsel::meas {

struct AvailabilityConfig {
  std::uint64_t seed = 7;
  /// Fraction of hosts that are down for the entire trace (listed as a
  /// traceroute server but never responsive); the main source of Table 1's
  /// coverage gaps.
  double dead_fraction = 0.0;
  /// Fraction of hosts that are flaky at all.
  double flaky_fraction = 0.20;
  /// For flaky hosts: long-run fraction of time spent down, drawn uniformly
  /// from this range.
  double min_down_fraction = 0.15;
  double max_down_fraction = 0.90;
  /// Mean length of one up interval for flaky hosts.
  Duration mean_up = Duration::hours(30);
};

class HostAvailability {
 public:
  HostAvailability(const AvailabilityConfig& config, std::size_t host_count,
                   Duration trace_duration);

  [[nodiscard]] bool is_up(topo::HostId host, SimTime t) const;

  /// Long-run down fraction configured for a host (0 for solid hosts).
  [[nodiscard]] double down_fraction(topo::HostId host) const;

  /// The down intervals of one host: sorted by begin, disjoint, and
  /// contained in [trace start, trace start + trace_duration()).
  [[nodiscard]] const std::vector<sim::FaultInterval>& down_intervals(
      topo::HostId host) const;

  [[nodiscard]] Duration trace_duration() const noexcept {
    return trace_duration_;
  }
  [[nodiscard]] std::size_t host_count() const noexcept { return down_.size(); }

  /// Layers an extra outage onto a host (e.g. a fault-plan crash episode);
  /// the interval is clamped to the trace window and merged with any
  /// overlapping intervals so the invariants above keep holding.
  void add_downtime(topo::HostId host, SimTime begin, SimTime end);

 private:
  std::vector<std::vector<sim::FaultInterval>> down_;  // per host, sorted
  std::vector<double> down_fraction_;
  Duration trace_duration_;
};

}  // namespace pathsel::meas
