// Deterministic fault injection.
//
// The paper's data was collected against a network that kept failing under
// it: links flapped, the public exchanges had fabric-wide outages, BGP took
// minutes to reconverge (during which probes fell into blackholes or rode
// inflated paths), traceroute servers crashed and rebooted, ICMP
// rate-limiting came in storms, and individual probes hung until the
// five-minute timeout.  A FaultPlan schedules all of those events up front
// from a single seed; a FaultInjector replays the plan against a Network,
// re-resolving host paths as the routing system (belatedly) learns about
// each failure and repair.
//
// Determinism discipline: every fault stream forks from a per-entity seeded
// generator (link index, fabric index, host index), so plans are
// bit-identical across runs, platforms and thread counts, and adding one
// fault category never perturbs another's stream.  A default-constructed or
// zero-intensity plan schedules nothing, and the measurement layer bypasses
// the injector entirely in that case — the no-fault path is a true no-op.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "route/bgp.h"
#include "route/igp.h"
#include "route/path.h"
#include "sim/network.h"
#include "topo/ids.h"
#include "topo/topology.h"
#include "util/sim_time.h"

namespace pathsel::sim {

struct FaultConfig {
  std::uint64_t seed = 1999;

  /// Fraction of links that flap (fail and recover) during the trace.
  double link_flap_fraction = 0.0;
  /// Fraction of public-exchange fabrics that suffer a fabric-wide outage.
  double exchange_outage_fraction = 0.0;
  /// Fraction of hosts with crash/reboot episodes (beyond HostAvailability's
  /// long-run flakiness).
  double host_crash_fraction = 0.0;
  /// Fraction of hosts that suffer ICMP rate-limit storms: windows during
  /// which the host drops repeated probes like a rate-limited server.
  double icmp_storm_fraction = 0.0;
  /// Per-attempt probability that a probe hangs until the timeout,
  /// independent of path state (a wedged traceroute process).
  double probe_stuck_rate = 0.0;

  /// Mean up-time between failures of a flapping link.
  Duration mean_time_between_failures = Duration::days(2);
  /// Mean length of one link outage (2-minute floor applied).
  Duration mean_link_downtime = Duration::hours(2);
  /// Mean length of one exchange-fabric outage (5-minute floor applied).
  Duration mean_fabric_outage = Duration::hours(1);
  /// Mean length of one host crash episode (2-minute floor applied).
  Duration mean_host_outage = Duration::hours(1);
  /// Mean length of one ICMP rate-limit storm (1-minute floor applied).
  Duration mean_storm = Duration::minutes(45);
  /// How long routing keeps using stale state after a failure or repair.
  /// During [failure, failure + reconvergence) paths still cross the dead
  /// link (blackhole); during [repair, repair + reconvergence) routing still
  /// detours around the healthy link (inflated path).
  Duration reconvergence = Duration::minutes(3);

  [[nodiscard]] bool enabled() const noexcept {
    return link_flap_fraction > 0.0 || exchange_outage_fraction > 0.0 ||
           host_crash_fraction > 0.0 || icmp_storm_fraction > 0.0 ||
           probe_stuck_rate > 0.0;
  }

  /// The bench sweep's knob: one number driving every fault category.
  /// `intensity` is the fraction of links/fabrics/hosts affected (0 disables
  /// everything); stuck probes scale at a tenth of it.
  [[nodiscard]] static FaultConfig at_intensity(double intensity,
                                                std::uint64_t seed = 1999);
};

/// A half-open window of simulated time during which something is down.
struct FaultInterval {
  SimTime begin;
  SimTime end;  // exclusive

  friend bool operator==(const FaultInterval&, const FaultInterval&) = default;
};

/// The full fault schedule for one trace, computed up front from the seed.
class FaultPlan {
 public:
  /// An empty plan: no faults, enabled() is false.
  FaultPlan() = default;

  FaultPlan(const FaultConfig& config, const topo::Topology& topology,
            Duration trace_duration);

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] const FaultConfig& config() const noexcept { return config_; }
  [[nodiscard]] Duration trace_duration() const noexcept {
    return trace_duration_;
  }

  /// Physical state: the link is actually dead at t (probes crossing it die).
  [[nodiscard]] bool link_physically_down(topo::LinkId link, SimTime t) const;

  /// Routing's view of the link, lagging physical state by `reconvergence`.
  [[nodiscard]] bool link_routed_down(topo::LinkId link, SimTime t) const;

  [[nodiscard]] bool host_crashed(topo::HostId host, SimTime t) const;
  [[nodiscard]] bool icmp_storm(topo::HostId host, SimTime t) const;

  /// Stuck/timed-out probe, keyed on (seed, src, dst, t) like Network's
  /// probe noise, so the answer is a pure function of the attempt.
  [[nodiscard]] bool probe_stuck(topo::HostId src, topo::HostId dst,
                                 SimTime t) const;

  // --- plan inspection (tests, benches) -------------------------------------
  [[nodiscard]] const std::vector<FaultInterval>& link_down_intervals(
      topo::LinkId link) const;
  [[nodiscard]] const std::vector<FaultInterval>& host_down_intervals(
      topo::HostId host) const;
  [[nodiscard]] const std::vector<FaultInterval>& storm_intervals(
      topo::HostId host) const;

  /// Instants at which routing's view of some link changes, ascending and
  /// deduplicated — the epochs between which routing state is constant.
  [[nodiscard]] const std::vector<SimTime>& routing_transitions() const noexcept {
    return transitions_;
  }

  /// Applies the routing-visible down set at time t to a topology copy.
  void apply_routed_state(topo::Topology& topology, SimTime t) const;

 private:
  FaultConfig config_{};
  bool enabled_ = false;
  Duration trace_duration_{};
  std::vector<std::vector<FaultInterval>> link_down_;  // per link, sorted
  std::vector<std::vector<FaultInterval>> host_down_;  // per host, sorted
  std::vector<std::vector<FaultInterval>> storm_;      // per host, sorted
  std::vector<SimTime> transitions_;
};

/// Replays a FaultPlan against a Network: maintains a topology copy whose
/// down flags track the routing-visible state and rebuilds the IGP/BGP
/// tables at each routing epoch, so measurements resolve their paths the way
/// a (slowly converging) routing system would have.  The BGP tables compute
/// a destination's routes only when an epoch's paths first need them
/// (route/bgp.h).  Queries must arrive in non-decreasing time order —
/// exactly what a campaign's (t, seq) event order produces.
class FaultInjector {
 public:
  FaultInjector(const Network& network, const FaultPlan& plan);

  /// Advances routing state to time t; rebuilds tables when t crosses a
  /// routing transition.  Aborts if t is earlier than a previous call's.
  void advance_to(SimTime t);

  /// Policy-routed path under the current routing state; invalid (and
  /// cached) when routing has no path between the endpoints.  The reference
  /// stays valid until advance_to crosses the next routing transition.
  [[nodiscard]] const route::RouterPath& effective_path(topo::HostId src,
                                                        topo::HostId dst);

  /// True when the path crosses a link that is physically dead at t even
  /// though routing still selects it — the pre-convergence blackhole.
  [[nodiscard]] bool blackholed(const route::RouterPath& path, SimTime t) const;

  /// Routing-table rebuilds performed so far (tests and benches): one per
  /// epoch change, as counted by sim.fault.routing_rebuilds.
  [[nodiscard]] std::size_t rebuild_count() const noexcept { return rebuilds_; }

  /// The inter-transition epoch routing currently sits in: the index of the
  /// next plan transition not yet crossed.  Routed state is a pure function
  /// of this epoch, so a fresh injector advanced to the same simulated time
  /// reproduces the exact routing tables — the property checkpoint/resume
  /// relies on (meas/checkpoint records the epoch to cross-check a resume).
  [[nodiscard]] std::size_t epoch() const noexcept { return next_transition_; }

 private:
  void rebuild();

  const Network* net_;
  const FaultPlan* plan_;
  topo::Topology topo_;  // down flags track the routing-visible state
  std::unique_ptr<route::IgpTables> igp_;
  std::unique_ptr<route::BgpTables> bgp_;
  std::unique_ptr<route::PathResolver> resolver_;
  std::unordered_map<std::uint64_t, route::RouterPath> cache_;
  SimTime now_ = SimTime::start();  // latest time advance_to was given
  std::size_t next_transition_ = 0;
  std::size_t rebuilds_ = 0;
};

}  // namespace pathsel::sim
