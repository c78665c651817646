// The simulated network: topology + routing + load, answering probes.
//
// Network is the facade the measurement layer talks to.  It owns the
// topology and routing state (IGP tables precomputed, BGP routes computed
// per destination on first use) and exposes the two measurement
// primitives the paper's datasets were collected with: a traceroute-style
// probe (three RTT samples to the target plus the forward AS path) and a
// TCP bulk transfer (npd/tcpanaly-style, yielding achieved bandwidth and the
// RTT/loss observed during the transfer).  Forward and reverse paths are
// resolved independently, so routing asymmetry — common in the real Internet
// and noted by Paxson — is present in the measurements.
//
// All probe noise is drawn from a generator keyed on (seed, kind, src, dst,
// time), and link congestion is a deterministic field over (link, time), so
// measurements are reproducible and probes sharing a bottleneck at the same
// instant see consistent congestion.
//
// Concurrency.  A const Network may be shared by threads that call only
// traceroute_over / tcp_transfer_over (each with its own ProbeScratch), the
// ground-truth queries (expected_one_way_ms, one_way_loss_probability,
// bottleneck_available_kBps) and the accessors.  default_path is NOT safe
// to call concurrently: it fills a mutable cache.  Nor are traceroute and
// tcp_transfer, which call it.  Resolve paths on one thread first; the
// references default_path returns stay valid for the Network's lifetime, so
// workers can probe over them.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "route/bgp.h"
#include "route/igp.h"
#include "route/path.h"
#include "sim/link_model.h"
#include "sim/load_model.h"
#include "topo/topology.h"
#include "util/rng.h"
#include "util/sim_time.h"

namespace pathsel::sim {

struct ProbeSample {
  bool lost = false;
  double rtt_ms = 0.0;  // meaningful only when !lost
};

struct TracerouteResult {
  bool completed = false;  // control host reached the server and got output
  std::array<ProbeSample, 3> samples{};
  /// Forward AS path: a view of the probed forward path's own, valid while
  /// that path is.
  std::span<const topo::AsId> as_path;
  Duration elapsed;  // wall time the measurement occupied
};

struct TcpTransferResult {
  bool completed = false;
  double bandwidth_kBps = 0.0;
  double rtt_ms = 0.0;     // RTT observed during the transfer (biased by load)
  double loss_rate = 0.0;  // loss observed during the transfer (ditto)
};

struct NetworkConfig {
  std::uint64_t seed = 42;
  LoadModelConfig load{};
  LinkModelConfig link{};
  route::EgressPolicy egress = route::EgressPolicy::kEarlyExit;
  /// Probability a measurement attempt fails outright (server unreachable or
  /// five-minute timeout; §4.2).
  double measurement_failure_rate = 0.015;
  /// Probability an ICMP-rate-limited server drops each reply after the
  /// first sample of an invocation.
  double rate_limit_drop = 0.7;
  /// TCP receiver window for transfer measurements (64 KB for late-90s
  /// stacks, 16 KB for the 1995 npd era).
  double tcp_window_kB = 64.0;
};

/// Reusable per-caller state for the *_over probes: the per-link buffer a
/// traceroute fills and a memo of the load field (sim/load_model.h).  A
/// probe's result is bit-identical whichever scratch it is given, fresh or
/// reused; reuse only saves allocations and load-field draws.  Not
/// thread-safe: every thread, or every parallel chunk, owns its own.
class ProbeScratch {
 private:
  friend class Network;
  struct LinkState {
    double prop_and_proc;
    double mean_queue;
    double loss_prob;
  };
  std::vector<LinkState> links_;
  LoadMemo memo_;
};

class Network {
 public:
  Network(topo::Topology topology, NetworkConfig config);

  [[nodiscard]] const topo::Topology& topology() const noexcept { return topo_; }
  [[nodiscard]] const route::BgpTables& bgp() const noexcept { return *bgp_; }
  [[nodiscard]] const route::IgpTables& igp() const noexcept { return *igp_; }
  [[nodiscard]] const LoadModel& load() const noexcept { return load_; }
  [[nodiscard]] const LinkModel& links() const noexcept { return link_model_; }
  [[nodiscard]] const NetworkConfig& config() const noexcept { return config_; }

  /// The default (policy-routed) forward path between two hosts; cached.
  /// Not thread-safe (see the concurrency note above); the reference stays
  /// valid for the Network's lifetime.
  [[nodiscard]] const route::RouterPath& default_path(topo::HostId src,
                                                      topo::HostId dst) const;

  /// Traceroute measurement over the default paths at simulated time t.
  [[nodiscard]] TracerouteResult traceroute(topo::HostId src, topo::HostId dst,
                                            SimTime t) const;

  /// TCP bulk transfer measurement over the default paths at time t.
  [[nodiscard]] TcpTransferResult tcp_transfer(topo::HostId src,
                                               topo::HostId dst, SimTime t) const;

  /// Traceroute over explicitly supplied forward/reverse paths.  The
  /// collector probes pre-resolved default paths through it, and the fault
  /// injector's re-resolved paths as links fail mid-trace;
  /// `force_rate_limited` emulates an ICMP rate-limit storm at the target.
  /// Probe noise is keyed on (seed, kind, src, dst, t), so probing the
  /// default paths here is bit-identical to traceroute().
  [[nodiscard]] TracerouteResult traceroute_over(
      const route::RouterPath& fwd, const route::RouterPath& rev,
      topo::HostId src, topo::HostId dst, SimTime t, ProbeScratch& scratch,
      bool force_rate_limited = false) const;

  /// TCP transfer over explicitly supplied forward/reverse paths.
  [[nodiscard]] TcpTransferResult tcp_transfer_over(
      const route::RouterPath& fwd, const route::RouterPath& rev,
      topo::HostId src, topo::HostId dst, SimTime t,
      ProbeScratch& scratch) const;

  // --- ground-truth inspection (used by analyses and tests) -----------------

  /// Expected one-way delay of a path at time t (propagation + mean queueing
  /// + processing), without sampling noise.
  [[nodiscard]] double expected_one_way_ms(const route::RouterPath& path,
                                           SimTime t) const;

  /// Probability a packet survives one traversal of the path at time t.
  [[nodiscard]] double one_way_loss_probability(const route::RouterPath& path,
                                                SimTime t) const;

  /// Available bandwidth of the tightest forward link, kB/s, at time t.
  [[nodiscard]] double bottleneck_available_kBps(const route::RouterPath& path,
                                                 SimTime t) const;

 private:
  // One walk over a path's links at time t: the sums behind the three
  // ground-truth queries, accumulated hop by hop in path order.
  struct PathLoad {
    double one_way_ms = 0.0;
    double survive = 1.0;           // probability a packet survives the path
    double bottleneck_mbps = 1e12;  // tightest available capacity

    [[nodiscard]] double bottleneck_kBps() const noexcept {
      return bottleneck_mbps * 1000.0 / 8.0;
    }
  };
  [[nodiscard]] PathLoad path_load(const route::RouterPath& path, SimTime t,
                                   LoadMemo* memo) const;

  [[nodiscard]] Rng probe_rng(std::uint64_t kind, topo::HostId src,
                              topo::HostId dst, SimTime t) const;

  topo::Topology topo_;
  NetworkConfig config_;
  std::unique_ptr<route::IgpTables> igp_;
  std::unique_ptr<route::BgpTables> bgp_;
  std::unique_ptr<route::PathResolver> resolver_;
  LoadModel load_;
  LinkModel link_model_;
  mutable std::unordered_map<std::uint64_t, route::RouterPath> path_cache_;
};

}  // namespace pathsel::sim
