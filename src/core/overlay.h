// Overlay routing on top of measured host paths.
//
// The paper's conclusion — a large fraction of default paths can be beaten
// by relaying through another end host — is the founding observation of the
// Detour and RON overlay systems.  OverlayMesh is that system in library
// form: a set of member hosts keeps a full-mesh probe table (exponentially
// weighted moving averages of RTT and loss), and per-flow routing picks the
// direct path or a relayed path, with hysteresis so marginal predictions do
// not cause flapping.  Relays come from the analyzer's hop-bounded search
// (core::shortest_path) over the estimate graph.  evaluate() replays a
// probe/route loop against the simulator and scores decisions with ground
// truth, which is how the ablation bench quantifies probe-interval,
// hysteresis and relay-budget choices.
#pragma once

#include <optional>
#include <vector>

#include "core/alternate.h"
#include "sim/network.h"
#include "stats/summary.h"
#include "topo/ids.h"
#include "util/sim_time.h"

namespace pathsel::core {

struct OverlayConfig {
  /// Relay selection criterion: kRtt or kLoss (kPropagation is not
  /// meaningful for live routing).
  Metric metric = Metric::kRtt;
  /// Maximum relays on an overlay route; 1 is the classic Detour design.
  int max_relays = 1;
  /// Required relative predicted gain before leaving the default path
  /// (0.05 = detour only for a predicted >= 5% improvement).
  double hysteresis = 0.05;
  /// EWMA weight of a new probe sample.
  double ewma_alpha = 0.3;
  /// Interval between full-mesh probe rounds during evaluate().
  Duration probe_interval = Duration::minutes(10);
};

/// One routing decision.
struct OverlayRoute {
  topo::HostId src{};
  topo::HostId dst{};
  std::vector<topo::HostId> relays;  // empty: direct path chosen
  double predicted = 0.0;            // predicted metric of the chosen route
  double predicted_direct = 0.0;     // predicted metric of the direct path

  [[nodiscard]] bool detoured() const noexcept { return !relays.empty(); }
};

/// Result of an evaluate() run.
struct OverlayReport {
  stats::Summary direct_metric;   // ground truth of the default path
  stats::Summary overlay_metric;  // ground truth of the chosen route
  std::size_t decisions = 0;
  std::size_t detoured = 0;

  [[nodiscard]] double detour_fraction() const noexcept {
    return decisions == 0
               ? 0.0
               : static_cast<double>(detoured) / static_cast<double>(decisions);
  }
  /// Mean ground-truth improvement of overlay over direct routing.
  [[nodiscard]] double mean_saving() const noexcept {
    return direct_metric.empty() ? 0.0
                                 : direct_metric.mean() - overlay_metric.mean();
  }
};

class OverlayMesh {
 public:
  /// The mesh members must be measurement hosts of the network.
  OverlayMesh(const sim::Network& network, std::vector<topo::HostId> members,
              const OverlayConfig& config);

  [[nodiscard]] std::span<const topo::HostId> members() const noexcept {
    return members_;
  }

  /// Runs one full-mesh probe round at simulated time `now`, updating the
  /// EWMA link estimates from traceroute results (lost probes update the
  /// loss estimate; RTT updates use the first successful sample).
  void probe(SimTime now);

  /// Current estimate of the metric on the member-to-member path, or
  /// nullopt before any successful probe.
  [[nodiscard]] std::optional<double> estimate(topo::HostId a,
                                               topo::HostId b) const;

  /// Routes a flow with the current probe table.  Requires both endpoints
  /// to be members.  A detour has at most max_relays relays, and
  /// `predicted` composes its legs' estimates.  Falls back to direct when
  /// estimates are missing.
  [[nodiscard]] OverlayRoute route(topo::HostId src, topo::HostId dst) const;

  /// Ground-truth expected metric of a route at time t (RTT in ms, or
  /// round-trip loss probability), from the simulator's internals.
  [[nodiscard]] double ground_truth(const OverlayRoute& route, SimTime t) const;

  /// Probe/route loop over [begin, begin + span): probes every
  /// config.probe_interval, then scores every ordered pair's routing
  /// decision against ground truth.
  [[nodiscard]] OverlayReport evaluate(SimTime begin, Duration span);

 private:
  struct LinkEstimate {
    double rtt_ms = 0.0;
    double loss = 0.0;
    bool valid = false;
  };

  [[nodiscard]] std::size_t index_of(topo::HostId h) const;
  /// Index of the (a, b) estimate; also its edge id in route()'s search.
  [[nodiscard]] std::size_t edge_id(std::size_t a, std::size_t b) const;
  [[nodiscard]] const LinkEstimate& link(std::size_t a, std::size_t b) const;
  [[nodiscard]] LinkEstimate& link(std::size_t a, std::size_t b);
  [[nodiscard]] double metric_of(const LinkEstimate& e) const;
  [[nodiscard]] double compose(double a, double b) const;
  [[nodiscard]] double ground_truth_leg(topo::HostId a, topo::HostId b,
                                        SimTime t) const;

  const sim::Network* net_;
  std::vector<topo::HostId> members_;
  OverlayConfig config_;
  // Directed estimates collapsed to undirected (a < b) like the paper's
  // path graph; stored dense.
  std::vector<LinkEstimate> estimates_;
};

}  // namespace pathsel::core
