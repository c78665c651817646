// Per-link delay and loss models.
//
// A packet crossing a link experiences propagation delay (fixed, from
// geography) plus queueing delay that grows as utilization approaches
// capacity (M/M/1-style u/(1-u) scaling on the link's packet service time,
// with a burstiness multiplier — larger for shared public exchange fabrics,
// which is how the congested-NAP behavior of the era enters the model).
// Loss is negligible at low utilization and rises steeply once queues
// saturate.  These two curves are the mechanism behind the paper's §7.2
// decomposition of round-trip time into propagation and queueing components.
#pragma once

#include "topo/topology.h"

namespace pathsel::sim {

struct LinkModelConfig {
  double packet_bits = 12000.0;      // 1500-byte packets
  double burst_multiplier = 3.0;     // queueing beyond the M/M/1 mean
  double exchange_burst_multiplier = 12.0;  // shared NAP fabrics queue much worse
  double base_loss = 2e-5;           // per-crossing floor (bit errors etc.);
                                     // uncongested paths measure ~zero loss
                                     // over a trace, as in the real datasets
  double loss_knee_utilization = 0.50;  // 90s-era shallow buffers: bursts
                                        // drop packets well below saturation
  double loss_at_saturation = 0.09;  // loss probability as u -> 1
  double router_processing_ms = 0.08;  // per-hop store/forward + lookup cost
};

class LinkModel {
 public:
  explicit LinkModel(LinkModelConfig config) : config_{config} {}

  /// Mean packet service time on the link, milliseconds.
  [[nodiscard]] double service_time_ms(const topo::Link& link) const noexcept;

  /// Mean one-way queueing delay at utilization u, milliseconds.
  [[nodiscard]] double mean_queueing_delay_ms(const topo::Link& link,
                                              double utilization) const noexcept;

  /// Probability that a single crossing drops the packet.
  [[nodiscard]] double loss_probability(const topo::Link& link,
                                        double utilization) const noexcept;

  [[nodiscard]] const LinkModelConfig& config() const noexcept { return config_; }

 private:
  LinkModelConfig config_;
};

}  // namespace pathsel::sim
