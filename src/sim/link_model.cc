#include "sim/link_model.h"

#include <algorithm>

namespace pathsel::sim {

double LinkModel::service_time_ms(const topo::Link& link) const noexcept {
  // bits / (Mbps * 1000 bits-per-ms) = ms.
  return config_.packet_bits / (link.capacity_mbps * 1000.0);
}

double LinkModel::mean_queueing_delay_ms(const topo::Link& link,
                                         double utilization) const noexcept {
  const double u = std::clamp(utilization, 0.0, 0.985);
  const double burst = link.kind == topo::LinkKind::kPublicExchange
                           ? config_.exchange_burst_multiplier
                           : config_.burst_multiplier;
  return service_time_ms(link) * burst * u / (1.0 - u);
}

double LinkModel::loss_probability(const topo::Link& link,
                                   double utilization) const noexcept {
  const double u = std::clamp(utilization, 0.0, 1.0);
  const double knee = config_.loss_knee_utilization;
  double congestion_loss = 0.0;
  if (u > knee) {
    const double x = (u - knee) / (1.0 - knee);
    congestion_loss = config_.loss_at_saturation * x * x * x;
  }
  // Shared exchange fabrics drop somewhat more aggressively when saturated.
  if (link.kind == topo::LinkKind::kPublicExchange) congestion_loss *= 1.5;
  return std::min(0.5, config_.base_loss + congestion_loss);
}

}  // namespace pathsel::sim
