#include "core/overlay.h"

#include <algorithm>
#include <limits>

#include "util/expect.h"

namespace pathsel::core {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

OverlayMesh::OverlayMesh(const sim::Network& network,
                         std::vector<topo::HostId> members,
                         const OverlayConfig& config)
    : net_{&network}, members_{std::move(members)}, config_{config} {
  PATHSEL_EXPECT(members_.size() >= 3, "overlay needs at least three members");
  PATHSEL_EXPECT(config_.metric != Metric::kPropagation,
                 "overlay routes on RTT or loss");
  PATHSEL_EXPECT(config_.max_relays >= 1, "overlay needs a relay budget >= 1");
  PATHSEL_EXPECT(config_.hysteresis >= 0.0, "hysteresis must be non-negative");
  PATHSEL_EXPECT(config_.ewma_alpha > 0.0 && config_.ewma_alpha <= 1.0,
                 "EWMA weight must be in (0, 1]");
  estimates_.resize(members_.size() * members_.size());
}

std::size_t OverlayMesh::index_of(topo::HostId h) const {
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (members_[i] == h) return i;
  }
  PATHSEL_EXPECT(false, "host is not an overlay member");
  return 0;
}

std::size_t OverlayMesh::edge_id(std::size_t a, std::size_t b) const {
  return std::min(a, b) * members_.size() + std::max(a, b);
}

const OverlayMesh::LinkEstimate& OverlayMesh::link(std::size_t a,
                                                   std::size_t b) const {
  return estimates_[edge_id(a, b)];
}

OverlayMesh::LinkEstimate& OverlayMesh::link(std::size_t a, std::size_t b) {
  return estimates_[edge_id(a, b)];
}

void OverlayMesh::probe(SimTime now) {
  const double alpha = config_.ewma_alpha;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    for (std::size_t j = i + 1; j < members_.size(); ++j) {
      const auto result = net_->traceroute(members_[i], members_[j], now);
      if (!result.completed) continue;
      int sent = 0;
      int lost = 0;
      double rtt = -1.0;
      for (const auto& s : result.samples) {
        ++sent;
        if (s.lost) {
          ++lost;
        } else if (rtt < 0.0) {
          rtt = s.rtt_ms;
        }
      }
      LinkEstimate& e = link(i, j);
      const double loss_sample =
          static_cast<double>(lost) / static_cast<double>(sent);
      if (!e.valid) {
        if (rtt < 0.0) continue;  // wait for a round trip before trusting
        e.rtt_ms = rtt;
        e.loss = loss_sample;
        e.valid = true;
        continue;
      }
      if (rtt >= 0.0) e.rtt_ms += alpha * (rtt - e.rtt_ms);
      e.loss += alpha * (loss_sample - e.loss);
    }
  }
}

double OverlayMesh::metric_of(const LinkEstimate& e) const {
  return config_.metric == Metric::kRtt ? e.rtt_ms : e.loss;
}

double OverlayMesh::compose(double a, double b) const {
  if (config_.metric == Metric::kRtt) return a + b;
  return 1.0 - (1.0 - a) * (1.0 - b);  // independent loss
}

std::optional<double> OverlayMesh::estimate(topo::HostId a,
                                            topo::HostId b) const {
  const LinkEstimate& e = link(index_of(a), index_of(b));
  if (!e.valid) return std::nullopt;
  return metric_of(e);
}

OverlayRoute OverlayMesh::route(topo::HostId src, topo::HostId dst) const {
  PATHSEL_EXPECT(src != dst, "route requires distinct endpoints");
  const std::size_t s = index_of(src);
  const std::size_t d = index_of(dst);

  OverlayRoute out;
  out.src = src;
  out.dst = dst;

  const LinkEstimate& direct = link(s, d);
  out.predicted_direct = direct.valid ? metric_of(direct) : kInf;
  out.predicted = out.predicted_direct;

  // The analyzer's search over the estimate graph (arcs in ascending v, the
  // analyzer's weights), at most max_relays + 1 legs, direct arc skipped: a
  // detour must beat the direct estimate strictly, so no decision changes.
  const std::size_t n = members_.size();
  ArcGraph graph(n);
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = 0; v < n; ++v) {
      if (v == u || !link(u, v).valid) continue;
      graph[u].push_back({v, edge_id(u, v),
                          metric_weight(metric_of(link(u, v)), config_.metric)});
    }
  }
  const std::vector<std::size_t> legs =
      shortest_path(graph, s, d,
                    static_cast<std::size_t>(config_.max_relays) + 1,
                    edge_id(s, d));
  if (legs.empty()) return out;

  std::vector<topo::HostId> relays;
  double predicted = 0.0;
  std::size_t cursor = s;
  for (const std::size_t id : legs) {
    if (cursor != s) relays.push_back(members_[cursor]);
    const double leg = metric_of(estimates_[id]);
    predicted = cursor == s ? leg : compose(predicted, leg);
    cursor = id / n == cursor ? id % n : id / n;
  }
  // Detour only for a predicted relative gain beyond the hysteresis; with no
  // direct estimate at all, any relayed route beats flying blind.
  if (out.predicted_direct == kInf ||
      predicted < out.predicted_direct * (1.0 - config_.hysteresis)) {
    out.relays = std::move(relays);
    out.predicted = predicted;
  }
  return out;
}

double OverlayMesh::ground_truth_leg(topo::HostId a, topo::HostId b,
                                     SimTime t) const {
  const auto& fwd = net_->default_path(a, b);
  const auto& rev = net_->default_path(b, a);
  if (config_.metric == Metric::kRtt) {
    return net_->expected_one_way_ms(fwd, t) + net_->expected_one_way_ms(rev, t);
  }
  const double survive = (1.0 - net_->one_way_loss_probability(fwd, t)) *
                         (1.0 - net_->one_way_loss_probability(rev, t));
  return 1.0 - survive;
}

double OverlayMesh::ground_truth(const OverlayRoute& r, SimTime t) const {
  topo::HostId cursor = r.src;
  double total = 0.0;
  bool first = true;
  for (const topo::HostId relay : r.relays) {
    const double leg = ground_truth_leg(cursor, relay, t);
    total = first ? leg : compose(total, leg);
    first = false;
    cursor = relay;
  }
  const double last = ground_truth_leg(cursor, r.dst, t);
  return first ? last : compose(total, last);
}

OverlayReport OverlayMesh::evaluate(SimTime begin, Duration span) {
  PATHSEL_EXPECT(span > Duration{}, "evaluation span must be positive");
  OverlayReport report;
  const SimTime end = begin + span;
  for (SimTime now = begin; now < end; now = now + config_.probe_interval) {
    probe(now);
    for (const topo::HostId src : members_) {
      for (const topo::HostId dst : members_) {
        if (src == dst) continue;
        const OverlayRoute r = route(src, dst);
        OverlayRoute direct;
        direct.src = src;
        direct.dst = dst;
        report.direct_metric.add(ground_truth(direct, now));
        report.overlay_metric.add(ground_truth(r, now));
        ++report.decisions;
        if (r.detoured()) ++report.detoured;
      }
    }
  }
  return report;
}

}  // namespace pathsel::core
