#include "sim/network.h"

#include <algorithm>
#include <cmath>

#include "sim/tcp_model.h"
#include "util/expect.h"

namespace pathsel::sim {

Network::Network(topo::Topology topology, NetworkConfig config)
    : topo_{std::move(topology)},
      config_{config},
      igp_{std::make_unique<route::IgpTables>(topo_)},
      bgp_{std::make_unique<route::BgpTables>(topo_)},
      resolver_{std::make_unique<route::PathResolver>(topo_, *igp_, *bgp_,
                                                      config.egress)},
      load_{config.load},
      link_model_{config.link} {}

const route::RouterPath& Network::default_path(topo::HostId src,
                                               topo::HostId dst) const {
  PATHSEL_EXPECT(src != dst, "path requires distinct hosts");
  const std::uint64_t key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src.value())) << 32) |
      static_cast<std::uint32_t>(dst.value());
  auto it = path_cache_.find(key);
  if (it == path_cache_.end()) {
    route::RouterPath path = resolver_->resolve(topo_.host(src).attachment,
                                                topo_.host(dst).attachment);
    PATHSEL_EXPECT(path.valid(), "no policy route between measurement hosts");
    it = path_cache_.emplace(key, std::move(path)).first;
  }
  return it->second;
}

Rng Network::probe_rng(std::uint64_t kind, topo::HostId src, topo::HostId dst,
                       SimTime t) const {
  std::uint64_t state = config_.seed ^ (kind * 0x9e3779b97f4a7c15ULL);
  state = splitmix64(state) ^ static_cast<std::uint64_t>(src.value());
  state = splitmix64(state) ^ static_cast<std::uint64_t>(dst.value());
  state = splitmix64(state) ^
          static_cast<std::uint64_t>(t.since_start().total_millis());
  return Rng{splitmix64(state)};
}

Network::PathLoad Network::path_load(const route::RouterPath& path, SimTime t,
                                     LoadMemo* memo) const {
  PathLoad load;
  for (const auto& hop : path.hops) {
    const topo::Link& l = topo_.link(hop.via);
    const double u = load_.utilization(l, t, memo);
    load.one_way_ms += l.prop_delay_ms +
                       link_model_.mean_queueing_delay_ms(l, u) +
                       link_model_.config().router_processing_ms;
    load.survive *= 1.0 - link_model_.loss_probability(l, u);
    load.bottleneck_mbps =
        std::min(load.bottleneck_mbps, l.capacity_mbps * (1.0 - u));
  }
  return load;
}

double Network::expected_one_way_ms(const route::RouterPath& path,
                                    SimTime t) const {
  return path_load(path, t, nullptr).one_way_ms;
}

double Network::one_way_loss_probability(const route::RouterPath& path,
                                         SimTime t) const {
  return 1.0 - path_load(path, t, nullptr).survive;
}

double Network::bottleneck_available_kBps(const route::RouterPath& path,
                                          SimTime t) const {
  return path_load(path, t, nullptr).bottleneck_kBps();
}

TracerouteResult Network::traceroute(topo::HostId src, topo::HostId dst,
                                     SimTime t) const {
  ProbeScratch scratch;
  return traceroute_over(default_path(src, dst), default_path(dst, src), src,
                         dst, t, scratch);
}

TracerouteResult Network::traceroute_over(const route::RouterPath& fwd,
                                          const route::RouterPath& rev,
                                          topo::HostId src, topo::HostId dst,
                                          SimTime t, ProbeScratch& scratch,
                                          bool force_rate_limited) const {
  Rng rng = probe_rng(0x7261636bULL, src, dst, t);

  TracerouteResult result;
  result.as_path = fwd.as_path;
  // A traceroute probes each hop in sequence; the wall time it occupies
  // scales with hop count (several minutes for long paths, cf. §6.4).
  result.elapsed =
      Duration::seconds(2.0 + 1.5 * static_cast<double>(fwd.hop_count()));

  if (rng.bernoulli(config_.measurement_failure_rate)) {
    return result;  // completed = false: unreachable or 5-minute timeout
  }
  result.completed = true;

  // Successive samples within one invocation are ~1 second apart, so the
  // congestion field is effectively constant across the invocation: compute
  // per-link state once and reuse it for all three samples.
  std::vector<ProbeScratch::LinkState>& state = scratch.links_;
  state.clear();
  auto absorb = [&](const route::RouterPath& path) {
    for (const auto& hop : path.hops) {
      const topo::Link& l = topo_.link(hop.via);
      const double u = load_.utilization(l, t, &scratch.memo_);
      state.push_back(ProbeScratch::LinkState{
          l.prop_delay_ms + link_model_.config().router_processing_ms,
          link_model_.mean_queueing_delay_ms(l, u),
          link_model_.loss_probability(l, u)});
    }
  };
  absorb(fwd);
  absorb(rev);

  const bool rate_limited =
      force_rate_limited || topo_.host(dst).icmp_rate_limited;
  for (std::size_t i = 0; i < result.samples.size(); ++i) {
    ProbeSample& sample = result.samples[i];
    bool lost = false;
    double rtt = 0.0;
    for (const ProbeScratch::LinkState& ls : state) {
      if (rng.bernoulli(ls.loss_prob)) {
        lost = true;
        break;
      }
      rtt += ls.prop_and_proc +
             (ls.mean_queue > 0.0 ? rng.exponential(ls.mean_queue) : 0.0);
    }
    const bool rate_dropped =
        rate_limited && i > 0 && rng.bernoulli(config_.rate_limit_drop);
    sample.lost = lost || rate_dropped;
    if (!sample.lost) {
      sample.rtt_ms = rtt + 0.2 + rng.exponential(0.3);
    }
  }
  return result;
}

TcpTransferResult Network::tcp_transfer(topo::HostId src, topo::HostId dst,
                                        SimTime t) const {
  ProbeScratch scratch;
  return tcp_transfer_over(default_path(src, dst), default_path(dst, src), src,
                           dst, t, scratch);
}

TcpTransferResult Network::tcp_transfer_over(const route::RouterPath& fwd,
                                             const route::RouterPath& rev,
                                             topo::HostId src,
                                             topo::HostId dst, SimTime t,
                                             ProbeScratch& scratch) const {
  Rng rng = probe_rng(0x74637031ULL, src, dst, t);
  TcpTransferResult result;
  if (rng.bernoulli(config_.measurement_failure_rate)) return result;
  result.completed = true;

  const PathLoad fwd_load = path_load(fwd, t, &scratch.memo_);
  const double base_rtt = fwd_load.one_way_ms +
                          path_load(rev, t, &scratch.memo_).one_way_ms +
                          rng.normal(0.5, 0.1);
  const double background_loss = 1.0 - fwd_load.survive;
  const double avail_kBps = fwd_load.bottleneck_kBps();

  // The transfer is limited by whichever binds first: background loss, the
  // receiver window, or the bottleneck's available bandwidth.  Only a flow
  // that actually saturates the bottleneck (window cap above the available
  // bandwidth) induces extra loss of its own — the ambiguity §5's
  // optimistic/pessimistic composition brackets.
  const double rtt = std::max(1.0, base_rtt * (1.0 + rng.uniform(0.05, 0.20)));
  const double window_cap = config_.tcp_window_kB * 1.024 / (rtt / 1000.0);
  double loss = background_loss;
  if (window_cap > avail_kBps) {
    loss = std::max(loss, mathis_self_loss(rtt, std::max(avail_kBps, 1.0)));
  }
  loss = std::clamp(loss, 2e-5, 0.5);

  const double mathis = mathis_bandwidth_kBps(rtt, loss);
  result.bandwidth_kBps = std::min({mathis, window_cap, avail_kBps});
  result.rtt_ms = rtt;
  result.loss_rate = loss;
  return result;
}

}  // namespace pathsel::sim
