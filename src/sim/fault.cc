#include "sim/fault.h"

#include <algorithm>

#include "util/expect.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace pathsel::sim {

void normalize_intervals(std::vector<FaultInterval>& intervals) {
  if (intervals.size() < 2) return;
  std::sort(intervals.begin(), intervals.end(),
            [](const FaultInterval& a, const FaultInterval& b) {
              return a.begin < b.begin;
            });
  std::vector<FaultInterval> merged;
  merged.reserve(intervals.size());
  for (const FaultInterval& iv : intervals) {
    if (!merged.empty() && !(merged.back().end < iv.begin)) {
      merged.back().end = std::max(merged.back().end, iv.end);
    } else {
      merged.push_back(iv);
    }
  }
  intervals = std::move(merged);
}

bool intervals_contain(const std::vector<FaultInterval>& intervals,
                       SimTime t) {
  const auto it = std::partition_point(
      intervals.begin(), intervals.end(),
      [t](const FaultInterval& iv) { return !(t < iv.end); });
  return it != intervals.end() && !(t < it->begin);
}

namespace {

const std::vector<FaultInterval> kNoIntervals{};

// Crash/storm style episodes: a few windows placed uniformly in the trace
// with exponential lengths and a floor.
std::vector<FaultInterval> draw_episodes(Rng& rng, Duration trace,
                                         Duration mean_length,
                                         double floor_seconds) {
  const auto count = static_cast<std::size_t>(rng.uniform_int(1, 3));
  std::vector<FaultInterval> out;
  out.reserve(count);
  const SimTime end = SimTime::start() + trace;
  for (std::size_t i = 0; i < count; ++i) {
    const double at_s = rng.uniform(0.0, trace.total_seconds());
    const double len_s =
        rng.exponential(mean_length.total_seconds()) + floor_seconds;
    const SimTime begin = SimTime::start() + Duration::seconds(at_s);
    out.push_back(FaultInterval{begin,
                                std::min(begin + Duration::seconds(len_s), end)});
  }
  normalize_intervals(out);
  return out;
}

}  // namespace

FaultConfig FaultConfig::at_intensity(double intensity, std::uint64_t seed) {
  const double f = std::clamp(intensity, 0.0, 1.0);
  FaultConfig cfg;
  cfg.seed = seed;
  cfg.link_flap_fraction = f;
  cfg.exchange_outage_fraction = f;
  cfg.host_crash_fraction = f;
  cfg.icmp_storm_fraction = f;
  cfg.probe_stuck_rate = f * 0.1;
  return cfg;
}

FaultPlan::FaultPlan(const FaultConfig& config, const topo::Topology& topology,
                     Duration trace_duration)
    : config_{config},
      enabled_{config.enabled()},
      trace_duration_{trace_duration} {
  PATHSEL_EXPECT(trace_duration > Duration{}, "fault plan: trace must be positive");
  link_down_.resize(topology.link_count());
  host_down_.resize(topology.host_count());
  storm_.resize(topology.host_count());
  if (!enabled_) return;

  Rng root{config.seed};
  Rng link_rng = root.fork(1);
  Rng fabric_rng = root.fork(2);
  Rng crash_rng = root.fork(3);
  Rng storm_rng = root.fork(4);

  const SimTime end = SimTime::start() + trace_duration;

  // Link flaps: affected links alternate exponential up-times and outages.
  for (std::size_t i = 0; i < topology.link_count(); ++i) {
    Rng rng = link_rng.fork(i);
    if (!rng.bernoulli(config.link_flap_fraction)) continue;
    SimTime cursor = SimTime::start();
    while (true) {
      const double up_s =
          rng.exponential(config.mean_time_between_failures.total_seconds());
      cursor = cursor + Duration::seconds(up_s);
      if (!(cursor < end)) break;
      const double down_s =
          rng.exponential(config.mean_link_downtime.total_seconds()) + 120.0;
      const SimTime recover =
          std::min(cursor + Duration::seconds(down_s), end);
      link_down_[i].push_back(FaultInterval{cursor, recover});
      cursor = recover;
    }
  }

  // Exchange-fabric outages: one window takes every link of the fabric down.
  const auto fabrics = topology.exchange_fabrics();
  for (std::size_t f = 0; f < fabrics.size(); ++f) {
    Rng rng = fabric_rng.fork(f);
    if (!rng.bernoulli(config.exchange_outage_fraction)) continue;
    const double at_s = rng.uniform(0.0, trace_duration.total_seconds());
    const double len_s =
        rng.exponential(config.mean_fabric_outage.total_seconds()) + 300.0;
    const SimTime begin = SimTime::start() + Duration::seconds(at_s);
    const FaultInterval outage{begin,
                               std::min(begin + Duration::seconds(len_s), end)};
    for (const topo::LinkId link : fabrics[f]) {
      link_down_[link.index()].push_back(outage);
    }
  }
  for (auto& intervals : link_down_) normalize_intervals(intervals);

  // Host crash/reboot episodes and ICMP rate-limit storms.
  for (std::size_t h = 0; h < topology.host_count(); ++h) {
    Rng rng = crash_rng.fork(h);
    if (rng.bernoulli(config.host_crash_fraction)) {
      host_down_[h] =
          draw_episodes(rng, trace_duration, config.mean_host_outage, 120.0);
    }
    Rng srng = storm_rng.fork(h);
    if (srng.bernoulli(config.icmp_storm_fraction)) {
      storm_[h] = draw_episodes(srng, trace_duration, config.mean_storm, 60.0);
    }
  }

  // Routing epochs: the routed-down set changes `reconvergence` after every
  // physical failure and repair.
  for (const auto& intervals : link_down_) {
    for (const FaultInterval& iv : intervals) {
      transitions_.push_back(iv.begin + config.reconvergence);
      transitions_.push_back(iv.end + config.reconvergence);
    }
  }
  std::sort(transitions_.begin(), transitions_.end());
  transitions_.erase(std::unique(transitions_.begin(), transitions_.end()),
                     transitions_.end());
}

bool FaultPlan::link_physically_down(topo::LinkId link, SimTime t) const {
  if (link.index() >= link_down_.size()) return false;
  return intervals_contain(link_down_[link.index()], t);
}

bool FaultPlan::link_routed_down(topo::LinkId link, SimTime t) const {
  // Routing sees the state from `reconvergence` ago.
  return link_physically_down(
      link, SimTime::at(t.since_start() - config_.reconvergence));
}

bool FaultPlan::host_crashed(topo::HostId host, SimTime t) const {
  if (host.index() >= host_down_.size()) return false;
  return intervals_contain(host_down_[host.index()], t);
}

bool FaultPlan::icmp_storm(topo::HostId host, SimTime t) const {
  if (host.index() >= storm_.size()) return false;
  return intervals_contain(storm_[host.index()], t);
}

bool FaultPlan::probe_stuck(topo::HostId src, topo::HostId dst,
                            SimTime t) const {
  if (config_.probe_stuck_rate <= 0.0) return false;
  std::uint64_t state = config_.seed ^ 0x737475636bULL;  // "stuck"
  state = splitmix64(state) ^ static_cast<std::uint64_t>(src.value());
  state = splitmix64(state) ^ static_cast<std::uint64_t>(dst.value());
  state = splitmix64(state) ^
          static_cast<std::uint64_t>(t.since_start().total_millis());
  Rng rng{splitmix64(state)};
  return rng.bernoulli(config_.probe_stuck_rate);
}

const std::vector<FaultInterval>& FaultPlan::link_down_intervals(
    topo::LinkId link) const {
  if (link.index() >= link_down_.size()) return kNoIntervals;
  return link_down_[link.index()];
}

const std::vector<FaultInterval>& FaultPlan::host_down_intervals(
    topo::HostId host) const {
  if (host.index() >= host_down_.size()) return kNoIntervals;
  return host_down_[host.index()];
}

const std::vector<FaultInterval>& FaultPlan::storm_intervals(
    topo::HostId host) const {
  if (host.index() >= storm_.size()) return kNoIntervals;
  return storm_[host.index()];
}

void FaultPlan::apply_routed_state(topo::Topology& topology, SimTime t) const {
  for (std::size_t i = 0; i < link_down_.size(); ++i) {
    if (link_down_[i].empty()) continue;
    const topo::LinkId link{static_cast<std::int32_t>(i)};
    topology.set_link_down(link, link_routed_down(link, t));
  }
}

FaultInjector::FaultInjector(const Network& network, const FaultPlan& plan)
    : net_{&network}, plan_{&plan}, topo_{network.topology()} {
  for (const topo::Link& l : topo_.links()) {
    PATHSEL_EXPECT(!l.down, "fault injector: the network's links must be up");
  }
  const SimTime start = SimTime::start();
  const auto& transitions = plan_->routing_transitions();
  while (next_transition_ < transitions.size() &&
         !(start < transitions[next_transition_])) {
    ++next_transition_;
  }
  enter_epoch(start);
}

void FaultInjector::advance_to(SimTime t) {
  PATHSEL_EXPECT(!(t < now_), "fault injector: time went backwards");
  now_ = t;
  const auto& transitions = plan_->routing_transitions();
  bool crossed = false;
  while (next_transition_ < transitions.size() &&
         !(t < transitions[next_transition_])) {
    ++next_transition_;
    crossed = true;
  }
  if (crossed) {
    enter_epoch(t);
    // The constructor's initial epoch is not an epoch change; only these are.
    ++rebuilds_;
    MetricsRegistry::global().count("sim.fault.routing_rebuilds");
  }
}

void FaultInjector::enter_epoch(SimTime t) {
  plan_->apply_routed_state(topo_, t);
  resolver_.reset();
  igp_.reset();
  bgp_.reset();
  paths_.clear();
  resolved_.clear();

  // A session is down when every link joining its two ASes is routed down:
  // collect the AS pairs of down inter-AS links, then strike each pair that
  // still has a live link.
  down_sessions_.clear();
  const auto as_pair = [this](const topo::Link& l) {
    const topo::AsId a = topo_.router(l.a).as;
    const topo::AsId b = topo_.router(l.b).as;
    return b < a ? std::pair{b, a} : std::pair{a, b};
  };
  for (const topo::Link& l : topo_.links()) {
    if (l.down && l.kind != topo::LinkKind::kIntraAs) {
      down_sessions_.push_back(as_pair(l));
    }
  }
  if (down_sessions_.empty()) return;
  std::sort(down_sessions_.begin(), down_sessions_.end());
  down_sessions_.erase(
      std::unique(down_sessions_.begin(), down_sessions_.end()),
      down_sessions_.end());
  std::vector<char> live(down_sessions_.size(), 0);
  for (const topo::Link& l : topo_.links()) {
    if (l.down || l.kind == topo::LinkKind::kIntraAs) continue;
    const auto it = std::lower_bound(down_sessions_.begin(),
                                     down_sessions_.end(), as_pair(l));
    if (it != down_sessions_.end() && *it == as_pair(l)) {
      live[static_cast<std::size_t>(it - down_sessions_.begin())] = 1;
    }
  }
  std::size_t kept = 0;
  for (std::size_t i = 0; i < down_sessions_.size(); ++i) {
    if (live[i] == 0) down_sessions_[kept++] = down_sessions_[i];
  }
  down_sessions_.resize(kept);
  unsettled_.resize(topo_.as_count());
  for (std::vector<char>& row : unsettled_) row.clear();
}

const std::vector<char>& FaultInjector::unsettled(topo::AsId dest) {
  std::vector<char>& row = unsettled_[dest.index()];
  if (!row.empty()) return row;
  row.assign(topo_.as_count(), 0);
  const route::BgpTables& routes = net_->bgp();
  std::vector<topo::AsId> frontier;
  // dest's own route never moves, so it is never marked.
  const auto mark = [&](topo::AsId as) {
    if (as == dest || row[as.index()] != 0) return;
    row[as.index()] = 1;
    frontier.push_back(as);
  };
  for (const auto& [a, b] : down_sessions_) {
    if (routes.route(a, dest).next_hop == b) mark(a);
    if (routes.route(b, dest).next_hop == a) mark(b);
  }
  // A moved route reaches the AS's customers, which hear every route, and
  // its providers and peers only when it was a customer route: the only
  // kind exported to them, and one a failure never creates.
  while (!frontier.empty()) {
    const topo::AutonomousSystem& as = topo_.as_at(frontier.back());
    frontier.pop_back();
    for (const topo::AsId customer : as.customers) mark(customer);
    if (routes.route(as.id, dest).cls == route::RouteClass::kCustomer) {
      for (const topo::AsId provider : as.providers) mark(provider);
      for (const topo::AsId peer : as.peers) mark(peer);
    }
  }
  return row;
}

const route::BgpTables& FaultInjector::bgp() {
  if (bgp_ == nullptr) {
    const ScopedTimer timer{"sim.fault.rebuild"};
    bgp_ = std::make_unique<route::BgpTables>(topo_);
  }
  return *bgp_;
}

const route::PathResolver& FaultInjector::resolver() {
  if (resolver_ == nullptr) {
    const route::BgpTables& routes = bgp();
    const ScopedTimer timer{"sim.fault.rebuild"};
    igp_ = std::make_unique<route::IgpTables>(topo_);
    resolver_ = std::make_unique<route::PathResolver>(topo_, *igp_, routes,
                                                      net_->config().egress);
  }
  return *resolver_;
}

bool FaultInjector::reusable(const route::RouterPath& path) {
  for (const auto& hop : path.hops) {
    if (topo_.link(hop.via).down) return false;
  }
  // With its links up, the path resolves to itself if its AS path does.
  if (down_sessions_.empty()) return true;
  const std::vector<topo::AsId>& ases = path.as_path;
  const topo::AsId dest = ases.back();
  const std::vector<char>& moved = unsettled(dest);
  for (std::size_t i = 0; i + 1 < ases.size(); ++i) {
    if (moved[ases[i].index()] != 0 &&
        bgp().route(ases[i], dest).next_hop != ases[i + 1]) {
      return false;
    }
  }
  return true;
}

const route::RouterPath& FaultInjector::effective_path(topo::HostId src,
                                                       topo::HostId dst) {
  PATHSEL_EXPECT(src != dst, "path requires distinct hosts");
  const std::uint64_t key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src.value()))
       << 32) |
      static_cast<std::uint32_t>(dst.value());
  const auto [it, added] = paths_.try_emplace(key, nullptr);
  if (!added) return *it->second;

  const route::RouterPath& fallback = net_->default_path(src, dst);
  if (reusable(fallback)) {
    MetricsRegistry::global().count("sim.fault.paths_reused");
    it->second = &fallback;
  } else {
    // Unlike Network::default_path, an unresolvable pair is a legitimate
    // outcome here (the fault partitioned them) and is kept as an invalid
    // path rather than treated as a programmer error.
    MetricsRegistry::global().count("sim.fault.paths_resolved");
    it->second = &resolved_.emplace_back(resolver().resolve(
        topo_.host(src).attachment, topo_.host(dst).attachment));
  }
  return *it->second;
}

bool FaultInjector::blackholed(const route::RouterPath& path, SimTime t) const {
  for (const auto& hop : path.hops) {
    if (plan_->link_physically_down(hop.via, t)) return true;
  }
  return false;
}

}  // namespace pathsel::sim
