#include "sim/survivability.h"

#include <algorithm>
#include <map>

#include "util/expect.h"
#include "util/metrics.h"

namespace pathsel::sim {

namespace {

// Every instant at which some hop's status could change: routing
// transitions (routed paths change), physical link boundaries (blackhole
// status changes) and host crash boundaries — ascending, deduplicated,
// clipped to [start, end).  The replay evaluates each [t_i, t_i+1) segment
// at t_i; by construction the answer is constant over the segment.
std::vector<SimTime> build_timeline(const FaultPlan& plan,
                                    const topo::Topology& topo) {
  const SimTime start = SimTime::start();
  const SimTime end = start + plan.trace_duration();
  std::vector<SimTime> times;
  times.push_back(start);
  for (const SimTime t : plan.routing_transitions()) times.push_back(t);
  for (std::size_t i = 0; i < topo.link_count(); ++i) {
    for (const FaultInterval& w : plan.link_down_intervals(
             topo::LinkId{static_cast<std::int32_t>(i)})) {
      times.push_back(w.begin);
      times.push_back(w.end);
    }
  }
  for (std::size_t i = 0; i < topo.host_count(); ++i) {
    for (const FaultInterval& w : plan.host_down_intervals(
             topo::HostId{static_cast<std::int32_t>(i)})) {
      times.push_back(w.begin);
      times.push_back(w.end);
    }
  }
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());
  std::erase_if(times, [&](SimTime t) { return t < start || t >= end; });
  return times;
}

// Per-path (or per-group) accumulator across segments.
struct RunningAvailability {
  Duration downtime{};
  std::int64_t outages = 0;
  bool was_up = true;

  void account(bool up, Duration segment) {
    if (!up) {
      downtime = downtime + segment;
      if (was_up) ++outages;
    }
    was_up = up;
  }

  [[nodiscard]] PathAvailability finish(std::string label,
                                        Duration trace) const {
    PathAvailability out;
    out.label = std::move(label);
    out.downtime = downtime;
    out.outages = outages;
    out.availability =
        1.0 - downtime.total_seconds() / trace.total_seconds();
    return out;
  }
};

}  // namespace

Result<std::vector<PairSurvivability>> replay_survivability(
    const Network& network, const FaultPlan& plan,
    const std::vector<PairSpec>& pairs, const CancelToken* cancel) {
  const Duration trace = plan.trace_duration();
  if (trace <= Duration{}) {
    return Status::error(
        ErrorCode::kInvalidArgument,
        "survivability replay needs a plan with a positive trace duration; "
        "construct zero-intensity plans via FaultConfig::at_intensity(0)");
  }
  for (const PairSpec& spec : pairs) {
    for (const OverlayPath& p : spec.paths) {
      if (p.hops.size() < 2) {
        return Status::error(ErrorCode::kInvalidArgument,
                             "overlay path '" + p.label +
                                 "' has fewer than two hosts");
      }
      if (std::adjacent_find(p.hops.begin(), p.hops.end()) != p.hops.end()) {
        return Status::error(ErrorCode::kInvalidArgument,
                             "overlay path '" + p.label +
                                 "' repeats a host in consecutive hops");
      }
    }
    for (const PathGroup& g : spec.groups) {
      for (const std::size_t m : g.members) {
        if (m >= spec.paths.size()) {
          return Status::error(ErrorCode::kInvalidArgument,
                               "path group '" + g.label +
                                   "' references a path out of range");
        }
      }
    }
  }

  const std::vector<SimTime> timeline =
      build_timeline(plan, network.topology());
  const SimTime end = SimTime::start() + trace;

  const std::uint64_t replay_start = wall_clock_ns();
  const ScopedTimer timer{"sim.survivability.replay"};
  // Each distinct directed hop across all pairs gets one index; path i is
  // the run path_hops[path_begin[i], path_begin[i + 1]).
  std::vector<std::pair<topo::HostId, topo::HostId>> hops;
  std::map<std::pair<topo::HostId, topo::HostId>, std::size_t> hop_index;
  std::vector<std::size_t> path_hops;
  std::vector<std::size_t> path_begin{0};
  std::size_t group_count = 0;
  for (const PairSpec& spec : pairs) {
    for (const OverlayPath& p : spec.paths) {
      for (std::size_t h = 0; h + 1 < p.hops.size(); ++h) {
        const std::pair hop{p.hops[h], p.hops[h + 1]};
        const auto [it, added] = hop_index.try_emplace(hop, hops.size());
        if (added) hops.push_back(hop);
        path_hops.push_back(it->second);
      }
      path_begin.push_back(path_hops.size());
    }
    group_count += spec.groups.size();
  }

  std::vector<RunningAvailability> path_acc(path_begin.size() - 1);
  std::vector<RunningAvailability> group_acc(group_count);
  std::vector<char> hop_up(hops.size());
  std::vector<char> path_up(path_acc.size());
  FaultInjector injector{network, plan};
  for (std::size_t s = 0; s < timeline.size(); ++s) {
    if (cancel != nullptr && cancel->cancelled()) return cancel->status();
    const SimTime t = timeline[s];
    const Duration seg = (s + 1 < timeline.size() ? timeline[s + 1] : end) - t;
    injector.advance_to(t);
    for (std::size_t h = 0; h < hops.size(); ++h) {
      const auto [u, v] = hops[h];
      bool up = !plan.host_crashed(u, t) && !plan.host_crashed(v, t);
      if (up) {
        const route::RouterPath& rp = injector.effective_path(u, v);
        up = rp.valid() && !injector.blackholed(rp, t);
      }
      hop_up[h] = up ? 1 : 0;
    }
    std::size_t path = 0;
    std::size_t group = 0;
    for (const PairSpec& spec : pairs) {
      const std::size_t first = path;
      for (; path < first + spec.paths.size(); ++path) {
        bool up = true;
        for (std::size_t i = path_begin[path]; i < path_begin[path + 1] && up;
             ++i) {
          up = hop_up[path_hops[i]] != 0;
        }
        path_up[path] = up ? 1 : 0;
        path_acc[path].account(up, seg);
      }
      for (const PathGroup& g : spec.groups) {
        const bool up =
            std::any_of(g.members.begin(), g.members.end(),
                        [&](std::size_t m) { return path_up[first + m] != 0; });
        group_acc[group++].account(up, seg);
      }
    }
  }

  std::vector<PairSurvivability> results;
  results.reserve(pairs.size());
  std::size_t path = 0;
  std::size_t group = 0;
  for (const PairSpec& spec : pairs) {
    PairSurvivability r;
    for (const OverlayPath& p : spec.paths) {
      r.paths.push_back(path_acc[path++].finish(p.label, trace));
    }
    for (const PathGroup& g : spec.groups) {
      r.groups.push_back(group_acc[group++].finish(g.label, trace));
    }
    results.push_back(std::move(r));
  }

  MetricsRegistry& m = MetricsRegistry::global();
  if (m.enabled()) {
    m.count("sim.survivability.replays");
    m.count("sim.survivability.pairs", pairs.size());
    m.count("sim.survivability.segments", timeline.size());
    m.observe("sim.survivability.replay_ms",
              static_cast<double>(wall_clock_ns() - replay_start) / 1e6);
  }
  return results;
}

}  // namespace pathsel::sim
