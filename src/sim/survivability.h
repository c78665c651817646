// Fault-survivability replay: does the alternate you precomputed survive
// the failure that made you need it?
//
// The disjoint-path analysis (core/disjoint.h) and the alternate sweep pick
// overlay paths from fault-free long-term averages.  This module replays a
// FaultPlan against those frozen choices: for every overlay path (a host
// sequence) it walks the plan's timeline and asks, in each interval of
// constant fault state, whether every hop still works — the underlying
// routed path exists, is not in a pre-convergence blackhole, and neither
// endpoint host has crashed.  The output is per-path availability (fraction
// of the trace the path was usable) plus the same for each "any member up"
// path group, which is how "at least one of the k disjoint alternates
// survived" is scored.
//
// Replay semantics: the timeline is segmented at every instant the answer
// could change — the plan's routing transitions, every physical link
// up/down boundary, and every host crash boundary — clipped to
// [start, start + trace_duration).  Hop and path status are therefore exact
// over each segment, not sampled.  A hop (u, v) is up at time t iff neither
// u nor v is crashed, routing resolves a path from u to v, and that routed
// path is not blackholed (crossing a physically dead link routing has not
// yet learned about).  A path is up iff all of its hops are up; a group is
// up iff any member path is up — group availability is computed on the
// segment level, never by aggregating member availabilities (which would
// overcount overlapping downtime).
//
// Determinism: one serial walk of the segment timeline drives a single
// FaultInjector.  Each distinct directed hop across all pairs is evaluated
// once per segment, and every path and group is then scored from those hop
// states in pair order.  A hop's status at t depends only on the plan and
// the injector's routing epoch, never on which other pairs share the walk,
// so each pair's result is a pure function of (plan, spec): replaying a
// pair alone gives the same bits as replaying it among others.
// Cancellation is polled once per segment.  This layer deliberately knows
// nothing about core/ types: callers hand it plain host sequences.
#pragma once

#include <string>
#include <vector>

#include "sim/fault.h"
#include "sim/network.h"
#include "topo/ids.h"
#include "util/cancel.h"
#include "util/status.h"

namespace pathsel::sim {

/// One overlay path to score: the full host sequence from source to
/// destination (at least two hosts, no host twice in a row; the direct path
/// is just {a, b}).
struct OverlayPath {
  std::string label;
  std::vector<topo::HostId> hops;
};

/// "Up when any member is up" — members index into PairSpec::paths.
struct PathGroup {
  std::string label;
  std::vector<std::size_t> members;
};

/// Everything to score for one host pair.
struct PairSpec {
  std::vector<OverlayPath> paths;
  std::vector<PathGroup> groups;
};

struct PathAvailability {
  std::string label;
  /// Fraction of the trace during which the path (or group) was usable.
  double availability = 1.0;
  Duration downtime{};
  /// Up -> down transitions over the trace.
  std::int64_t outages = 0;
};

/// Results parallel to PairSpec::paths / PairSpec::groups.
struct PairSurvivability {
  std::vector<PathAvailability> paths;
  std::vector<PathAvailability> groups;
};

/// Replays the plan against every pair's paths and groups.  The plan must
/// carry a positive trace duration (construct zero-intensity plans with
/// FaultPlan{FaultConfig::at_intensity(0), topo, duration} rather than
/// FaultPlan{}); a windowless plan is kInvalidArgument.  A disabled plan
/// yields availability 1.0 for every path routing can resolve at all.  A
/// tripped `cancel` token surfaces as its status, results discarded.
[[nodiscard]] Result<std::vector<PairSurvivability>> replay_survivability(
    const Network& network, const FaultPlan& plan,
    const std::vector<PairSpec>& pairs, const CancelToken* cancel = nullptr);

}  // namespace pathsel::sim
