// Per-path quality statistics extracted from a dataset.
//
// This is the paper's §4.1 preprocessing step: every measured host pair
// becomes an edge in a weighted graph, weighted by the long-term time average
// of each quality metric.  Edges are undirected — a measured path A→B backs
// the hop A–B in either direction when composing synthetic alternates (and
// for UW1, paths toward rate-limited hosts are represented by measurements
// initiated in the opposite direction, as in §4.2).  The paper's filters are
// applied here: paths with fewer than `min_samples` completed measurements
// are dropped, and for datasets flagged `first_sample_loss_only` (D2) only
// the first probe of each invocation counts toward loss.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "meas/dataset.h"
#include "stats/summary.h"
#include "topo/ids.h"
#include "util/cancel.h"
#include "util/status.h"

namespace pathsel::core {

struct PathEdge {
  topo::HostId a;  // a < b
  topo::HostId b;

  std::int64_t invocations = 0;   // completed measurements merged in

  stats::Summary rtt;             // per-sample round-trip times, ms
  stats::Summary loss;            // per-sample 0/1 loss indicators
  stats::Summary bandwidth;       // per-transfer kB/s (TCP datasets)
  stats::Summary tcp_rtt;         // RTT observed during transfers
  stats::Summary tcp_loss;        // loss observed during transfers

  /// Raw RTT samples; retained only when BuildOptions.keep_samples is set
  /// (needed for medians and the 10th-percentile propagation estimate).
  std::vector<double> rtt_samples;

  /// Forward AS-level path of the a->b direction (or b->a when only that
  /// direction was measured).
  std::vector<topo::AsId> as_path;

  /// The paper's propagation-delay estimator: the 10th percentile of the
  /// measured round-trip times (§7.2).  Requires retained samples.
  [[nodiscard]] double propagation_ms() const;
};

/// Why a per-probe analysis (rtt, loss, propagation) refuses a TCP dataset:
/// its edges hold transfers, and every per-probe summary would be empty.
inline constexpr const char* kPerProbeNeedsTraceroute =
    "per-probe metrics need a traceroute dataset "
    "(use the bandwidth analysis for tcp)";

struct BuildOptions {
  /// Minimum completed measurements per (undirected) path; the paper uses 30.
  int min_samples = 30;
  /// Retain raw RTT samples on each edge.
  bool keep_samples = false;
  /// Optional measurement filter (time-of-day windows, single episodes...).
  std::function<bool(const meas::Measurement&)> filter;
  /// Worker threads for the per-edge accumulation; <= 0 means
  /// util::default_thread_count(), 1 forces the serial path.  Each edge's
  /// samples are replayed in measurement order regardless, so the table is
  /// bit-identical for every thread count.
  int threads = 0;
  /// Optional cancellation (deadline, signal, watchdog).  Polled during the
  /// serial grouping pass and before every accumulation chunk; a tripped
  /// token makes build_checked() return the token's status.  Only
  /// build_checked() honours it — plain build() aborts on cancellation.
  const CancelToken* cancel = nullptr;
};

/// A min-samples threshold scaled with the trace length so reduced-scale
/// runs keep a usable edge set: max(3, round(full_scale_threshold * scale)).
[[nodiscard]] int scaled_min_samples(int full_scale_threshold, double scale);

class PathTable {
 public:
  [[nodiscard]] static PathTable build(const meas::Dataset& dataset,
                                       const BuildOptions& options = {});

  /// As build(), but cancellation surfaces as a Status (kDeadlineExceeded or
  /// kCancelled) instead of aborting; partial tables are discarded.
  [[nodiscard]] static Result<PathTable> build_checked(
      const meas::Dataset& dataset, const BuildOptions& options = {});

  [[nodiscard]] std::span<const PathEdge> edges() const noexcept {
    return edges_;
  }
  /// All dataset hosts (even ones with no surviving edges).
  [[nodiscard]] std::span<const topo::HostId> hosts() const noexcept {
    return hosts_;
  }

  /// Edge between two hosts (order-insensitive); nullptr if unmeasured or
  /// filtered out.
  [[nodiscard]] const PathEdge* find(topo::HostId x, topo::HostId y) const;

  /// Mutable edge access for the online serve engine, which folds incremental
  /// measurement updates into the summaries in place.  The edge set itself is
  /// immutable (hosts/edges are never added or removed), so indices and spans
  /// handed out earlier stay valid.
  [[nodiscard]] PathEdge* find_mutable(topo::HostId x, topo::HostId y);

  /// Index of a host in hosts(); aborts for unknown hosts.
  [[nodiscard]] std::size_t host_index(topo::HostId h) const;

  /// A copy of this table without the given hosts (and their edges); used by
  /// the §7.1 "top ten" removal experiment.
  [[nodiscard]] PathTable without_hosts(std::span<const topo::HostId> removed) const;

 private:
  void reindex();

  std::vector<topo::HostId> hosts_;
  std::vector<PathEdge> edges_;
  std::unordered_map<std::uint64_t, std::size_t> edge_index_;
  std::unordered_map<topo::HostId, std::size_t> host_index_;
};

}  // namespace pathsel::core
