// Synthetic alternate path analysis — the paper's core methodology (§4.1).
//
// For every measured host pair (A, B), remove the direct edge from the
// path-quality graph and compute the best alternate path from A to B whose
// hops are other measured host-to-host paths.  Metrics compose as in the
// paper: round-trip times and propagation delays add; loss rates combine as
// independent per-hop survival probabilities (1 - prod(1 - p_i), made
// additive by a -log(1-p) transform for the shortest-path computation).
// Alongside the point values, uncertainty is propagated (sum of variances
// for RTT; delta method for composed loss) so the §6.2 confidence analysis
// can classify every pair with a Welch t-test.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/path_table.h"
#include "stats/summary.h"

namespace pathsel::core {

enum class Metric {
  kRtt,          // mean round-trip time, ms
  kLoss,         // mean loss rate, [0, 1]
  kPropagation,  // 10th-percentile RTT, ms (requires retained samples)
};

/// Instruction-set path for the dense kernel's inner arg-min loop.  Every
/// mode computes the same IEEE additions and strict-< comparisons in the
/// same k order, so results are bit-identical across modes (locked in by
/// the differential suite); they differ only in throughput.
enum class SimdMode {
  /// Resolve from the PATHSEL_SIMD environment variable (auto|avx2|scalar)
  /// when set, else pick the widest path the CPU supports.
  kAuto,
  /// Prefer the AVX2 4-lane path; silently falls back to scalar when the
  /// binary or CPU lacks AVX2 (the dispatch never executes illegal
  /// instructions).  simd_mode_name(resolve_simd_mode(...)) reports the
  /// path actually taken.
  kAvx2,
  /// Force the portable scalar path.
  kScalar,
};

/// Which alternate-path engine runs the sweep.  Both produce bit-identical
/// PairResult vectors wherever both apply (locked in by the differential
/// test suite); they differ only in asymptotics.
enum class Kernel {
  /// Pick automatically: the dense min-plus kernel when the sweep is
  /// one-hop-bounded and the table is dense enough for O(N^3) to beat the
  /// per-pair search, the reference search otherwise.
  kAuto,
  /// Force the dense min-plus kernel (core/dense_kernel.h).  Requires
  /// max_intermediate_hosts == 1; anything else aborts.
  kDense,
  /// Force the per-pair reference search (shortest_path(): Dijkstra, or
  /// Bellman-Ford rounds under a hop bound).
  kSearch,
};

/// One pair's best alternate, as the sweep emits it.  This is the sweep's
/// output record only: every consumer reads ResultColumns (from_pairs
/// transposes a sweep's vector once), which also holds the only definitions
/// of the paper's x axes, improvement(i) and ratio(i).
struct PairResult {
  topo::HostId a;
  topo::HostId b;
  double default_value = 0.0;
  double alternate_value = 0.0;
  /// Intermediate hosts of the best alternate path, in order from a to b.
  std::vector<topo::HostId> via;
  /// Uncertainty estimates (meaningful for kRtt and kLoss).
  stats::MeanEstimate default_estimate;
  stats::MeanEstimate alternate_estimate;
};

struct AnalyzerOptions {
  Metric metric = Metric::kRtt;
  /// Maximum number of intermediate hosts on an alternate path; 0 means
  /// unlimited (full shortest-path computation).  The paper restricts some
  /// analyses (medians, bandwidth) to one hop for tractability.
  int max_intermediate_hosts = 0;
  /// Worker threads for the per-pair sweep; <= 0 means
  /// util::default_thread_count(), 1 forces the serial path.  Results are
  /// bit-identical for every thread count.
  int threads = 0;
  /// Optional cancellation; polled before every sweep chunk (and at block
  /// boundaries inside the dense kernel).  Only the _checked entry point
  /// honours it — analyze_alternate_paths() aborts on cancellation.
  const CancelToken* cancel = nullptr;
  /// Alternate-path engine selection (see Kernel).
  Kernel kernel = Kernel::kAuto;
  /// Instruction-set path for the dense kernel (see SimdMode).  kAuto defers
  /// to PATHSEL_SIMD, then to runtime CPU detection.
  SimdMode simd = SimdMode::kAuto;
};

/// Computes the best alternate for every measured pair.  Pairs whose removal
/// disconnects A from B (no alternate exists) are omitted.
[[nodiscard]] std::vector<PairResult> analyze_alternate_paths(
    const PathTable& table, const AnalyzerOptions& options = {});

/// As analyze_alternate_paths(), but a tripped options.cancel surfaces as a
/// Status (kDeadlineExceeded or kCancelled) after the in-flight chunks drain;
/// partial results are discarded.
[[nodiscard]] Result<std::vector<PairResult>> analyze_alternate_paths_checked(
    const PathTable& table, const AnalyzerOptions& options = {});

/// Loss rates are clamped to this before composing or transforming, keeping
/// the -log(1 - p) additive weight finite for (near-)totally lossy hops.
inline constexpr double kMaxComposableLoss = 0.999;

/// Metric value of an edge (the graph weight before any transform).
[[nodiscard]] double edge_metric_value(const PathEdge& edge, Metric metric);

/// Additive shortest-path weight of a metric value: the value for RTT and
/// propagation, -log(1 - min(p, kMaxComposableLoss)) for loss.  Every search
/// graph (per-pair search, dense kernel, overlay) is weighed by this rule.
[[nodiscard]] double metric_weight(double value, Metric metric);

/// metric_weight() of edge_metric_value().
[[nodiscard]] double edge_weight(const PathEdge& edge, Metric metric);

/// A directed search-graph arc: its head node, the id of the undirected edge
/// it crosses and that edge's additive weight.
struct Arc {
  std::size_t to = 0;
  std::size_t edge = 0;
  double weight = 0.0;
};

/// Out-arcs per node, relaxed in list order with a strict `<`.
using ArcGraph = std::vector<std::vector<Arc>>;

/// The one hop-bounded shortest-path search (the per-pair sweep and the
/// overlay both run it): the edge ids, from `src`, of the least-weight path
/// to `dst` that avoids edge `skip` and has at most `max_edges` edges (0: no
/// bound); empty when dst is unreachable.  Unbounded, Dijkstra.  Bounded,
/// max_edges Bellman-Ford rounds over nodes in ascending index (ties go to
/// the smallest intermediate index, as in the dense kernel), with per-round
/// snapshots so the walk-back stays within the budget.
[[nodiscard]] std::vector<std::size_t> shortest_path(
    const ArcGraph& graph, std::size_t src, std::size_t dst,
    std::size_t max_edges, std::size_t skip);

/// Fills `out` from a reconstructed alternate path (edge sequence from a to
/// b, intermediate hosts in `via`).  Shared by the search and dense kernels
/// so both emit bit-identical PairResults for the same path.
void finish_pair_result(const PathEdge& direct,
                        std::span<const PathEdge* const> path_edges,
                        std::vector<topo::HostId> via, Metric metric,
                        PairResult& out);

/// Composed metric value along a sequence of edges (additive for RTT and
/// propagation; complement-product for loss).
[[nodiscard]] double compose_metric(std::span<const PathEdge* const> edges,
                                    Metric metric);

/// Uncertainty estimate for a composed path (delta method for loss).
[[nodiscard]] stats::MeanEstimate compose_estimate(
    std::span<const PathEdge* const> edges, Metric metric);

}  // namespace pathsel::core
