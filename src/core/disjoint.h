// k-disjoint alternate paths — Suurballe/Bhandari over the measured mesh.
//
// The alternate-path analysis (core/alternate.h) answers "is there a better
// path than the default?"; this module answers the availability question the
// Qazi & Moors line of work raises: does the alternate you precomputed
// *survive* the failure that made you need it?  For every measured host pair
// (A, B) it computes up to k mutually link-disjoint (or node-disjoint, via
// node splitting) alternate paths avoiding the direct edge, minimizing the
// total additive weight over the same per-metric weight space the dense
// kernel and the reference search share (core/alternate.h edge_weight:
// RTT/propagation add, loss composes in -log(1-p) space).
//
// Algorithm: Suurballe's, in Bhandari's successive-shortest-paths form.  A
// sweep builds one residual mesh from the table (a dense hosts x hosts
// matrix of edge indices plus the edge weights) and shares it read-only;
// each pair keeps only its flow, one signed byte per edge, and a potential
// per node.  An unused edge offers arcs both ways at +w; a used one offers
// only the reverse of its flow at -w, so a later path can "cancel" it (the
// interlacing step).  Each augmentation is one dense Dijkstra on the
// reduced costs w + pi(u) - pi(v), which the potentials keep >= 0.  After j
// augmentations the used edges decompose into exactly j pairwise disjoint
// paths whose total weight is minimal over all sets of j disjoint paths —
// the classic min-cost-flow guarantee, which the differential test suite
// checks against brute-force enumeration and a Bellman-Ford oracle.
//
// Determinism: Dijkstra settles the unsettled node of smallest distance
// (ties: smallest node), scans neighbours in ascending host index, relaxes
// with strict < and clamps a rounding-negative reduced cost to 0; path
// decomposition always follows the smallest-index host the flow leaves
// towards; and the per-pair sweep runs on the shared ThreadPool in
// fixed-size chunks merged in index order — results are bit-identical for
// every thread count (same convention as the alternate sweep and the dense
// kernel).  Where several disjoint sets share the minimal total weight, this
// rule picks one of them; found_k and total_weight do not depend on it.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/alternate.h"
#include "core/path_table.h"

namespace pathsel::core {

enum class DisjointMode {
  /// Paths share no undirected overlay edge (measured host pair).
  kLinkDisjoint,
  /// Paths additionally share no intermediate host (node splitting).
  kNodeDisjoint,
};

[[nodiscard]] const char* to_string(DisjointMode mode) noexcept;

struct DisjointOptions {
  Metric metric = Metric::kRtt;
  /// Number of mutually disjoint alternates requested per pair; must satisfy
  /// 1 <= k <= hosts - 2 (see validate_disjoint_k).
  int k = 2;
  DisjointMode mode = DisjointMode::kLinkDisjoint;
  /// Worker threads for the per-pair sweep; <= 0 means
  /// util::default_thread_count(), 1 forces the serial path.  Results are
  /// bit-identical for every thread count.
  int threads = 0;
  /// Optional cancellation; polled before every sweep chunk.
  const CancelToken* cancel = nullptr;
};

/// One disjoint alternate path for a pair.
struct DisjointPath {
  /// Composed metric value (additive for RTT/propagation, 1 - prod(1 - p)
  /// for loss) — directly comparable to PairResult::alternate_value.
  double value = 0.0;
  /// Intermediate hosts in order from a to b (empty never occurs: the
  /// direct edge is excluded, so every alternate has at least one relay).
  std::vector<topo::HostId> via;
};

/// Disjoint alternates for one measured pair.  found_k() may be smaller
/// than requested_k when the mesh simply has fewer disjoint paths (a
/// graph-theoretic limit, reported rather than erred on); zero means the
/// pair is disconnected once the direct edge is removed.
struct PairDisjointResult {
  topo::HostId a;
  topo::HostId b;
  double default_value = 0.0;
  int requested_k = 0;
  /// Found paths sorted best-first (by composed value, then lexicographic
  /// relay sequence).  Pairwise link-/node-disjoint per DisjointOptions.
  std::vector<DisjointPath> paths;
  /// Sum of additive weights over all found paths — the Suurballe objective
  /// (minimal over every set of found_k() disjoint paths).
  double total_weight = 0.0;

  [[nodiscard]] int found_k() const noexcept {
    return static_cast<int>(paths.size());
  }
};

/// Validates a requested k against the graph size: a simple graph on N
/// hosts cannot hold more than N - 2 paths between a pair that are mutually
/// disjoint *and* avoid the direct edge, so larger requests are caller
/// errors (kInvalidArgument), not quietly truncated output.
[[nodiscard]] Status validate_disjoint_k(int k, std::size_t hosts);

/// Computes up to k disjoint alternates for every measured pair.  Pairs
/// appear in table.edges() order; disconnected pairs are included with an
/// empty path list so "requested k / found k" accounting sees them.
/// Cancellation surfaces as kDeadlineExceeded/kCancelled with partial
/// results discarded; an invalid k surfaces as kInvalidArgument.
[[nodiscard]] Result<std::vector<PairDisjointResult>>
compute_disjoint_alternates(const PathTable& table,
                            const DisjointOptions& options = {});

/// Disjoint alternates for a single measured pair — the same computation the
/// sweep above runs for that pair, bit for bit, packaged for the online serve
/// engine's point queries.  `direct` must be an edge of `table`
/// (find()-returned).  k is validated against the table (kInvalidArgument);
/// options.cancel is polled before the computation starts and again before
/// the result is released, so a per-query deadline token bounds the answer at
/// single-pair granularity (kDeadlineExceeded/kCancelled, result discarded).
/// options.threads is ignored — one pair is one unit of work.
[[nodiscard]] Result<PairDisjointResult> compute_disjoint_for_pair(
    const PathTable& table, const PathEdge& direct,
    const DisjointOptions& options = {});

/// Renders the canonical disjoint-report rows — header line plus one
/// `a b requested_k found_k default_value best_value total_weight` row per
/// pair (%.6g values, best_value -1 for disconnected pairs) — with the given
/// separator ('\t' for the campaign TSV, ',' for --csv).  The single
/// formatter behind both report paths, pinned by a golden so the row schema
/// cannot drift between them.
[[nodiscard]] std::string render_disjoint_rows(
    std::span<const PairDisjointResult> results, char sep);

/// The `# disjoint alternates: dataset=... mode=... k=... metric=...
/// min_samples=...` line (newline included) that heads every
/// `.disjoint.tsv` report, campaign and matrix cell alike.
[[nodiscard]] std::string render_disjoint_header(const std::string& dataset,
                                                 const DisjointOptions& options,
                                                 int min_samples);

}  // namespace pathsel::core
