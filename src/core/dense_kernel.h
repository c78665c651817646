// Dense min-plus alternate-path kernel.
//
// The paper's headline sweep (§4–§5) asks, for every measured pair (A, B),
// for the best synthetic alternate path.  Restricted to one intermediate
// host — where detour studies (Andersen et al., RON) place nearly all of the
// win — the whole sweep collapses into a single algebraic object: the
// min-plus square of the N×N edge-weight matrix,
//
//   best[i][j] = min_k  w[i][k] + w[k][j],
//
// computed for all pairs simultaneously with a cache-blocked O(N³) kernel
// instead of one O(E)-per-round Bellman-Ford per pair (O(E²) total, ~O(N⁴)
// on dense meshes).  Missing edges and the diagonal carry +inf, which makes
// the algebra self-policing: k = i and k = j contribute inf, so no relay
// degenerates to an endpoint, and a two-edge relay path i–k–j can never
// contain the direct edge i–j, so — unlike the general search — the direct
// edge needs no explicit exclusion.
//
// Determinism: the arg-min scans k in ascending host index with a strict
// `<`, so among equal-cost relays the smallest host index wins — the same
// tie-break the reference Bellman-Ford applies — and rows are partitioned
// into fixed-size chunks, so results are bit-identical for every thread
// count.  The differential suite (tests/core/dense_kernel_diff_test.cc)
// locks the kernel to the reference search, pair for pair.
#pragma once

#include <cstdint>
#include <vector>

#include "core/alternate.h"
#include "core/path_table.h"

namespace pathsel::core {

/// Flat row-major N×N matrix of additive shortest-path weights (see
/// edge_weight()): w[i*n + j] is the weight of the measured edge between
/// hosts i and j, +inf where no edge survives the filters and on the
/// diagonal.
struct WeightMatrix {
  std::size_t n = 0;
  std::vector<double> w;

  [[nodiscard]] double at(std::size_t i, std::size_t j) const noexcept {
    return w[i * n + j];
  }
};

/// Builds the weight matrix for a metric from the table's surviving edges.
[[nodiscard]] WeightMatrix build_weight_matrix(const PathTable& table,
                                               Metric metric);

/// via[] value for cells with no finite relay.
inline constexpr std::int32_t kNoRelay = -1;

/// One min-plus squaring of a weight matrix, with arg-min tracking:
/// best[i*n+j] = min_k w[i][k] + w[k][j] and via[i*n+j] the smallest k
/// attaining it (kNoRelay when every candidate is +inf).
struct MinPlusSquare {
  std::size_t n = 0;
  std::vector<double> best;
  std::vector<std::int32_t> via;
};

/// Computes the min-plus square with the blocked, chunk-parallel kernel.
/// `threads` follows AnalyzerOptions::threads semantics; `cancel` (may be
/// null) is polled at block boundaries and the partial result is discarded
/// when it trips; `simd` selects the inner-loop instruction path (see
/// SimdMode).  Output is bit-identical for every thread count and every
/// SIMD mode.
[[nodiscard]] Result<MinPlusSquare> min_plus_square(
    const WeightMatrix& w, int threads = 0,
    const CancelToken* cancel = nullptr, SimdMode simd = SimdMode::kAuto);

/// The arg-min relay of one min-plus cell: via[i*n+j] of min_plus_square,
/// computed alone by the same scalar loop over the single column j, for
/// callers that refresh one pair at a time (serve::ServeEngine).
[[nodiscard]] std::int32_t min_plus_relay(const WeightMatrix& w,
                                          std::size_t i, std::size_t j);

/// The one-hop PairResult for `direct` relayed through host index `relay`
/// (a via[] value, never kNoRelay): the emit step every one-hop sweep shares.
[[nodiscard]] PairResult one_hop_result(const PathTable& table,
                                        const PathEdge& direct,
                                        std::int32_t relay, Metric metric);

// ---- SIMD dispatch ---------------------------------------------------------

/// Whether this binary carries the AVX2 inner loop AND the CPU executes
/// AVX2.  False on non-x86 builds, on toolchains without -mavx2, and on
/// pre-Haswell hardware.
[[nodiscard]] bool avx2_supported() noexcept;

/// The instruction path min_plus_square() actually runs for `requested`:
/// kAvx2 when requested (or kAuto resolves there) and avx2_supported(),
/// kScalar otherwise.  kAuto consults PATHSEL_SIMD=auto|avx2|scalar first
/// (unknown values warn once and mean auto), then CPU detection.  Never
/// returns kAuto.
[[nodiscard]] SimdMode resolve_simd_mode(SimdMode requested) noexcept;

/// "avx2" / "scalar" / "auto", for logs and bench reports.
[[nodiscard]] const char* simd_mode_name(SimdMode mode) noexcept;

// ---- Auto-selection heuristic ----------------------------------------------

/// Bytes the dense kernel needs for an N-host sweep: the N×N weight matrix
/// plus the best and via output planes.  The transient PairResult emission
/// is O(E) on top and not counted.
[[nodiscard]] constexpr std::size_t dense_kernel_memory_bytes(
    std::size_t hosts) noexcept {
  return hosts * hosts *
         (2 * sizeof(double) + sizeof(std::int32_t));  // w + best + via
}

/// Auto-selection heuristic: whether the sweep described by `options` over a
/// table of `hosts`/`edges` should run on the dense kernel.  Kernel::kSearch
/// and multi-hop/unbounded sweeps always answer false; Kernel::kDense always
/// answers true (one-hop only); Kernel::kAuto compares the estimated
/// relaxation counts — ~2·E² for the per-pair search against ~N³ for the
/// kernel — and switches once the search is kDenseCostRatio times more
/// expensive, within the host-count and memory guards below.
[[nodiscard]] bool dense_kernel_applicable(std::size_t hosts,
                                           std::size_t edges,
                                           const AnalyzerOptions& options);

/// Auto-selection guards: below kDenseMinHosts the matrix setup dominates;
/// above kDenseDefaultMemoryBudget the O(N²) footprint is not worth trading
/// for the search's O(N) memory.  The budget admits meshes to ~14.6k hosts
/// (dense_kernel_memory_bytes(14650) ≈ 4.0 GiB), far inside the int32 range
/// of the via plane.  Kernel::kDense bypasses the budget (explicit opt-in).
inline constexpr std::size_t kDenseMinHosts = 32;
inline constexpr std::size_t kDenseDefaultMemoryBudget =
    std::size_t{4} << 30;  // 4 GiB
inline constexpr double kDenseCostRatio = 8.0;

/// One-hop alternate analysis through the dense kernel.  Produces the same
/// PairResult vector — same pairs, same order, same via, bit-identical
/// values — as the reference search with max_intermediate_hosts == 1 (which
/// the options must request; anything else aborts).
[[nodiscard]] Result<std::vector<PairResult>> analyze_alternate_paths_dense(
    const PathTable& table, const AnalyzerOptions& options);

}  // namespace pathsel::core
