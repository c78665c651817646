#include "core/dense_kernel.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "core/dense_kernel_impl.h"
#include "util/expect.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace pathsel::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Blocking geometry.  Rows are dealt out in fixed chunks of kRowChunk so the
// cell a result lands in never depends on the thread count; within a chunk
// the column range is tiled by kJBlock and the relay range by kKBlock, so
// one kKBlock × kJBlock tile of relayed weight rows (64 × 512 doubles =
// 256 KiB) stays L2-resident while it is applied to every row of the chunk,
// and each row's best/via slices (512 × 12 B) stay L1-hot across the k
// blocks of a column tile.  Tiling is invisible to the result: for every
// (i, j) cell the relays k still arrive in ascending order (j tiles merely
// partition the columns; k blocks ascend within each), so the strict-<
// tie-break — smallest relay index wins — is preserved exactly.
constexpr std::size_t kRowChunk = 8;
constexpr std::size_t kKBlock = 64;
constexpr std::size_t kJBlock = 512;

using RowKernel = void (*)(const double*, std::size_t, std::size_t,
                           std::size_t, std::size_t, std::size_t, std::size_t,
                           double*, std::int32_t*);

// PATHSEL_SIMD=auto|avx2|scalar; anything else warns once and means auto.
SimdMode simd_mode_from_env() noexcept {
  const char* env = std::getenv("PATHSEL_SIMD");
  if (env == nullptr || *env == '\0') return SimdMode::kAuto;
  if (std::strcmp(env, "auto") == 0) return SimdMode::kAuto;
  if (std::strcmp(env, "avx2") == 0) return SimdMode::kAvx2;
  if (std::strcmp(env, "scalar") == 0) return SimdMode::kScalar;
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true)) {
    std::fprintf(stderr,
                 "pathsel: ignoring unknown PATHSEL_SIMD value '%s' "
                 "(want auto|avx2|scalar)\n",
                 env);
  }
  return SimdMode::kAuto;
}

}  // namespace

namespace detail {

void min_plus_row_scalar(const double* w, std::size_t n, std::size_t i,
                         std::size_t k_begin, std::size_t k_end,
                         std::size_t j_begin, std::size_t j_end,
                         double* best_row, std::int32_t* via_row) {
  for (std::size_t k = k_begin; k < k_end; ++k) {
    const double w_ik = w[i * n + k];
    if (w_ik == kInf) continue;  // also skips k == i
    const double* w_k = w + k * n + j_begin;
    // k ascends across and within blocks and the improvement is strict, so
    // ties resolve to the smallest relay index.
    for (std::size_t j = 0; j < j_end - j_begin; ++j) {
      const double cand = w_ik + w_k[j];
      if (cand < best_row[j]) {
        best_row[j] = cand;
        via_row[j] = static_cast<std::int32_t>(k);
      }
    }
  }
}

}  // namespace detail

bool avx2_supported() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return detail::avx2_compiled() && __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

SimdMode resolve_simd_mode(SimdMode requested) noexcept {
  if (requested == SimdMode::kAuto) requested = simd_mode_from_env();
  if (requested == SimdMode::kAuto) requested = SimdMode::kAvx2;  // widest
  if (requested == SimdMode::kAvx2 && !avx2_supported()) {
    return SimdMode::kScalar;
  }
  return requested;
}

const char* simd_mode_name(SimdMode mode) noexcept {
  switch (mode) {
    case SimdMode::kAuto:
      return "auto";
    case SimdMode::kAvx2:
      return "avx2";
    case SimdMode::kScalar:
      return "scalar";
  }
  return "auto";
}

WeightMatrix build_weight_matrix(const PathTable& table, Metric metric) {
  const ScopedTimer timer{"core.alternate.dense.build_matrix"};
  WeightMatrix m;
  m.n = table.hosts().size();
  m.w.assign(m.n * m.n, kInf);
  for (const PathEdge& e : table.edges()) {
    const std::size_t i = table.host_index(e.a);
    const std::size_t j = table.host_index(e.b);
    const double weight = edge_weight(e, metric);
    m.w[i * m.n + j] = weight;
    m.w[j * m.n + i] = weight;
  }
  return m;
}

Result<MinPlusSquare> min_plus_square(const WeightMatrix& w, int threads,
                                      const CancelToken* cancel,
                                      SimdMode simd) {
  const ScopedTimer timer{"core.alternate.dense.min_plus"};
  const std::size_t n = w.n;
  PATHSEL_EXPECT(w.w.size() == n * n, "weight matrix shape mismatch");
  const SimdMode mode = resolve_simd_mode(simd);
  const RowKernel row_kernel = mode == SimdMode::kAvx2
                                   ? detail::min_plus_row_avx2
                                   : detail::min_plus_row_scalar;
  MinPlusSquare out;
  out.n = n;
  out.best.assign(n * n, kInf);
  out.via.assign(n * n, kNoRelay);

  ThreadPool& pool = ThreadPool::shared(resolve_thread_count(threads));
  const Status status = pool.parallel_for(
      n, kRowChunk,
      [&](std::size_t row_begin, std::size_t row_end, std::size_t) {
        for (std::size_t jj = 0; jj < n; jj += kJBlock) {
          const std::size_t j_end = std::min(n, jj + kJBlock);
          for (std::size_t kk = 0; kk < n; kk += kKBlock) {
            // Drain at tile boundaries: the partial rows are discarded by
            // the caller once the tripped token surfaces from parallel_for.
            if (cancel != nullptr && cancel->cancelled()) return;
            const std::size_t k_end = std::min(n, kk + kKBlock);
            for (std::size_t i = row_begin; i < row_end; ++i) {
              row_kernel(w.w.data(), n, i, kk, k_end, jj, j_end,
                         &out.best[i * n + jj], &out.via[i * n + jj]);
            }
          }
        }
      },
      cancel);
  if (!status.is_ok()) return status;
  MetricsRegistry& m = MetricsRegistry::global();
  if (m.enabled()) {
    m.count("core.alternate.kernel.cells", n * n);
    // Gauge, not a counter: the ISA taken varies by machine and PATHSEL_SIMD,
    // and the perf-regression gate compares counters exactly.
    m.set_gauge("core.alternate.kernel.avx2",
                mode == SimdMode::kAvx2 ? 1.0 : 0.0);
  }
  return out;
}

std::int32_t min_plus_relay(const WeightMatrix& w, std::size_t i,
                            std::size_t j) {
  double best = kInf;
  std::int32_t via = kNoRelay;
  detail::min_plus_row_scalar(w.w.data(), w.n, i, 0, w.n, j, j + 1, &best,
                              &via);
  return via;
}

PairResult one_hop_result(const PathTable& table, const PathEdge& direct,
                          std::int32_t relay, Metric metric) {
  const topo::HostId host = table.hosts()[static_cast<std::size_t>(relay)];
  const PathEdge* first = table.find(direct.a, host);
  const PathEdge* second = table.find(host, direct.b);
  PATHSEL_EXPECT(first != nullptr && second != nullptr,
                 "arg-min relay lost its edges");
  const PathEdge* path_edges[] = {first, second};
  PairResult r;
  finish_pair_result(direct, path_edges, {host}, metric, r);
  return r;
}

bool dense_kernel_applicable(std::size_t hosts, std::size_t edges,
                             const AnalyzerOptions& options) {
  if (options.max_intermediate_hosts != 1) return false;
  switch (options.kernel) {
    case Kernel::kSearch:
      return false;
    case Kernel::kDense:
      return true;
    case Kernel::kAuto:
      break;
  }
  if (hosts < kDenseMinHosts) return false;
  if (dense_kernel_memory_bytes(hosts) > kDenseDefaultMemoryBudget) {
    return false;
  }
  const double search_cost = 2.0 * static_cast<double>(edges) *
                             static_cast<double>(edges);
  const double kernel_cost = static_cast<double>(hosts) *
                             static_cast<double>(hosts) *
                             static_cast<double>(hosts);
  return search_cost >= kDenseCostRatio * kernel_cost;
}

Result<std::vector<PairResult>> analyze_alternate_paths_dense(
    const PathTable& table, const AnalyzerOptions& options) {
  PATHSEL_EXPECT(options.max_intermediate_hosts == 1,
                 "dense kernel requires max_intermediate_hosts == 1");
  const WeightMatrix w = build_weight_matrix(table, options.metric);
  Result<MinPlusSquare> squared =
      min_plus_square(w, options.threads, options.cancel, options.simd);
  if (!squared.is_ok()) return squared.status();
  const MinPlusSquare& mp = squared.value();

  // Emit in edge order — the order the search sweep merges its chunks in —
  // through the shared composition helpers, so the vector is bit-identical
  // to the reference's.
  const ScopedTimer timer{"core.alternate.dense.emit"};
  const std::size_t n = mp.n;
  std::vector<PairResult> results;
  results.reserve(table.edges().size());
  std::size_t polled = 0;
  for (const PathEdge& direct : table.edges()) {
    if (options.cancel != nullptr && (polled++ & 0x3ff) == 0 &&
        options.cancel->cancelled()) {
      return options.cancel->status();
    }
    const std::size_t i = table.host_index(direct.a);
    const std::size_t j = table.host_index(direct.b);
    const std::int32_t k = mp.via[i * n + j];
    if (k == kNoRelay) continue;  // no relay host: removal disconnects
    results.push_back(one_hop_result(table, direct, k, options.metric));
  }
  return results;
}

}  // namespace pathsel::core
