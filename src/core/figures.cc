#include "core/figures.h"

#include <cstddef>
#include <vector>

#include "util/thread_pool.h"

namespace pathsel::core {

namespace {

// Fixed chunking keeps the merged value vector identical for every thread
// count; EmpiricalCdf then sees the same input a serial loop would build.
constexpr std::size_t kChunk = 1024;

// Sweeps index a size()/value(i) view, so the columnar container and the
// Bandwidth AoS vector share one implementation (and one chunking scheme).
template <typename ValueFn>
stats::EmpiricalCdf sweep_cdf(std::size_t n, int threads, ValueFn&& value) {
  ThreadPool& pool = ThreadPool::shared(resolve_thread_count(threads));
  return stats::EmpiricalCdf{pool.map_chunks<double>(
      n, kChunk, [&](std::size_t begin, std::size_t end, std::size_t) {
        std::vector<double> local;
        local.reserve(end - begin);
        for (std::size_t i = begin; i < end; ++i) local.push_back(value(i));
        return local;
      })};
}

template <typename ImprovementFn>
double sweep_fraction_improved(std::size_t n, int threads,
                               ImprovementFn&& improvement) {
  if (n == 0) return 0.0;
  ThreadPool& pool = ThreadPool::shared(resolve_thread_count(threads));
  std::vector<std::size_t> counts(ThreadPool::chunk_count(n, kChunk), 0);
  pool.parallel_for(n, kChunk,
                    [&](std::size_t begin, std::size_t end, std::size_t chunk) {
                      std::size_t improved = 0;
                      for (std::size_t i = begin; i < end; ++i) {
                        improved += improvement(i) > 0.0 ? 1u : 0u;
                      }
                      counts[chunk] = improved;
                    });
  std::size_t improved = 0;
  for (const std::size_t c : counts) improved += c;
  return static_cast<double>(improved) / static_cast<double>(n);
}

}  // namespace

stats::EmpiricalCdf improvement_cdf(const ResultColumns& results,
                                    int threads) {
  return sweep_cdf(results.size(), threads,
                   [&](std::size_t i) { return results.improvement(i); });
}

stats::EmpiricalCdf ratio_cdf(const ResultColumns& results, int threads) {
  return sweep_cdf(results.size(), threads,
                   [&](std::size_t i) { return results.ratio(i); });
}

stats::EmpiricalCdf bandwidth_improvement_cdf(
    std::span<const BandwidthPairResult> results, int threads) {
  return sweep_cdf(results.size(), threads,
                   [&](std::size_t i) { return results[i].improvement(); });
}

stats::EmpiricalCdf bandwidth_ratio_cdf(
    std::span<const BandwidthPairResult> results, int threads) {
  return sweep_cdf(results.size(), threads,
                   [&](std::size_t i) { return results[i].ratio(); });
}

double fraction_improved(const ResultColumns& results, int threads) {
  return sweep_fraction_improved(
      results.size(), threads,
      [&](std::size_t i) { return results.improvement(i); });
}

double fraction_improved(std::span<const BandwidthPairResult> results,
                         int threads) {
  return sweep_fraction_improved(
      results.size(), threads,
      [&](std::size_t i) { return results[i].improvement(); });
}

}  // namespace pathsel::core
