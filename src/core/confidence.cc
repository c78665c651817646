#include "core/confidence.h"

#include <algorithm>
#include <array>

#include "util/expect.h"
#include "util/thread_pool.h"

namespace pathsel::core {

namespace {

// Fixed chunking; per-chunk outputs merge in index order, so both sweeps are
// bit-identical for every thread count (the tallies are integer sums).
constexpr std::size_t kChunk = 256;

}  // namespace

SignificanceTally classify_significance(const ResultColumns& results,
                                        double confidence, int threads) {
  Result<SignificanceTally> tally =
      classify_significance_checked(results, confidence, threads);
  PATHSEL_EXPECT(tally.is_ok(), "significance sweep cancelled");
  return tally.value();
}

SignificanceTally classify_significance(std::span<const PairResult> results,
                                        double confidence, int threads) {
  return classify_significance(from_pairs(results, Metric::kRtt), confidence,
                               threads);
}

Result<SignificanceTally> classify_significance_checked(
    const ResultColumns& results, double confidence, int threads,
    const CancelToken* cancel) {
  SignificanceTally tally;
  tally.pairs = results.size();
  if (results.empty()) return tally;

  // Per-chunk counts indexed by SignificanceClass: {better, worse,
  // indeterminate, zero}.
  ThreadPool& pool = ThreadPool::shared(resolve_thread_count(threads));
  std::vector<std::array<std::size_t, 4>> counts(
      ThreadPool::chunk_count(results.size(), kChunk));
  const Status status = pool.parallel_for(
      results.size(), kChunk,
      [&](std::size_t begin, std::size_t end, std::size_t chunk) {
        std::array<std::size_t, 4> local{};
        for (std::size_t i = begin; i < end; ++i) {
          ++local[static_cast<std::size_t>(
              classify_pair(results, i, confidence))];
        }
        counts[chunk] = local;
      },
      cancel);
  if (!status.is_ok()) return status;
  std::array<std::size_t, 4> total{};
  for (const auto& c : counts) {
    for (std::size_t i = 0; i < total.size(); ++i) total[i] += c[i];
  }
  const auto n = static_cast<double>(results.size());
  tally.better = static_cast<double>(total[0]) / n;
  tally.worse = static_cast<double>(total[1]) / n;
  tally.indeterminate = static_cast<double>(total[2]) / n;
  tally.zero = static_cast<double>(total[3]) / n;
  return tally;
}

Result<SignificanceTally> classify_significance_checked(
    std::span<const PairResult> results, double confidence, int threads,
    const CancelToken* cancel) {
  return classify_significance_checked(from_pairs(results, Metric::kRtt),
                                       confidence, threads, cancel);
}

SignificanceClass classify_pair(const ResultColumns& results, std::size_t i,
                                double confidence) {
  switch (stats::welch_verdict(results.default_estimate(i),
                               results.alternate_estimate(i), confidence)) {
    case stats::Significance::kBetter:
      return SignificanceClass::kBetter;
    case stats::Significance::kWorse:
      return SignificanceClass::kWorse;
    case stats::Significance::kIndeterminate:
      return SignificanceClass::kIndeterminate;
    case stats::Significance::kZero:
      return SignificanceClass::kZero;
  }
  return SignificanceClass::kIndeterminate;
}

Status annotate_significance(ResultColumns& results, double confidence,
                             int threads, const CancelToken* cancel) {
  if (results.empty()) return Status::ok();
  // Chunks write disjoint index ranges of the significance column, so the
  // sweep is race-free and its output thread-count-invariant by layout.
  ThreadPool& pool = ThreadPool::shared(resolve_thread_count(threads));
  return pool.parallel_for(
      results.size(), kChunk,
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t i = begin; i < end; ++i) {
          results.significance[i] =
              static_cast<std::int8_t>(classify_pair(results, i, confidence));
        }
      },
      cancel);
}

std::vector<CiPoint> confidence_cdf(const ResultColumns& results,
                                    double confidence, int threads) {
  Result<std::vector<CiPoint>> points =
      confidence_cdf_checked(results, confidence, threads);
  PATHSEL_EXPECT(points.is_ok(), "confidence CDF sweep cancelled");
  return std::move(points.value());
}

std::vector<CiPoint> confidence_cdf(std::span<const PairResult> results,
                                    double confidence, int threads) {
  return confidence_cdf(from_pairs(results, Metric::kRtt), confidence,
                        threads);
}

Result<std::vector<CiPoint>> confidence_cdf_checked(
    const ResultColumns& results, double confidence, int threads,
    const CancelToken* cancel) {
  ThreadPool& pool = ThreadPool::shared(resolve_thread_count(threads));
  Result<std::vector<CiPoint>> mapped = pool.map_chunks<CiPoint>(
      results.size(), kChunk,
      [&](std::size_t begin, std::size_t end, std::size_t) {
        std::vector<CiPoint> local;
        local.reserve(end - begin);
        for (std::size_t i = begin; i < end; ++i) {
          const auto t = stats::welch_ttest(results.default_estimate(i),
                                            results.alternate_estimate(i),
                                            confidence);
          local.push_back(CiPoint{t.difference, 0.0, t.half_width});
        }
        return local;
      },
      cancel);
  if (!mapped.is_ok()) return mapped.status();
  std::vector<CiPoint> points = std::move(mapped.value());
  std::sort(points.begin(), points.end(),
            [](const CiPoint& x, const CiPoint& y) {
              return x.difference < y.difference;
            });
  for (std::size_t i = 0; i < points.size(); ++i) {
    points[i].fraction =
        static_cast<double>(i + 1) / static_cast<double>(points.size());
  }
  return points;
}

Result<std::vector<CiPoint>> confidence_cdf_checked(
    std::span<const PairResult> results, double confidence, int threads,
    const CancelToken* cancel) {
  return confidence_cdf_checked(from_pairs(results, Metric::kRtt), confidence,
                                threads, cancel);
}

}  // namespace pathsel::core
