#include "core/confidence.h"

#include <algorithm>
#include <array>

#include "util/expect.h"
#include "util/thread_pool.h"

namespace pathsel::core {

namespace {

// Fixed chunking; per-chunk outputs merge in index order, so every sweep is
// bit-identical for every thread count.
constexpr std::size_t kChunk = 256;

}  // namespace

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

SignificanceTally tally_significance(const ResultColumns& results) {
  SignificanceTally tally;
  tally.pairs = results.size();
  if (results.empty()) return tally;
  // Counts indexed by SignificanceClass: {better, worse, indeterminate, zero}.
  std::array<std::size_t, 4> total{};
  for (const std::int8_t verdict : results.significance) {
    PATHSEL_EXPECT(verdict >= 0, "tally of an unannotated significance column");
    ++total[static_cast<std::size_t>(verdict)];
  }
  const auto n = static_cast<double>(results.size());
  tally.better = static_cast<double>(total[0]) / n;
  tally.worse = static_cast<double>(total[1]) / n;
  tally.indeterminate = static_cast<double>(total[2]) / n;
  tally.zero = static_cast<double>(total[3]) / n;
  return tally;
}

std::vector<CiPoint> confidence_cdf(const ResultColumns& results,
                                    double confidence, int threads) {
  ThreadPool& pool = ThreadPool::shared(resolve_thread_count(threads));
  std::vector<CiPoint> points = pool.map_chunks<CiPoint>(
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
      });
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

}  // namespace pathsel::core
