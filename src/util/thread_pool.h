// Deterministic data parallelism.
//
// The analysis layer is dominated by embarrassingly parallel sweeps over host
// pairs (one shortest-path search or t-test per pair).  ThreadPool runs such
// sweeps across worker threads while keeping results bit-identical to a
// serial run: work is split into fixed-size chunks whose boundaries depend
// only on (n, chunk_size) — never on the thread count — each chunk is
// computed independently, and per-chunk outputs are merged in chunk-index
// order.  Because no floating-point operation crosses a chunk boundary, the
// same chunks produce the same bits no matter which thread runs them or in
// what order they finish.
//
// Stochastic chunk functions must not share a generator across chunks; fork
// a per-chunk Rng from the chunk index (util/rng's Rng::fork) so streams are
// independent of scheduling.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <iterator>
#include <mutex>
#include <thread>
#include <vector>

#include "util/cancel.h"
#include "util/status.h"

namespace pathsel {

/// Worker threads available on this machine; always >= 1.
[[nodiscard]] unsigned hardware_thread_count() noexcept;

/// The PATHSEL_THREADS environment override if it is a whole number in
/// 1..4096, else hardware_thread_count().
[[nodiscard]] unsigned default_thread_count() noexcept;

/// Maps an options-style thread knob to an executor count: values <= 0 mean
/// "use default_thread_count()", anything else is taken literally.
[[nodiscard]] unsigned resolve_thread_count(int requested) noexcept;

class ThreadPool {
 public:
  /// A pool executing work on `threads` executors in total, the calling
  /// thread included (parallel_for blocks, so the caller always works too).
  /// `threads` == 0 means default_thread_count(); `threads` == 1 spawns no
  /// workers and runs everything inline on the caller.
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Lazily-created process-wide pool with `threads` executors (0 means
  /// default_thread_count()).  Built on first use and rebuilt only when a
  /// different executor count is requested, so sequential sweeps that agree
  /// on the thread count share one set of workers instead of spawning and
  /// joining threads per call.  A rebuild invalidates previously returned
  /// references; take the reference fresh per sweep and do not run sweeps on
  /// it concurrently (parallel_for is not reentrant).
  [[nodiscard]] static ThreadPool& shared(unsigned threads = 0);

  /// Total executor count (workers + the calling thread); always >= 1.
  [[nodiscard]] unsigned thread_count() const noexcept {
    return static_cast<unsigned>(workers_.size()) + 1;
  }

  /// Number of chunks parallel_for will produce for a range of n items.
  [[nodiscard]] static std::size_t chunk_count(std::size_t n,
                                               std::size_t chunk_size) noexcept {
    return chunk_size == 0 ? 0 : (n + chunk_size - 1) / chunk_size;
  }

  /// Splits [0, n) into chunks of `chunk_size` (the last may be short) and
  /// calls fn(begin, end, chunk_index) exactly once per chunk, in parallel.
  /// Blocks until every chunk has completed.  If chunk functions throw, the
  /// exception of the lowest-index throwing chunk is rethrown here; whether
  /// chunks after a throwing one ran is unspecified.  Requires chunk_size > 0
  /// when n > 0.  Reentrant from the chunk function is not supported.
  void parallel_for(
      std::size_t n, std::size_t chunk_size,
      const std::function<void(std::size_t, std::size_t, std::size_t)>& fn);

  /// Cancellable parallel_for: executors poll `cancel` before claiming each
  /// chunk, so cancellation drains at chunk boundaries — chunks already in
  /// flight complete, unclaimed chunks never start, and every enqueued helper
  /// is joined before returning (no leaked tasks).  Returns cancel->status()
  /// (kDeadlineExceeded or kCancelled) when the token tripped, in which case
  /// an unspecified subset of chunks ran and the caller must discard partial
  /// output; ok() when every chunk completed.  `cancel` may be null.
  [[nodiscard]] Status parallel_for(
      std::size_t n, std::size_t chunk_size,
      const std::function<void(std::size_t, std::size_t, std::size_t)>& fn,
      const CancelToken* cancel);

  /// Deterministic chunked map-reduce: maps each chunk [begin, end) to a
  /// std::vector<T> and concatenates the per-chunk vectors in chunk-index
  /// order, i.e. exactly the vector a serial in-order loop would build.
  template <typename T, typename MapFn>
  [[nodiscard]] std::vector<T> map_chunks(std::size_t n, std::size_t chunk_size,
                                          MapFn&& map_fn) {
    std::vector<std::vector<T>> per_chunk(chunk_count(n, chunk_size));
    parallel_for(n, chunk_size,
                 [&](std::size_t begin, std::size_t end, std::size_t chunk) {
                   per_chunk[chunk] = map_fn(begin, end, chunk);
                 });
    std::size_t total = 0;
    for (const auto& v : per_chunk) total += v.size();
    std::vector<T> out;
    out.reserve(total);
    for (auto& v : per_chunk) {
      out.insert(out.end(), std::make_move_iterator(v.begin()),
                 std::make_move_iterator(v.end()));
    }
    return out;
  }

  /// Cancellable map_chunks: as above, but cancellation surfaces as a Status
  /// and the partially merged output is discarded.
  template <typename T, typename MapFn>
  [[nodiscard]] Result<std::vector<T>> map_chunks(std::size_t n,
                                                  std::size_t chunk_size,
                                                  MapFn&& map_fn,
                                                  const CancelToken* cancel) {
    std::vector<std::vector<T>> per_chunk(chunk_count(n, chunk_size));
    const Status status = parallel_for(
        n, chunk_size,
        [&](std::size_t begin, std::size_t end, std::size_t chunk) {
          per_chunk[chunk] = map_fn(begin, end, chunk);
        },
        cancel);
    if (!status.is_ok()) return status;
    std::size_t total = 0;
    for (const auto& v : per_chunk) total += v.size();
    std::vector<T> out;
    out.reserve(total);
    for (auto& v : per_chunk) {
      out.insert(out.end(), std::make_move_iterator(v.begin()),
                 std::make_move_iterator(v.end()));
    }
    return out;
  }

 private:
  void worker_loop(unsigned executor_index);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<std::function<void()>> tasks_;
  bool stopping_ = false;
};

}  // namespace pathsel
