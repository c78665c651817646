#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>

#include "util/codec.h"
#include "util/expect.h"
#include "util/metrics.h"

namespace pathsel {

namespace {

// Executor index of the current thread: 0 for any thread calling
// parallel_for, 1..N for pool workers.  Used only to label per-executor
// busy-time gauges.
thread_local unsigned t_executor_index = 0;

void record_chunk_busy(std::uint64_t busy_ns) {
  MetricsRegistry& m = MetricsRegistry::global();
  m.count("util.thread_pool.chunks_executed");
  m.add_gauge("util.thread_pool.executor_busy_ms." +
                  std::to_string(t_executor_index),
              static_cast<double>(busy_ns) / 1e6);
}

}  // namespace

unsigned hardware_thread_count() noexcept {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

unsigned default_thread_count() noexcept {
  // 4096 is the bound analyze --threads and serve --threads enforce.
  if (const char* env = std::getenv("PATHSEL_THREADS")) {
    unsigned n = 0;
    if (codec::parse_int(env, n) && n >= 1 && n <= 4096) return n;
  }
  return hardware_thread_count();
}

unsigned resolve_thread_count(int requested) noexcept {
  return requested <= 0 ? default_thread_count()
                        : static_cast<unsigned>(requested);
}

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) threads = default_thread_count();
  workers_.reserve(threads - 1);
  for (unsigned i = 1; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool& ThreadPool::shared(unsigned threads) {
  static std::mutex mutex;
  static std::unique_ptr<ThreadPool> pool;
  if (threads == 0) threads = default_thread_count();
  const std::lock_guard<std::mutex> lock{mutex};
  if (!pool || pool->thread_count() != threads) {
    pool = std::make_unique<ThreadPool>(threads);
  }
  return *pool;
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    stopping_ = true;
  }
  ready_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::worker_loop(unsigned executor_index) {
  t_executor_index = executor_index;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock{mutex_};
      ready_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stopping, queue drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

void ThreadPool::parallel_for(
    std::size_t n, std::size_t chunk_size,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  const Status status = parallel_for(n, chunk_size, fn, nullptr);
  PATHSEL_EXPECT(status.is_ok(), "uncancellable parallel_for cancelled");
}

Status ThreadPool::parallel_for(
    std::size_t n, std::size_t chunk_size,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn,
    const CancelToken* cancel) {
  if (n == 0) return Status::ok();
  PATHSEL_EXPECT(chunk_size > 0, "parallel_for requires chunk_size > 0");
  const std::size_t chunks = chunk_count(n, chunk_size);
  const bool metered = MetricsRegistry::global().enabled();
  if (metered) {
    MetricsRegistry::global().count("util.thread_pool.parallel_for_calls");
  }

  auto run_chunk = [&](std::size_t c) {
    const std::uint64_t start = metered ? wall_clock_ns() : 0;
    fn(c * chunk_size, std::min(n, (c + 1) * chunk_size), c);
    if (metered) record_chunk_busy(wall_clock_ns() - start);
  };

  if (workers_.empty() || chunks == 1) {
    for (std::size_t c = 0; c < chunks; ++c) {
      if (cancel != nullptr && cancel->cancelled()) return cancel->status();
      run_chunk(c);
    }
    return Status::ok();
  }

  // Executors claim chunk indices from a shared counter; which thread runs a
  // chunk affects nothing but timing because outputs are indexed by chunk.
  // A tripped cancel token stops executors from claiming further chunks;
  // chunks already claimed run to completion (drain at chunk boundaries).
  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors(chunks);
  auto drain = [&] {
    for (std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
         c < chunks; c = next.fetch_add(1, std::memory_order_relaxed)) {
      if (cancel != nullptr && cancel->cancelled()) return;
      try {
        run_chunk(c);
      } catch (...) {
        errors[c] = std::current_exception();
      }
    }
  };

  // The helpers reference this frame, so the caller waits until every
  // enqueued helper has finished (even ones that find no chunks left).
  const std::size_t helper_count = std::min(workers_.size(), chunks - 1);
  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::size_t helpers_remaining = helper_count;
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    for (std::size_t i = 0; i < helper_count; ++i) {
      tasks_.emplace_back([&] {
        drain();
        // Notify while still holding done_mutex: the waiting caller cannot
        // observe helpers_remaining == 0 (and destroy done_cv/done_mutex on
        // frame exit) until this helper releases the lock, which happens
        // only after notify_one has returned.
        const std::lock_guard<std::mutex> done_lock{done_mutex};
        --helpers_remaining;
        done_cv.notify_one();
      });
    }
  }
  if (metered) {
    MetricsRegistry::global().count("util.thread_pool.tasks_enqueued",
                                    helper_count);
  }
  ready_.notify_all();

  drain();  // the calling thread is an executor too
  {
    std::unique_lock<std::mutex> done_lock{done_mutex};
    done_cv.wait(done_lock, [&] { return helpers_remaining == 0; });
  }

  for (std::size_t c = 0; c < chunks; ++c) {
    if (errors[c]) std::rethrow_exception(errors[c]);
  }
  if (cancel != nullptr && cancel->cancelled()) return cancel->status();
  return Status::ok();
}

}  // namespace pathsel
