#include "util/thread_pool.h"

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace pathsel {
namespace {

TEST(ThreadPool, ThreadCountResolution) {
  EXPECT_GE(hardware_thread_count(), 1u);
  EXPECT_GE(default_thread_count(), 1u);
  EXPECT_EQ(resolve_thread_count(4), 4u);
  EXPECT_EQ(resolve_thread_count(1), 1u);
  EXPECT_EQ(resolve_thread_count(0), default_thread_count());
  EXPECT_EQ(resolve_thread_count(-3), default_thread_count());
}

TEST(ThreadPool, EnvOverridesDefaultThreadCount) {
  ASSERT_EQ(setenv("PATHSEL_THREADS", "3", 1), 0);
  EXPECT_EQ(default_thread_count(), 3u);
  EXPECT_EQ(resolve_thread_count(0), 3u);
  // Anything but a whole number in 1..4096 falls back to the hardware count;
  // 4294967296 used to wrap to 0 and abort the pool's reserve(0u - 1).
  for (const char* bad :
       {"garbage", "4294967296", "100000", "12abc", "0", "-3"}) {
    ASSERT_EQ(setenv("PATHSEL_THREADS", bad, 1), 0);
    EXPECT_EQ(default_thread_count(), hardware_thread_count()) << bad;
  }
  ASSERT_EQ(unsetenv("PATHSEL_THREADS"), 0);
}

TEST(ThreadPool, ZeroThreadsMeansDefault) {
  ThreadPool pool{0};
  EXPECT_EQ(pool.thread_count(), default_thread_count());
}

TEST(ThreadPool, SingleThreadSpawnsNoWorkers) {
  ThreadPool pool{1};
  EXPECT_EQ(pool.thread_count(), 1u);
}

TEST(ThreadPool, ChunkCount) {
  EXPECT_EQ(ThreadPool::chunk_count(0, 4), 0u);
  EXPECT_EQ(ThreadPool::chunk_count(1, 4), 1u);
  EXPECT_EQ(ThreadPool::chunk_count(4, 4), 1u);
  EXPECT_EQ(ThreadPool::chunk_count(5, 4), 2u);
  EXPECT_EQ(ThreadPool::chunk_count(8, 4), 2u);
}

// Every index is visited exactly once, with the right chunk boundaries, at
// 1 and at N threads.
void check_coverage(unsigned threads, std::size_t n, std::size_t chunk_size) {
  ThreadPool pool{threads};
  std::vector<std::atomic<int>> visits(n);
  for (auto& v : visits) v = 0;
  pool.parallel_for(n, chunk_size,
                    [&](std::size_t begin, std::size_t end, std::size_t chunk) {
                      EXPECT_EQ(begin, chunk * chunk_size);
                      EXPECT_LE(end, n);
                      EXPECT_LE(end - begin, chunk_size);
                      for (std::size_t i = begin; i < end; ++i) visits[i] += 1;
                    });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(visits[i], 1) << "index " << i;
}

TEST(ThreadPool, CoversEveryIndexOnce) {
  for (const unsigned threads : {1u, 2u, 8u}) {
    check_coverage(threads, 100, 7);
    check_coverage(threads, 100, 100);
    check_coverage(threads, 100, 1000);  // one short chunk
    check_coverage(threads, 1, 1);
  }
}

TEST(ThreadPool, EmptyRangeIsANoop) {
  ThreadPool pool{4};
  bool called = false;
  pool.parallel_for(0, 8, [&](std::size_t, std::size_t, std::size_t) {
    called = true;
  });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, MapChunksMergesInChunkIndexOrder) {
  for (const unsigned threads : {1u, 2u, 8u}) {
    ThreadPool pool{threads};
    const auto out = pool.map_chunks<std::size_t>(
        1000, 13, [](std::size_t begin, std::size_t end, std::size_t) {
          std::vector<std::size_t> local(end - begin);
          std::iota(local.begin(), local.end(), begin);
          return local;
        });
    ASSERT_EQ(out.size(), 1000u);
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i);
  }
}

TEST(ThreadPool, MapChunksWithFilteringKeepsSerialOrder) {
  // Chunks of unequal output size still concatenate in index order.
  for (const unsigned threads : {1u, 4u}) {
    ThreadPool pool{threads};
    const auto out = pool.map_chunks<std::size_t>(
        200, 9, [](std::size_t begin, std::size_t end, std::size_t) {
          std::vector<std::size_t> local;
          for (std::size_t i = begin; i < end; ++i) {
            if (i % 3 == 0) local.push_back(i);
          }
          return local;
        });
    std::vector<std::size_t> expected;
    for (std::size_t i = 0; i < 200; i += 3) expected.push_back(i);
    EXPECT_EQ(out, expected);
  }
}

TEST(ThreadPool, ExceptionPropagates) {
  for (const unsigned threads : {1u, 4u}) {
    ThreadPool pool{threads};
    EXPECT_THROW(
        pool.parallel_for(100, 10,
                          [](std::size_t begin, std::size_t, std::size_t) {
                            if (begin == 50) throw std::runtime_error{"boom"};
                          }),
        std::runtime_error);
  }
}

TEST(ThreadPool, LowestChunkExceptionWins) {
  ThreadPool pool{4};
  try {
    pool.parallel_for(100, 10,
                      [](std::size_t, std::size_t, std::size_t chunk) {
                        if (chunk == 3 || chunk == 7) {
                          throw std::runtime_error{"chunk " +
                                                   std::to_string(chunk)};
                        }
                      });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk 3");
  }
}

TEST(ThreadPool, MapChunksPropagatesExceptions) {
  for (const unsigned threads : {1u, 4u}) {
    ThreadPool pool{threads};
    EXPECT_THROW(
        pool.map_chunks<int>(100, 10,
                             [](std::size_t begin, std::size_t, std::size_t)
                                 -> std::vector<int> {
                               if (begin == 30) throw std::runtime_error{"boom"};
                               return {static_cast<int>(begin)};
                             }),
        std::runtime_error);
    // The pool survives and the next sweep merges cleanly.
    const auto out = pool.map_chunks<int>(
        30, 10,
        [](std::size_t begin, std::size_t, std::size_t) -> std::vector<int> {
          return {static_cast<int>(begin)};
        });
    EXPECT_EQ(out, (std::vector<int>{0, 10, 20}));
  }
}

TEST(ThreadPool, PoolIsReusableAfterException) {
  ThreadPool pool{4};
  EXPECT_THROW(pool.parallel_for(10, 1,
                                 [](std::size_t, std::size_t, std::size_t) {
                                   throw std::runtime_error{"boom"};
                                 }),
               std::runtime_error);
  std::atomic<int> sum{0};
  pool.parallel_for(10, 1, [&](std::size_t begin, std::size_t, std::size_t) {
    sum += static_cast<int>(begin);
  });
  EXPECT_EQ(sum, 45);
}

TEST(ThreadPool, SharedPoolReusesWorkersForSameCount) {
  ThreadPool& a = ThreadPool::shared(2);
  EXPECT_EQ(a.thread_count(), 2u);
  // Same requested count returns the same pool — no thread churn.
  EXPECT_EQ(&ThreadPool::shared(2), &a);

  // A different count rebuilds (the old reference is invalidated).
  ThreadPool& b = ThreadPool::shared(3);
  EXPECT_EQ(b.thread_count(), 3u);
  EXPECT_EQ(&ThreadPool::shared(3), &b);

  EXPECT_EQ(ThreadPool::shared(0).thread_count(), default_thread_count());
}

TEST(ThreadPool, SharedPoolRunsSweeps) {
  std::atomic<int> sum{0};
  ThreadPool::shared(4).parallel_for(
      100, 7, [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t i = begin; i < end; ++i) sum += static_cast<int>(i);
      });
  EXPECT_EQ(sum, 4950);
}

TEST(ThreadPool, ReusableAcrossManySweeps) {
  ThreadPool pool{3};
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(64, 4, [&](std::size_t begin, std::size_t end,
                                 std::size_t) {
      count += static_cast<int>(end - begin);
    });
    ASSERT_EQ(count, 64);
  }
}

// --- cancellation ----------------------------------------------------------

TEST(ThreadPool, NullTokenRunsToCompletion) {
  for (const unsigned threads : {1u, 4u}) {
    ThreadPool pool{threads};
    std::atomic<int> visited{0};
    const Status st = pool.parallel_for(
        100, 7,
        [&](std::size_t begin, std::size_t end, std::size_t) {
          visited += static_cast<int>(end - begin);
        },
        nullptr);
    EXPECT_TRUE(st.is_ok());
    EXPECT_EQ(visited, 100);
  }
}

TEST(ThreadPool, LiveTokenRunsToCompletion) {
  CancelToken token;
  ThreadPool pool{4};
  std::atomic<int> visited{0};
  const Status st = pool.parallel_for(
      100, 7,
      [&](std::size_t begin, std::size_t end, std::size_t) {
        visited += static_cast<int>(end - begin);
      },
      &token);
  EXPECT_TRUE(st.is_ok());
  EXPECT_EQ(visited, 100);
}

TEST(ThreadPool, PreCancelledTokenRunsNoChunks) {
  for (const unsigned threads : {1u, 4u, 8u}) {
    CancelToken token;
    token.cancel();
    ThreadPool pool{threads};
    std::atomic<int> chunks{0};
    const Status st = pool.parallel_for(
        100, 10,
        [&](std::size_t, std::size_t, std::size_t) { chunks += 1; }, &token);
    EXPECT_EQ(st.code(), ErrorCode::kCancelled) << threads << " threads";
    EXPECT_EQ(chunks, 0) << threads << " threads";
  }
}

TEST(ThreadPool, ExpiredDeadlineSurfacesDeadlineExceeded) {
  CancelToken token;
  token.set_deadline_after_seconds(0.0);
  ThreadPool pool{4};
  const Status st = pool.parallel_for(
      100, 10, [](std::size_t, std::size_t, std::size_t) {}, &token);
  EXPECT_EQ(st.code(), ErrorCode::kDeadlineExceeded);
}

// A chunk trips the token mid-sweep: in-flight chunks complete (every visited
// index is visited exactly once — no torn chunk), unclaimed chunks never
// start, the call returns the token's status, and the pool is immediately
// reusable — i.e. every helper task drained instead of leaking.
void check_mid_sweep_cancel(unsigned threads) {
  CancelToken token;
  ThreadPool pool{threads};
  const std::size_t n = 10000;
  const std::size_t chunk_size = 10;
  std::vector<std::atomic<int>> visits(n);
  for (auto& v : visits) v = 0;
  std::atomic<int> chunks_run{0};
  const Status st = pool.parallel_for(
      n, chunk_size,
      [&](std::size_t begin, std::size_t end, std::size_t chunk) {
        chunks_run += 1;
        if (chunk == 5) token.cancel();
        for (std::size_t i = begin; i < end; ++i) visits[i] += 1;
      },
      &token);
  EXPECT_EQ(st.code(), ErrorCode::kCancelled) << threads << " threads";
  // Drained at a chunk boundary: some chunks ran, far from all of them, and
  // no index was ever visited twice or torn mid-chunk.
  EXPECT_GE(chunks_run, 1) << threads << " threads";
  EXPECT_LT(chunks_run, static_cast<int>(n / chunk_size)) << threads
                                                          << " threads";
  for (std::size_t i = 0; i < n; i += chunk_size) {
    int in_chunk = 0;
    for (std::size_t j = i; j < i + chunk_size; ++j) {
      ASSERT_LE(visits[j], 1) << "index " << j << " visited twice";
      in_chunk += visits[j];
    }
    EXPECT_TRUE(in_chunk == 0 || in_chunk == static_cast<int>(chunk_size))
        << "chunk at " << i << " was torn";
  }

  // No leaked tasks: the next sweep on the same pool covers everything.
  std::atomic<int> after{0};
  pool.parallel_for(64, 4, [&](std::size_t begin, std::size_t end,
                               std::size_t) {
    after += static_cast<int>(end - begin);
  });
  EXPECT_EQ(after, 64) << threads << " threads";
}

TEST(ThreadPool, CancelMidSweepDrainsAtChunkBoundary) {
  for (const unsigned threads : {1u, 4u, 8u}) check_mid_sweep_cancel(threads);
}

TEST(ThreadPool, CancelFromAnotherThreadDrains) {
  for (const unsigned threads : {1u, 4u, 8u}) {
    CancelToken token;
    ThreadPool pool{threads};
    std::atomic<int> chunks_run{0};
    // The canceller fires once the sweep reports its first chunk, and every
    // chunk holds until the trip is visible — no timing dependence, and the
    // in-flight chunk count is bounded by the executor count.
    std::thread canceller{[&] {
      while (chunks_run.load() == 0) std::this_thread::yield();
      token.cancel();
    }};
    const Status st = pool.parallel_for(
        100000, 1,
        [&](std::size_t, std::size_t, std::size_t) {
          chunks_run += 1;
          while (!token.cancelled()) std::this_thread::yield();
        },
        &token);
    canceller.join();
    EXPECT_EQ(st.code(), ErrorCode::kCancelled) << threads << " threads";
    EXPECT_LE(chunks_run, static_cast<int>(threads) + 1)
        << threads << " threads";
  }
}

TEST(ThreadPool, CancellableMapChunksDiscardsPartialOutput) {
  for (const unsigned threads : {1u, 4u}) {
    CancelToken token;
    ThreadPool pool{threads};
    const Result<std::vector<int>> cancelled = pool.map_chunks<int>(
        1000, 10,
        [&](std::size_t begin, std::size_t, std::size_t chunk)
            -> std::vector<int> {
          if (chunk == 3) token.cancel();
          return {static_cast<int>(begin)};
        },
        &token);
    ASSERT_FALSE(cancelled.is_ok());
    EXPECT_EQ(cancelled.status().code(), ErrorCode::kCancelled);

    // A live token leaves map_chunks bit-identical to the uncancellable one.
    const Result<std::vector<int>> ok = pool.map_chunks<int>(
        30, 10,
        [](std::size_t begin, std::size_t, std::size_t) -> std::vector<int> {
          return {static_cast<int>(begin)};
        },
        nullptr);
    ASSERT_TRUE(ok.is_ok());
    EXPECT_EQ(ok.value(), (std::vector<int>{0, 10, 20}));
  }
}

}  // namespace
}  // namespace pathsel
