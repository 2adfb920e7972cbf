#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

namespace fedsched::common {
namespace {

TEST(ThreadPool, SubmitReturnsResult) {
  ThreadPool pool(2);
  auto fut = pool.submit([] { return 21 * 2; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, SubmitPropagatesExceptions) {
  ThreadPool pool(1);
  auto fut = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPool, ManyTasksAllComplete) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& fut : futures) fut.get();
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<int> hits(1000, 0);
  pool.parallel_for(0, hits.size(), [&](std::size_t i) { hits[i] += 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 1000);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(5, 5, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelForSingleElement) {
  ThreadPool pool(2);
  int count = 0;
  pool.parallel_for(7, 8, [&](std::size_t i) {
    EXPECT_EQ(i, 7u);
    ++count;
  });
  EXPECT_EQ(count, 1);
}

TEST(ThreadPool, ParallelForBlocksDisjointCoverage) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(577);
  pool.parallel_for_blocks(0, hits.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(0, 100,
                                 [](std::size_t i) {
                                   if (i == 50) throw std::logic_error("bad index");
                                 }),
               std::logic_error);
}

TEST(ThreadPool, ChunkBoundsPartitionEveryRange) {
  // chunk_bounds must tile [begin, end) exactly, with chunk sizes differing
  // by at most one — and the boundaries depend only on (range, chunks),
  // never on the pool, so they are the same on every host.
  for (std::size_t total : {0u, 1u, 2u, 7u, 8u, 9u, 64u, 577u}) {
    for (std::size_t chunks : {1u, 2u, 3u, 4u, 7u, 8u, 100u}) {
      const std::size_t begin = 3;
      const std::size_t end = begin + total;
      const std::size_t effective = std::min<std::size_t>(chunks, total);
      std::size_t cursor = begin;
      std::size_t min_size = end, max_size = 0;
      for (std::size_t c = 0; c < effective; ++c) {
        const auto [lo, hi] = ThreadPool::chunk_bounds(begin, end, chunks, c);
        EXPECT_EQ(lo, cursor) << total << "/" << chunks << " chunk " << c;
        EXPECT_GT(hi, lo) << "empty chunk " << c;
        min_size = std::min(min_size, hi - lo);
        max_size = std::max(max_size, hi - lo);
        cursor = hi;
      }
      EXPECT_EQ(cursor, total == 0 ? begin : end) << total << "/" << chunks;
      if (effective > 0) {
        EXPECT_LE(max_size - min_size, 1u) << total << "/" << chunks;
      }
      // Indices past the clamped chunk count get the empty range at `end`.
      for (std::size_t c = effective; c < chunks + 2; ++c) {
        const auto bounds = ThreadPool::chunk_bounds(begin, end, chunks, c);
        EXPECT_EQ(bounds, std::make_pair(end, end))
            << total << "/" << chunks << " chunk " << c;
      }
    }
  }
}

TEST(ThreadPool, ParallelForChunksUnevenCoverage) {
  // 10 items over 4 chunks: sizes 3,3,2,2 — every index hit exactly once,
  // and the chunk index passed to the body matches chunk_bounds.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10);
  pool.parallel_for_chunks(0, hits.size(), 4,
                           [&](std::size_t chunk, std::size_t lo, std::size_t hi) {
                             const auto [want_lo, want_hi] =
                                 ThreadPool::chunk_bounds(0, 10, 4, chunk);
                             EXPECT_EQ(lo, want_lo);
                             EXPECT_EQ(hi, want_hi);
                             for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
                           });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForChunksMoreChunksThanItems) {
  // Requesting more chunks than items must clamp, not spawn empty chunks.
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  std::vector<std::atomic<int>> hits(3);
  pool.parallel_for_chunks(0, hits.size(), 16,
                           [&](std::size_t, std::size_t lo, std::size_t hi) {
                             calls.fetch_add(1);
                             EXPECT_EQ(hi, lo + 1);
                             hits[lo].fetch_add(1);
                           });
  EXPECT_EQ(calls.load(), 3);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForChunksEmptyRange) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for_chunks(9, 9, 4,
                           [&](std::size_t, std::size_t, std::size_t) { called = true; });
  pool.parallel_for_chunks(0, 100, 0,
                           [&](std::size_t, std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, NestedParallelForSamePoolCompletes) {
  // Outer chunks block on inner parallel loops submitted to the SAME pool.
  // The join loop helps drain the queue, so this must finish rather than
  // deadlock even though the pool is saturated by the outer level.
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.parallel_for_chunks(0, 4, 4, [&](std::size_t, std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      pool.parallel_for(0, 8, [&](std::size_t) { counter.fetch_add(1); });
    }
  });
  EXPECT_EQ(counter.load(), 4 * 8);
}

TEST(ThreadPool, NestedParallelForSingleThreadPool) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  pool.parallel_for(0, 3, [&](std::size_t) {
    pool.parallel_for(0, 5, [&](std::size_t) { counter.fetch_add(1); });
  });
  EXPECT_EQ(counter.load(), 3 * 5);
}

TEST(ThreadPool, NestedExceptionPropagates) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for_chunks(0, 4, 4,
                               [&](std::size_t, std::size_t lo, std::size_t) {
                                 pool.parallel_for(0, 4, [&](std::size_t i) {
                                   if (lo == 2 && i == 1) {
                                     throw std::runtime_error("inner");
                                   }
                                 });
                               }),
      std::runtime_error);
}

TEST(ThreadPool, ParallelForChunksExceptionInCallerChunk) {
  // Chunk 0 runs on the calling thread; its exception must propagate too,
  // after the enqueued chunks have been joined.
  ThreadPool pool(3);
  std::atomic<int> done{0};
  EXPECT_THROW(pool.parallel_for_chunks(
                   0, 9, 3,
                   [&](std::size_t chunk, std::size_t, std::size_t) {
                     if (chunk == 0) throw std::invalid_argument("first chunk");
                     done.fetch_add(1);
                   }),
               std::invalid_argument);
  EXPECT_EQ(done.load(), 2);
}

TEST(ThreadPool, StressManyConcurrentLoops) {
  // Several external threads hammering the same pool with chunked loops:
  // every loop still sees exact coverage.
  ThreadPool pool(4);
  std::atomic<long> total{0};
  std::vector<std::thread> drivers;
  for (int t = 0; t < 4; ++t) {
    drivers.emplace_back([&pool, &total, t] {
      for (int iter = 0; iter < 25; ++iter) {
        std::atomic<long> local{0};
        const std::size_t n = 17 + static_cast<std::size_t>(t) * 13;
        pool.parallel_for_chunks(0, n, 3,
                                 [&](std::size_t, std::size_t lo, std::size_t hi) {
                                   local.fetch_add(static_cast<long>(hi - lo));
                                 });
        EXPECT_EQ(local.load(), static_cast<long>(n));
        total.fetch_add(local.load());
      }
    });
  }
  for (auto& d : drivers) d.join();
  EXPECT_EQ(total.load(), 25L * (17 + 30 + 43 + 56));
}

TEST(ThreadPool, SizeMatchesRequest) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, DefaultSizeAtLeastOne) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, GlobalPoolIsSingleton) {
  EXPECT_EQ(&global_pool(), &global_pool());
}

}  // namespace
}  // namespace fedsched::common
