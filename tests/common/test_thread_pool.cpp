#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

namespace fedsched::common {
namespace {

/// fn(i) for every i in [begin, end), over pool.size() chunks.
template <typename Fn>
void for_each_index(ThreadPool& pool, std::size_t begin, std::size_t end, const Fn& fn) {
  parallel_for_chunks(&pool, begin, end, pool.size(),
                      [&fn](std::size_t, std::size_t lo, std::size_t hi) {
                        for (std::size_t i = lo; i < hi; ++i) fn(i);
                      });
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<int> hits(1000, 0);
  for_each_index(pool, 0, hits.size(), [&](std::size_t i) { hits[i] += 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 1000);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool called = false;
  for_each_index(pool, 5, 5, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelForSingleElement) {
  ThreadPool pool(2);
  int count = 0;
  for_each_index(pool, 7, 8, [&](std::size_t i) {
    EXPECT_EQ(i, 7u);
    ++count;
  });
  EXPECT_EQ(count, 1);
}

TEST(ThreadPool, ParallelForBlocksDisjointCoverage) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(577);
  parallel_for_chunks(&pool, 0, hits.size(), pool.size(),
                      [&](std::size_t, std::size_t lo, std::size_t hi) {
                        for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
                      });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(for_each_index(pool, 0, 100,
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
  parallel_for_chunks(&pool, 0, hits.size(), 4,
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
  parallel_for_chunks(&pool, 0, hits.size(), 16,
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
  const auto body = [&](std::size_t, std::size_t, std::size_t) { called = true; };
  parallel_for_chunks(&pool, 9, 9, 4, body);
  parallel_for_chunks(&pool, 0, 100, 0, body);
  EXPECT_FALSE(called);
}

TEST(ThreadPool, NestedParallelForSamePoolCompletes) {
  // Outer chunks block on inner fork/joins on the SAME pool. A joining
  // caller claims its own chunks before it waits, so this must finish rather
  // than deadlock even though the pool is saturated by the outer level.
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  parallel_for_chunks(&pool, 0, 4, 4, [&](std::size_t, std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      for_each_index(pool, 0, 8, [&](std::size_t) { counter.fetch_add(1); });
    }
  });
  EXPECT_EQ(counter.load(), 4 * 8);
}

TEST(ThreadPool, NestedParallelForSingleThreadPool) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  for_each_index(pool, 0, 3, [&](std::size_t) {
    for_each_index(pool, 0, 5, [&](std::size_t) { counter.fetch_add(1); });
  });
  EXPECT_EQ(counter.load(), 3 * 5);
}

TEST(ThreadPool, NestedExceptionPropagates) {
  ThreadPool pool(2);
  EXPECT_THROW(parallel_for_chunks(&pool, 0, 4, 4,
                                   [&](std::size_t, std::size_t lo, std::size_t) {
                                     for_each_index(pool, 0, 4, [&](std::size_t i) {
                                       if (lo == 2 && i == 1) {
                                         throw std::runtime_error("inner");
                                       }
                                     });
                                   }),
               std::runtime_error);
}

TEST(ThreadPool, ParallelForChunksExceptionInCallerChunk) {
  // On a pool, a failing chunk does not stop the others: every chunk runs
  // and the exception propagates after the join, whichever thread ran the
  // failing chunk.
  ThreadPool pool(3);
  std::atomic<int> done{0};
  EXPECT_THROW(parallel_for_chunks(&pool, 0, 9, 3,
                                   [&](std::size_t chunk, std::size_t, std::size_t) {
                                     if (chunk == 0) throw std::invalid_argument("first chunk");
                                     done.fetch_add(1);
                                   }),
               std::invalid_argument);
  EXPECT_EQ(done.load(), 2);
}

TEST(ThreadPool, InlineRunsChunksInOrderOnTheCaller) {
  // No pool, a pool too small to fork, or a single chunk: the chunks run on
  // the calling thread in chunk order.
  ThreadPool single(1), wide(2);
  const auto caller = std::this_thread::get_id();
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &single}) {
    std::vector<std::size_t> order;
    parallel_for_chunks(pool, 0, 10, 4, [&](std::size_t chunk, std::size_t, std::size_t) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      order.push_back(chunk);
    });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3}));
  }
  parallel_for_chunks(&wide, 0, 10, 1, [&](std::size_t, std::size_t lo, std::size_t hi) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(std::make_pair(lo, hi), std::make_pair(std::size_t{0}, std::size_t{10}));
  });
}

TEST(ThreadPool, InlineFailureStillRunsEveryChunk) {
  // Inline, as on a pool, a failing chunk does not stop the others: every
  // chunk runs, in order, and the first exception is rethrown after the
  // loop. A one-thread pool runs inline, so a host with one core fails a
  // fork/join the same way as a host whose pool forks.
  ThreadPool single(1);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &single}) {
    std::vector<std::size_t> ran;
    EXPECT_THROW(parallel_for_chunks(pool, 0, 8, 4,
                                     [&](std::size_t chunk, std::size_t, std::size_t) {
                                       ran.push_back(chunk);
                                       if (chunk == 1) throw std::invalid_argument("chunk 1");
                                       if (chunk == 2) throw std::runtime_error("chunk 2");
                                     }),
                 std::invalid_argument);
    EXPECT_EQ(ran, (std::vector<std::size_t>{0, 1, 2, 3}));
  }
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
        parallel_for_chunks(&pool, 0, n, 3, [&](std::size_t, std::size_t lo, std::size_t hi) {
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

TEST(ThreadPool, NestedForkJoinsFromManyCallersComplete) {
  // Three levels of fork/join from four external threads on a two-thread
  // pool: many jobs are open at once, and every waiting caller depends on
  // chunks that other threads claimed. Each level must still see exact
  // coverage, and nothing may deadlock.
  ThreadPool pool(2);
  std::atomic<long> leaves{0};
  const auto count = [&](std::size_t, std::size_t lo, std::size_t hi) {
    leaves.fetch_add(static_cast<long>(hi - lo));
  };
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&] {
      for (int iter = 0; iter < 10; ++iter) {
        parallel_for_chunks(&pool, 0, 4, 4, [&](std::size_t, std::size_t, std::size_t) {
          parallel_for_chunks(&pool, 0, 3, 3, [&](std::size_t, std::size_t, std::size_t) {
            parallel_for_chunks(&pool, 0, 5, 2, count);
          });
        });
      }
    });
  }
  for (auto& caller : callers) caller.join();
  EXPECT_EQ(leaves.load(), 4L * 10 * 4 * 3 * 5);
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
