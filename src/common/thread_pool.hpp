#pragma once
// A small fixed-size worker pool with parallel_for helpers.
//
// All parallelism in fedsched is explicit (Core Guidelines CP rules): tasks
// are submitted as value-captured callables, results travel through futures,
// and the parallel_for family partitions an index range into contiguous
// blocks so each worker touches disjoint cache lines.
//
// Two properties matter for the FL runners built on top:
//  - Deterministic chunking: parallel_for_chunks splits [begin, end) into a
//    caller-chosen number of balanced contiguous chunks whose boundaries
//    depend only on (begin, end, chunks) — never on the pool size or on
//    scheduling — so per-chunk partial results always reduce in the same
//    order.
//  - Nesting safety: a task running on a pool thread may itself call
//    parallel_for on the same pool. While joining, the caller executes queued
//    tasks instead of blocking, so saturated pools cannot deadlock on nested
//    fork/join.

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

namespace fedsched::common {

class ThreadPool {
 public:
  /// fn(chunk_index, block_begin, block_end) for parallel_for_chunks.
  using ChunkFn = std::function<void(std::size_t, std::size_t, std::size_t)>;

  /// threads == 0 selects the hardware concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Submit a nullary callable; returns a future for its result.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    enqueue([task]() mutable { (*task)(); });
    return fut;
  }

  /// Run fn(i) for i in [begin, end), split into contiguous blocks across the
  /// pool; blocks the caller until every index has been processed. Exceptions
  /// from fn propagate (first one wins). Safe to call from a pool task.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

  /// Block-wise variant: fn(block_begin, block_end) per block. The number of
  /// blocks tracks the pool size.
  void parallel_for_blocks(std::size_t begin, std::size_t end,
                           const std::function<void(std::size_t, std::size_t)>& fn);

  /// Deterministic variant: split [begin, end) into min(chunks, end - begin)
  /// balanced contiguous chunks whose boundaries are a pure function of the
  /// arguments, and run fn(chunk_index, chunk_begin, chunk_end) for each.
  /// The calling thread participates and helps drain the queue while joining.
  void parallel_for_chunks(std::size_t begin, std::size_t end, std::size_t chunks,
                           const ChunkFn& fn);

  /// The [lo, hi) range of chunk `c` under parallel_for_chunks' balanced
  /// partition (sizes differ by at most one; earlier chunks get the slack).
  /// Chunk indices at or past min(chunks, end - begin) get the empty range
  /// {end, end}, so a serial loop over all `chunks` indices stays in range.
  [[nodiscard]] static std::pair<std::size_t, std::size_t> chunk_bounds(
      std::size_t begin, std::size_t end, std::size_t chunks, std::size_t c) noexcept;

  /// Chunk count that gives every chunk at most `grain` items: a pure
  /// function of (count, grain), never of the pool — the fixed-chunking
  /// building block behind the determinism contract (Conv2d sample chunks,
  /// the blocked GEMM's column panels).
  [[nodiscard]] static std::size_t grain_chunks(std::size_t count,
                                                std::size_t grain) noexcept {
    return grain == 0 ? count : (count + grain - 1) / grain;
  }

 private:
  struct ForkJoin;

  void enqueue(std::function<void()> task);
  /// Pop and run one queued task on the calling thread, if any.
  bool try_run_one();
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Process-wide pool for library internals (lazily constructed, never torn
/// down before exit). Prefer passing an explicit pool where ownership matters.
[[nodiscard]] ThreadPool& global_pool();

}  // namespace fedsched::common
