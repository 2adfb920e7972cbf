#pragma once
// A fixed-size worker pool with one operation: a chunked fork/join.
//
// All host parallelism in fedsched is explicit (Core Guidelines CP rules)
// and goes through common::parallel_for_chunks below: it splits [begin, end)
// into contiguous chunks, runs fn(chunk_index, chunk_begin, chunk_end) for
// each, and returns once every chunk has finished. The FL runners' client
// lanes, the conv sample chunks, the GEMM column panels and the fleet's tree
// reduction and dynamics passes are all such fork/joins, on one pool per
// process (global_pool()).
//
// Three properties matter for the code built on top:
//  - Deterministic chunking: the chunk boundaries depend only on
//    (begin, end, chunks) — never on the pool size or on scheduling — so
//    per-chunk partial results always reduce in the same order, inline or
//    on a pool.
//  - No allocation: the callable is passed by reference and the join state
//    lives on the forking caller's stack, so a fork/join allocates nothing.
//  - Nesting safety: a chunk may itself fork on the same pool. A joining
//    caller claims chunks of its own fork/join until none is left, then
//    waits only for chunks that other threads are already running, so
//    nested fork/joins cannot deadlock however saturated the pool is.

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace fedsched::common {

class ThreadPool {
 public:
  /// threads == 0 selects the hardware concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

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
  template <typename Fn>
  friend void parallel_for_chunks(ThreadPool* pool, std::size_t begin, std::size_t end,
                                  std::size_t chunks, const Fn& fn);

  /// Runs chunk `c` ([lo, hi)) of the type-erased callable `fn`.
  using ChunkFn = void (*)(const void* fn, std::size_t c, std::size_t lo, std::size_t hi);
  struct Job;

  /// Publish `chunks` chunks of fn, claim them alongside the workers, and
  /// return once all have finished; rethrows the first chunk failure.
  void fork_join(std::size_t begin, std::size_t end, std::size_t chunks, ChunkFn run,
                 const void* fn);
  /// With `lock` holding mutex_: claim the next chunk of `job`, run it
  /// unlocked, and record that it finished.
  void run_next_chunk(Job& job, std::unique_lock<std::mutex>& lock);
  void worker_loop();

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_cv_;  // a job was published, or stopping_
  std::condition_variable done_cv_;  // some job's last chunk finished
  Job* open_ = nullptr;              // jobs with unclaimed chunks, newest first
  bool stopping_ = false;
};

/// The process pool every fork/join in the library runs on (lazily
/// constructed with the hardware concurrency, never torn down before exit).
[[nodiscard]] ThreadPool& global_pool();

/// Split [begin, end) into min(chunks, end - begin) balanced contiguous
/// chunks (ThreadPool::chunk_bounds) and run fn(chunk_index, chunk_begin,
/// chunk_end) once for each, returning when all have finished. A failing
/// chunk does not stop the others: every chunk runs, and the first
/// exception is rethrown after the join (with one chunk, that is at once).
///
/// The chunks run inline, on the calling thread in chunk order, when `pool`
/// is null, has fewer than two threads, or there is only one chunk;
/// otherwise the pool's workers and the caller claim them in any order.
/// Safe to call from inside a chunk.
template <typename Fn>
void parallel_for_chunks(ThreadPool* pool, std::size_t begin, std::size_t end,
                         std::size_t chunks, const Fn& fn) {
  if (begin >= end || chunks == 0) return;
  chunks = std::min(chunks, end - begin);
  if (pool == nullptr || pool->size() < 2 || chunks == 1) {
    std::exception_ptr error;
    for (std::size_t c = 0; c < chunks; ++c) {
      const auto [lo, hi] = ThreadPool::chunk_bounds(begin, end, chunks, c);
      try {
        fn(c, lo, hi);
      } catch (...) {
        if (!error) error = std::current_exception();
      }
    }
    if (error) std::rethrow_exception(error);
    return;
  }
  pool->fork_join(
      begin, end, chunks,
      [](const void* f, std::size_t c, std::size_t lo, std::size_t hi) {
        (*static_cast<const Fn*>(f))(c, lo, hi);
      },
      &fn);
}

}  // namespace fedsched::common
