#include "common/thread_pool.hpp"

#include <algorithm>
#include <stdexcept>

namespace fedsched::common {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::enqueue(std::function<void()> task) {
  {
    const std::lock_guard lock(mutex_);
    if (stopping_) throw std::runtime_error("ThreadPool: submit after shutdown");
    queue_.push(std::move(task));
  }
  cv_.notify_one();
}

bool ThreadPool::try_run_one() {
  std::function<void()> task;
  {
    const std::lock_guard lock(mutex_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop();
  }
  task();
  return true;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn) {
  parallel_for_blocks(begin, end, [&fn](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) fn(i);
  });
}

void ThreadPool::parallel_for_blocks(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  parallel_for_chunks(begin, end, size(),
                      [&fn](std::size_t, std::size_t lo, std::size_t hi) { fn(lo, hi); });
}

std::pair<std::size_t, std::size_t> ThreadPool::chunk_bounds(
    std::size_t begin, std::size_t end, std::size_t chunks, std::size_t c) noexcept {
  const std::size_t total = end > begin ? end - begin : 0;
  if (total == 0 || chunks == 0) return {begin, begin};
  chunks = std::min(chunks, total);
  if (c >= chunks) return {end, end};
  const std::size_t base = total / chunks;
  const std::size_t extra = total % chunks;
  const std::size_t lo = begin + c * base + std::min(c, extra);
  return {lo, lo + base + (c < extra ? 1 : 0)};
}

// Join state shared by the chunks of one parallel_for_chunks call.
struct ThreadPool::ForkJoin {
  std::mutex mutex;
  std::condition_variable done_cv;
  std::size_t pending;
  std::exception_ptr error;

  explicit ForkJoin(std::size_t n) : pending(n) {}

  void finish(std::exception_ptr e) {
    const std::lock_guard lock(mutex);
    if (e && !error) error = std::move(e);
    if (--pending == 0) done_cv.notify_all();
  }
};

void ThreadPool::parallel_for_chunks(std::size_t begin, std::size_t end,
                                     std::size_t chunks, const ChunkFn& fn) {
  if (begin >= end || chunks == 0) return;
  chunks = std::min(chunks, end - begin);
  if (chunks == 1) {
    fn(0, begin, end);
    return;
  }

  auto join = std::make_shared<ForkJoin>(chunks);
  auto run_chunk = [&fn, begin, end, chunks, join](std::size_t c) {
    std::exception_ptr error;
    try {
      const auto [lo, hi] = chunk_bounds(begin, end, chunks, c);
      fn(c, lo, hi);
    } catch (...) {
      error = std::current_exception();
    }
    join->finish(std::move(error));
  };
  for (std::size_t c = 1; c < chunks; ++c) {
    enqueue([run_chunk, c] { run_chunk(c); });
  }
  run_chunk(0);

  // Help drain the queue while joining: a task on this pool can safely call
  // parallel_for on the same pool even when every worker is busy, because the
  // joining thread keeps executing queued work instead of blocking. Once the
  // queue is observed empty, the remaining chunks are running on other
  // threads and will signal completion.
  for (;;) {
    {
      const std::lock_guard lock(join->mutex);
      if (join->pending == 0) break;
    }
    if (!try_run_one()) {
      std::unique_lock lock(join->mutex);
      join->done_cv.wait(lock, [&join] { return join->pending == 0; });
      break;
    }
  }
  if (join->error) std::rethrow_exception(join->error);
}

ThreadPool& global_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace fedsched::common
