#include "common/thread_pool.hpp"

#include <exception>

namespace fedsched::common {

// One fork/join in flight, on the forking caller's stack. The fields above
// `next` are fixed before the job is published; the rest are guarded by the
// pool's mutex. A job leaves the open list with its last claimed chunk, and
// its caller returns only once every chunk has finished, so no thread
// touches it after that.
struct ThreadPool::Job {
  ChunkFn run;
  const void* fn;
  std::size_t begin;
  std::size_t end;
  std::size_t chunks;
  std::size_t next = 0;                // first unclaimed chunk
  std::size_t unfinished = 0;          // chunks not yet finished
  std::exception_ptr error = nullptr;  // the first chunk failure
  Job* older = nullptr;                // the next job in open_
};

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
  work_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
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

void ThreadPool::run_next_chunk(Job& job, std::unique_lock<std::mutex>& lock) {
  const std::size_t c = job.next++;
  if (job.next == job.chunks) {
    Job** link = &open_;
    while (*link != &job) link = &(*link)->older;
    *link = job.older;
  }
  lock.unlock();
  std::exception_ptr error;
  try {
    const auto [lo, hi] = chunk_bounds(job.begin, job.end, job.chunks, c);
    job.run(job.fn, c, lo, hi);
  } catch (...) {
    error = std::current_exception();
  }
  lock.lock();
  if (error && !job.error) job.error = std::move(error);
  if (--job.unfinished == 0) done_cv_.notify_all();
}

void ThreadPool::worker_loop() {
  std::unique_lock lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stopping_ || open_ != nullptr; });
    if (open_ == nullptr) return;  // stopping_, and every job is claimed
    // The newest job first: it is the innermost fork/join of some caller.
    run_next_chunk(*open_, lock);
  }
}

void ThreadPool::fork_join(std::size_t begin, std::size_t end, std::size_t chunks,
                           ChunkFn run, const void* fn) {
  Job job{.run = run, .fn = fn, .begin = begin, .end = end, .chunks = chunks,
          .unfinished = chunks};
  std::unique_lock lock(mutex_);
  job.older = open_;
  open_ = &job;
  lock.unlock();
  // One wake-up per chunk beyond the one this thread starts on.
  for (std::size_t c = 1; c < chunks && c <= size(); ++c) work_cv_.notify_one();

  // Claim chunks alongside the workers. Once none is left, the unfinished
  // ones are running on other threads, none of which waits on this job.
  lock.lock();
  while (job.next < job.chunks) run_next_chunk(job, lock);
  done_cv_.wait(lock, [&job] { return job.unfinished == 0; });
  lock.unlock();
  if (job.error) std::rethrow_exception(job.error);
}

ThreadPool& global_pool() {
  static ThreadPool pool;
  return pool;
}

}  // namespace fedsched::common
