#include "fl/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>

namespace fedsched::fl {

namespace {

/// Clients by `work` descending, ties to the lower id; index order when
/// `work` is empty.
std::vector<std::size_t> claim_order(std::size_t n, std::span<const std::size_t> work) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (work.empty()) return order;
  if (work.size() != n) {
    throw std::invalid_argument("ClientExecutor: work size != client count");
  }
  std::stable_sort(order.begin(), order.end(),
                   [work](std::size_t a, std::size_t b) { return work[a] > work[b]; });
  return order;
}

}  // namespace

std::size_t resolve_parallelism(std::size_t parallelism) noexcept {
  if (parallelism != 0) return parallelism;
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

ClientExecutor::ClientExecutor(const nn::ModelSpec& spec, std::size_t parallelism) {
  const std::size_t width = resolve_parallelism(parallelism);
  workers_.reserve(width);
  for (std::size_t lane = 0; lane < width; ++lane) {
    // Any seed works: worker weights are overwritten before every use.
    common::Rng lane_rng(0x5eedULL + lane);
    workers_.push_back(nn::build_model(spec, lane_rng));
  }
  free_workers_.reserve(width);
  for (auto& worker : workers_) free_workers_.push_back(&worker);
  if (width > 1) pool_ = std::make_unique<common::ThreadPool>(width);
}

void ClientExecutor::for_each_client(
    std::size_t n_clients, const std::function<void(std::size_t, nn::Model&)>& fn,
    std::span<const std::size_t> work) {
  if (n_clients == 0) return;
  const std::vector<std::size_t> order = claim_order(n_clients, work);
  if (!pool_ || n_clients == 1) {
    for (std::size_t u : order) fn(u, workers_.front());
    return;
  }
  // One task per lane, each bound to its own worker; a lane claims the next
  // client in `order` whenever it frees up.
  std::atomic<std::size_t> cursor{0};
  const auto lane_loop = [&](std::size_t lane, std::size_t, std::size_t) {
    for (std::size_t k = cursor++; k < n_clients; k = cursor++) fn(order[k], workers_[lane]);
  };
  const std::size_t lanes = std::min(width(), n_clients);
  pool_->parallel_for_chunks(0, lanes, lanes, lane_loop);
}

void ClientExecutor::for_each_index(std::size_t n,
                                    const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (!pool_) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  pool_->parallel_for(0, n, fn);
}

void ClientExecutor::for_each_block(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  if (!pool_) {
    fn(0, n);
    return;
  }
  pool_->parallel_for_blocks(0, n, fn);
}

std::future<void> ClientExecutor::submit(std::function<void(nn::Model&)> task) {
  if (!pool_) {
    std::promise<void> done;
    try {
      task(workers_.front());
      done.set_value();
    } catch (...) {
      done.set_exception(std::current_exception());
    }
    return done.get_future();
  }
  return pool_->submit([this, task = std::move(task)] {
    nn::Model* worker = acquire_worker();
    struct Return {
      ClientExecutor* executor;
      nn::Model* worker;
      ~Return() { executor->release_worker(worker); }
    } guard{this, worker};
    task(*worker);
  });
}

nn::Model* ClientExecutor::acquire_worker() {
  const std::lock_guard lock(free_mutex_);
  // Invariant: concurrently running tasks <= pool threads == worker count.
  if (free_workers_.empty()) {
    throw std::logic_error("ClientExecutor: worker free list exhausted");
  }
  nn::Model* worker = free_workers_.back();
  free_workers_.pop_back();
  return worker;
}

void ClientExecutor::release_worker(nn::Model* worker) noexcept {
  const std::lock_guard lock(free_mutex_);
  free_workers_.push_back(worker);
}

}  // namespace fedsched::fl
