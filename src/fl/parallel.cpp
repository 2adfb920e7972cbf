#include "fl/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "common/thread_pool.hpp"

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

/// The process pool for more than one lane, else null (everything inline).
common::ThreadPool* lane_pool(std::size_t width) {
  return width > 1 ? &common::global_pool() : nullptr;
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
}

void ClientExecutor::for_each_client(
    std::size_t n_clients, const std::function<void(std::size_t, nn::Model&)>& fn,
    std::span<const std::size_t> work) {
  if (n_clients == 0) return;
  const std::vector<std::size_t> order = claim_order(n_clients, work);
  // One chunk per lane, each bound to its own worker; a lane claims the next
  // client in `order` whenever it frees up (inline, lane 0 claims them all).
  std::atomic<std::size_t> cursor{0};
  const auto lane_loop = [&](std::size_t lane, std::size_t, std::size_t) {
    for (std::size_t k = cursor++; k < n_clients; k = cursor++) fn(order[k], workers_[lane]);
  };
  const std::size_t lanes = std::min(width(), n_clients);
  common::parallel_for_chunks(lane_pool(width()), 0, lanes, lanes, lane_loop);
}

void ClientExecutor::for_each_block(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn) {
  common::parallel_for_chunks(lane_pool(width()), 0, n, width(),
                              [&fn](std::size_t, std::size_t lo, std::size_t hi) { fn(lo, hi); });
}

}  // namespace fedsched::fl
