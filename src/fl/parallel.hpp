#pragma once
// Client-parallel execution engine shared by the FL runners.
//
// The simulated fleet is embarrassingly parallel within a round: every
// client trains from its own snapshot of the global parameters against its
// own optimizer, device and RNG stream. ClientExecutor owns one worker model
// per lane (pool thread), so concurrent clients never share mutable training
// state.
//
// Lanes claim clients one at a time from a shared cursor over a claim order
// fixed before the call: heaviest first by the caller's per-client work
// (ties to the lower client id), or index order when the caller passes no
// work. This is the makespan rule Fed-LBAP applies to phones, applied to
// host lanes: Fed-LBAP hands phones deliberately unequal shares, and fixed
// contiguous chunks would give one lane 13,100 of Table III's 30,000 samples
// and another 4,250. Which lane runs a client depends on timing, so the worker
// a client trains on is not fixed; runners treat worker state as scratch
// (set_flat_params overwrites the weights, Sgd::step leaves the gradients
// zero).
//
// Determinism contract: runners write only client-indexed state inside the
// parallel region and reduce in fixed client order afterwards, so a run with
// any `parallelism` width is bit-for-bit identical to the serial run
// (enforced by tests/integration/test_determinism_matrix.cpp and, on
// shares whose claim order is not index order, tests/fl/test_parallel_executor.cpp).
//
// Width semantics (the FlConfig::parallelism knob): 0 selects the hardware
// concurrency, 1 the legacy serial path (no pool, no extra threads), k >= 2
// a pool of k threads.

#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/thread_pool.hpp"
#include "nn/models.hpp"

namespace fedsched::fl {

/// Resolve the config knob to a concrete lane count (0 -> hardware).
[[nodiscard]] std::size_t resolve_parallelism(std::size_t parallelism) noexcept;

class ClientExecutor {
 public:
  /// Builds `resolve_parallelism(parallelism)` worker models of the given
  /// topology. Worker weights are scratch — every use overwrites them via
  /// set_flat_params before training.
  ClientExecutor(const nn::ModelSpec& spec, std::size_t parallelism);

  [[nodiscard]] std::size_t width() const noexcept { return workers_.size(); }

  /// Run fn(client, worker) once for every client in [0, n_clients), in
  /// claim order: `work` descending with ties to the lower id, or index
  /// order when `work` is empty (otherwise it needs n_clients entries). A
  /// serial executor runs the clients in that order; a pool's lanes each
  /// claim the next client as they free up. The worker model is exclusive
  /// to the executing lane for the duration of the call; fn must only write
  /// client-indexed state and must not rely on what an earlier client left
  /// in the worker. If fn throws, its lane stops claiming, the other lanes
  /// finish, and the first exception is rethrown.
  void for_each_client(std::size_t n_clients,
                       const std::function<void(std::size_t, nn::Model&)>& fn,
                       std::span<const std::size_t> work = {});

  /// Run fn(i) for i in [0, n) without a worker model (e.g. mixing steps
  /// whose per-index output is independent of chunking).
  void for_each_index(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Block-wise variant for ordered reductions: fn(lo, hi) over [0, n).
  void for_each_block(std::size_t n,
                      const std::function<void(std::size_t, std::size_t)>& fn);

  /// One-off task with an exclusive worker — the async runner's unit of
  /// work. Serial executors run the task inline (the returned future is
  /// already ready); parallel executors run it on the pool with a worker
  /// checked out from the free list.
  std::future<void> submit(std::function<void(nn::Model&)> task);

 private:
  [[nodiscard]] nn::Model* acquire_worker();
  void release_worker(nn::Model* worker) noexcept;

  std::vector<nn::Model> workers_;
  std::vector<nn::Model*> free_workers_;
  std::mutex free_mutex_;
  std::unique_ptr<common::ThreadPool> pool_;  // null when width() == 1
};

}  // namespace fedsched::fl
