#pragma once
// Client-parallel execution engine shared by the FL runners.
//
// The simulated fleet is embarrassingly parallel within a round: every
// client trains from its own snapshot of the global parameters against its
// own optimizer, device and RNG stream. ClientExecutor owns one worker model
// per lane, so concurrent clients never share mutable training state.
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
// concurrency, 1 runs every client inline on the calling thread, and k >= 2
// runs k lanes on the process pool (common::global_pool()). The executor
// owns worker models, not threads, so an idle executor holds no thread.

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

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
  /// order when `work` is empty (otherwise it needs n_clients entries).
  /// Each lane claims the next client as it frees up. The worker model is
  /// exclusive to the executing lane for the duration of the call; fn must
  /// only write client-indexed state and must not rely on what an earlier
  /// client left in the worker. If fn throws, the failing lane stops
  /// claiming, the other lanes drain the claim order, and the first
  /// exception is rethrown; at width 1 the one lane stops at the failing
  /// client.
  void for_each_client(std::size_t n_clients,
                       const std::function<void(std::size_t, nn::Model&)>& fn,
                       std::span<const std::size_t> work = {});

  /// Block-wise fork/join for ordered reductions and per-index passes that
  /// need no worker model: fn(lo, hi) over width() contiguous blocks of
  /// [0, n) (ThreadPool::chunk_bounds).
  void for_each_block(std::size_t n,
                      const std::function<void(std::size_t, std::size_t)>& fn);

 private:
  std::vector<nn::Model> workers_;
};

}  // namespace fedsched::fl
