#pragma once
// Asynchronous FL baseline (staleness-damped mixing).
//
// Section II-B of the paper argues against asynchronous updates on mobile
// heterogeneity: fast clients stop waiting for stragglers, but stale
// gradients dilute the global model and amortize the wall-clock savings.
// This runner implements that alternative so the claim is testable
// (bench/ablation_sync_async): every client loops
// {download, train one local epoch, upload} on its own simulated clock; the
// server merges each arriving update immediately with a mixing weight damped
// by the update's staleness (how many merges happened since the client
// pulled its base model), in the spirit of stale-synchronous / async-SGD
// servers [11], [12]. Like the gossip runner it models no faults, deadlines,
// batteries or health and emits no trace.

#include <cstdint>
#include <vector>

#include "data/dataset.hpp"
#include "data/partition.hpp"
#include "device/device.hpp"
#include "fl/parallel.hpp"
#include "nn/models.hpp"
#include "nn/sgd.hpp"

namespace fedsched::fl {

struct AsyncConfig {
  /// Stop once this much simulated time has elapsed.
  double horizon_seconds = 1000.0;
  std::size_t batch_size = 20;
  nn::SgdConfig sgd{.learning_rate = 0.02f, .momentum = 0.9f, .weight_decay = 0.0f};
  /// Mixing weight for a fresh (staleness 0) update.
  double base_mix = 0.5;
  /// Weight decays as base_mix / (1 + staleness)^damping.
  double damping = 1.0;
  std::uint64_t seed = 1;
  /// Lanes training a wave of in-flight clients concurrently on the process
  /// pool: 0 = hardware concurrency, 1 = inline. Results are identical for
  /// every value — the merge order is fixed by the simulated timeline.
  std::size_t parallelism = 0;
};

struct AsyncUpdateRecord {
  double time_s = 0.0;       // simulated arrival time
  std::size_t client = 0;
  std::size_t staleness = 0; // merges since the client pulled its base model
  double mix_weight = 0.0;
};

struct AsyncRunResult {
  std::vector<AsyncUpdateRecord> updates;
  double final_accuracy = 0.0;
  double elapsed_seconds = 0.0;

  [[nodiscard]] double mean_staleness() const;
  [[nodiscard]] std::size_t updates_from(std::size_t client) const;
};

class AsyncRunner {
 public:
  AsyncRunner(const data::Dataset& train, const data::Dataset& test,
              nn::ModelSpec model_spec, device::ModelDesc device_model,
              std::vector<device::PhoneModel> phones, device::NetworkType network,
              AsyncConfig config);

  [[nodiscard]] AsyncRunResult run(const data::Partition& partition);

 private:
  const data::Dataset& train_;
  const data::Dataset& test_;
  device::ModelDesc device_model_;
  std::vector<device::PhoneModel> phones_;
  device::NetworkType network_;
  AsyncConfig config_;
  nn::Model global_;
  ClientExecutor executor_;  // per-lane worker models
};

}  // namespace fedsched::fl
