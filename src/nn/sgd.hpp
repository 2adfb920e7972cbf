#pragma once
// Plain SGD with optional momentum — the optimizer FedAvg clients run.

#include <span>
#include <vector>

#include "nn/model.hpp"

namespace fedsched::nn {

struct SgdConfig {
  float learning_rate = 0.05f;
  float momentum = 0.0f;       // 0 disables the velocity buffers
  float weight_decay = 0.0f;   // L2 penalty applied to weights
};

class Sgd {
 public:
  explicit Sgd(SgdConfig config) : config_(config) {}

  /// Apply one update from the accumulated gradients, then zero them.
  void step(Model& model);

  [[nodiscard]] const SgdConfig& config() const noexcept { return config_; }

  /// Momentum buffers flattened in parameter order — empty before the first
  /// step (or with momentum disabled). The optimizer half of a client's
  /// checkpointable state.
  [[nodiscard]] std::vector<float> flat_velocity() const;

  /// Restore flat_velocity() output; `model` supplies the buffer shapes. An
  /// empty span clears the buffers (the pre-first-step state). Throws
  /// std::invalid_argument when the total element count mismatches.
  void set_flat_velocity(Model& model, std::span<const float> flat);

 private:
  SgdConfig config_;
  std::vector<tensor::Tensor> velocity_;  // one per parameter, lazily sized
};

}  // namespace fedsched::nn
