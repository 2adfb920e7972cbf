#pragma once
// Architecture descriptors consumed by the device simulator and profiler.
//
// The simulator never runs real training — it only needs the quantities the
// paper's profiler regresses on: parameter counts split conv/dense, per-sample
// multiply-accumulate work split the same way, the serialized model size, and
// a power-intensity factor.

#include <string>
#include <vector>

namespace fedsched::device {

struct ModelDesc {
  std::string name;
  std::size_t conv_params = 0;
  std::size_t dense_params = 0;
  /// Forward+backward multiply-accumulates per training sample, in millions.
  double conv_mmacs = 0.0;
  double dense_mmacs = 0.0;
  /// Serialized size pushed/pulled each round (paper: LeNet 2.5, VGG6 65.4).
  double size_mb = 0.0;
  /// Relative sustained power draw while training (0..1 of device peak).
  double power_intensity = 1.0;

  [[nodiscard]] std::size_t total_params() const noexcept {
    return conv_params + dense_params;
  }
};

/// The paper's LeNet: 205K parameters, 2.5 MB serialized.
[[nodiscard]] const ModelDesc& lenet_desc();
/// The paper's tailored VGG6: 5.45M parameters, 65.4 MB serialized.
[[nodiscard]] const ModelDesc& vgg6_desc();

[[nodiscard]] const ModelDesc& desc_by_name(const std::string& name);

/// Family of k architecture variants spanning conv/dense parameter space —
/// the "k different model architectures" the profiler is fitted on (Fig 4a).
[[nodiscard]] std::vector<ModelDesc> profiler_sweep(std::size_t k = 12);

}  // namespace fedsched::device
