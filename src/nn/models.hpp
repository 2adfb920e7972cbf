#pragma once
// Reference architectures.
//
// The paper trains LeNet (205K params) and a tailored VGG6 (5.45M params) on
// MNIST / CIFAR10. Accuracy experiments in this repo run on scaled-down
// synthetic images (12x12x1 "MNIST-like", 16x16x3 "CIFAR-like"), so the
// builders below produce proportionally scaled LeNet/VGG6 topologies: same
// layer pattern (conv-pool stacks followed by dense), same conv-heavy vs
// dense-heavy split, smaller widths. The full-size parameter counts used by
// the *device simulator* live in device/model_desc.cpp.
//
// Every layer the builders add runs the one kernel family in tensor/ops.hpp
// (blocked GEMM, branch-free unfold/fold), so a ModelSpec fixes the topology
// and nothing else.

#include "nn/model.hpp"

namespace fedsched::nn {

enum class Arch { kLeNet, kVgg6 };

struct ModelSpec {
  Arch arch = Arch::kLeNet;
  std::size_t in_channels = 1;
  std::size_t in_h = 12;
  std::size_t in_w = 12;
  std::size_t classes = 10;
  /// Multiplies every channel/hidden width (>=1). 1 is the scaled default.
  std::size_t width = 1;
};

[[nodiscard]] Model build_model(const ModelSpec& spec, common::Rng& rng);

/// Two conv-pool stages followed by two dense layers (LeNet pattern).
[[nodiscard]] Model build_lenet(const ModelSpec& spec, common::Rng& rng);

/// Conv-conv-pool, conv-pool, then a single dense head (VGG6 pattern:
/// five 3x3 convolutions + one dense layer in the paper).
[[nodiscard]] Model build_vgg6(const ModelSpec& spec, common::Rng& rng);

/// Plain MLP used by unit tests and the profiler's architecture sweep.
[[nodiscard]] Model build_mlp(std::size_t in_features,
                              const std::vector<std::size_t>& hidden,
                              std::size_t classes, common::Rng& rng);

[[nodiscard]] const char* arch_name(Arch arch) noexcept;

}  // namespace fedsched::nn
