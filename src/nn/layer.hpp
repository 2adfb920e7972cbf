#pragma once
// Layer interface for the from-scratch training stack.
//
// Batches travel as 2-D tensors [N, features]; convolutional layers carry
// their own spatial geometry. Each layer copies what its backward pass needs
// into storage it owns during forward(train=true), and owns the tensors it
// returns: forward() and backward() hand out a reference that stays valid
// until the same layer's next call of that kind. Owned buffers are sized at
// the first batch and reused (a smaller ragged tail batch fits the same
// storage), so a steady-state training step allocates nothing.
//
// Parameters are tagged Conv or Dense because the paper's performance
// profiler (Section IV-B) regresses training time against the two groups
// separately — convolutions cost far more time per parameter.

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace fedsched::nn {

enum class ParamKind { kConv, kDense };

/// Non-owning handle to one parameter tensor and its gradient.
struct Param {
  tensor::Tensor* value = nullptr;
  tensor::Tensor* grad = nullptr;
  ParamKind kind = ParamKind::kDense;
};

class Layer {
 public:
  virtual ~Layer() = default;

  /// Forward pass; when train is true the layer keeps what backward needs.
  /// The layer keeps no reference to `input` past the call. The result is
  /// the layer's own output buffer, valid until its next forward().
  [[nodiscard]] virtual const tensor::Tensor& forward(const tensor::Tensor& input,
                                                      bool train) = 0;

  /// Backward pass w.r.t. the most recent forward(train=true) input.
  /// Accumulates into parameter gradients and returns grad w.r.t. input —
  /// or, for a Conv2d or Dense with input_grad() off, an empty tensor. The
  /// result is the layer's own buffer, valid until its next backward().
  [[nodiscard]] virtual const tensor::Tensor& backward(
      const tensor::Tensor& grad_output) = 0;

  /// Whether backward() computes the gradient w.r.t. the input (default on).
  /// Model::add turns it off for a model's first layer, whose input is the
  /// data batch: nothing reads that gradient, so Conv2d and Dense skip the
  /// input-gradient GEMM (and Conv2d its col2im) and return an empty tensor.
  /// Parameter gradients do not change; stateless layers ignore the flag.
  void set_input_grad(bool on) noexcept { input_grad_ = on; }
  [[nodiscard]] bool input_grad() const noexcept { return input_grad_; }

  /// Parameter handles (empty for stateless layers).
  [[nodiscard]] virtual std::vector<Param> params() { return {}; }

  [[nodiscard]] virtual std::string name() const = 0;

  /// Output feature count given the input feature count.
  [[nodiscard]] virtual std::size_t output_features(std::size_t input_features) const = 0;

  /// Multiply-accumulates per sample in the forward pass (0 for stateless).
  [[nodiscard]] virtual double macs_per_sample() const { return 0.0; }

 private:
  bool input_grad_ = true;
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace fedsched::nn
