#pragma once
// Fully connected layer: y = x W^T + b.
//
// Every product runs on the blocked GEMM engine, whose bits do not depend on
// the thread-pool width (see tensor/ops.hpp). The layer owns its output, its
// input copy, its gradient scratch and a GemmWorkspace, so steady-state
// training reuses every buffer.

#include "nn/layer.hpp"
#include "tensor/ops.hpp"

namespace fedsched::nn {

class Dense final : public Layer {
 public:
  /// He-style initialization scaled by fan-in.
  Dense(std::size_t in_features, std::size_t out_features, common::Rng& rng);

  [[nodiscard]] const tensor::Tensor& forward(const tensor::Tensor& input,
                                              bool train) override;
  [[nodiscard]] const tensor::Tensor& backward(const tensor::Tensor& grad_output) override;
  [[nodiscard]] std::vector<Param> params() override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::size_t output_features(std::size_t input_features) const override;
  [[nodiscard]] double macs_per_sample() const override;

 private:
  std::size_t in_;
  std::size_t out_;
  tensor::Tensor weight_;       // [out, in]
  tensor::Tensor bias_;         // [out]
  tensor::Tensor grad_weight_;  // [out, in]
  tensor::Tensor grad_bias_;    // [out]
  tensor::Tensor cached_input_;  // [N, in] copy of the last training batch
  tensor::Tensor output_;        // [N, out]
  tensor::Tensor input_grad_;    // [N, in]; stays empty with input_grad() off
  tensor::Tensor weight_step_;   // [out, in] this batch's dW, then added
  tensor::Tensor bias_step_;     // [out] this batch's db, then added
  tensor::ops::GemmWorkspace gemm_ws_;  // packing buffers, reused per batch
};

}  // namespace fedsched::nn
