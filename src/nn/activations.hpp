#pragma once
// Stateless layers: ReLU and MaxPool2d.

#include <cstdint>
#include <vector>

#include "nn/layer.hpp"

namespace fedsched::nn {

/// y = x > 0 ? x : +0 — so -0, negatives and NaN all map to +0 (unlike
/// std::max, which keeps -0 and NaN). backward() is g * float(x > 0): a
/// masked element of a negative gradient comes back as -0. A training
/// forward writes the output and the mask in one pass.
class ReLU final : public Layer {
 public:
  [[nodiscard]] const tensor::Tensor& forward(const tensor::Tensor& input,
                                              bool train) override;
  [[nodiscard]] const tensor::Tensor& backward(const tensor::Tensor& grad_output) override;
  [[nodiscard]] std::string name() const override { return "ReLU"; }
  [[nodiscard]] std::size_t output_features(std::size_t input_features) const override {
    return input_features;
  }

 private:
  tensor::Shape mask_shape_;         // shape of the last forward(train=true) input
  std::vector<std::uint8_t> mask_;   // 1 where that input > 0; reused across batches
  tensor::Tensor output_;
  tensor::Tensor input_grad_;
};

/// Non-overlapping 2x2-style max pooling over [N, C*H*W] batches. A
/// training forward writes each window's max and its argmax in one pass;
/// ties keep the first element in row-major window order.
class MaxPool2d final : public Layer {
 public:
  MaxPool2d(std::size_t channels, std::size_t in_h, std::size_t in_w,
            std::size_t window);

  [[nodiscard]] const tensor::Tensor& forward(const tensor::Tensor& input,
                                              bool train) override;
  [[nodiscard]] const tensor::Tensor& backward(const tensor::Tensor& grad_output) override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::size_t output_features(std::size_t input_features) const override;

  [[nodiscard]] std::size_t out_h() const noexcept { return in_h_ / window_; }
  [[nodiscard]] std::size_t out_w() const noexcept { return in_w_ / window_; }

 private:
  template <bool Train, std::size_t W>
  void pool(const float* input, std::size_t n);

  std::size_t channels_;
  std::size_t in_h_;
  std::size_t in_w_;
  std::size_t window_;
  std::vector<std::uint32_t> argmax_;  // flat input index per output element
  std::size_t cached_batch_ = 0;
  tensor::Tensor output_;
  tensor::Tensor input_grad_;
};

}  // namespace fedsched::nn
