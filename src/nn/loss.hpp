#pragma once
// Softmax + cross-entropy loss with fused gradient.

#include <cstdint>
#include <span>

#include "tensor/tensor.hpp"

namespace fedsched::nn {

struct LossResult {
  double loss = 0.0;          // mean negative log-likelihood over the batch
  tensor::Tensor grad;        // d loss / d logits, [N, K]
};

/// logits: [N, K]; labels: N entries in [0, K).
[[nodiscard]] LossResult softmax_cross_entropy(const tensor::Tensor& logits,
                                               std::span<const std::uint16_t> labels);

/// The same into `result`, reusing result.grad's storage: the form a
/// training loop calls once per batch without allocating.
void softmax_cross_entropy(const tensor::Tensor& logits,
                           std::span<const std::uint16_t> labels, LossResult& result);

/// Row-wise softmax probabilities (numerically stabilized), for inference.
[[nodiscard]] tensor::Tensor softmax(const tensor::Tensor& logits);

/// Index of the max logit per row.
[[nodiscard]] std::vector<std::uint16_t> argmax_rows(const tensor::Tensor& logits);

}  // namespace fedsched::nn
