#include "nn/loss.hpp"

#include <cmath>
#include <stdexcept>

namespace fedsched::nn {

using tensor::Tensor;

namespace {
void softmax_row(const float* logits, float* probs, std::size_t k) {
  float max_logit = logits[0];
  for (std::size_t j = 1; j < k; ++j) max_logit = std::max(max_logit, logits[j]);
  double denom = 0.0;
  for (std::size_t j = 0; j < k; ++j) {
    probs[j] = std::exp(logits[j] - max_logit);
    denom += probs[j];
  }
  const float inv = static_cast<float>(1.0 / denom);
  for (std::size_t j = 0; j < k; ++j) probs[j] *= inv;
}
}  // namespace

LossResult softmax_cross_entropy(const Tensor& logits,
                                 std::span<const std::uint16_t> labels) {
  LossResult result;
  softmax_cross_entropy(logits, labels, result);
  return result;
}

void softmax_cross_entropy(const Tensor& logits, std::span<const std::uint16_t> labels,
                           LossResult& result) {
  if (logits.rank() != 2) throw std::invalid_argument("softmax_cross_entropy: rank != 2");
  const std::size_t n = logits.dim(0), k = logits.dim(1);
  if (labels.size() != n) {
    throw std::invalid_argument("softmax_cross_entropy: label count mismatch");
  }
  result.grad.resize({n, k});
  const float* pl = logits.raw();
  float* pg = result.grad.raw();
  double total = 0.0;
  const float inv_n = 1.0f / static_cast<float>(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (labels[i] >= k) throw std::invalid_argument("softmax_cross_entropy: bad label");
    float* row = pg + i * k;
    softmax_row(pl + i * k, row, k);
    // Clamp avoids -inf when a probability underflows to zero.
    total -= std::log(std::max(row[labels[i]], 1e-12f));
    row[labels[i]] -= 1.0f;
    for (std::size_t j = 0; j < k; ++j) row[j] *= inv_n;
  }
  result.loss = total / static_cast<double>(n);
}

Tensor softmax(const Tensor& logits) {
  if (logits.rank() != 2) throw std::invalid_argument("softmax: rank != 2");
  const std::size_t n = logits.dim(0), k = logits.dim(1);
  Tensor probs({n, k});
  for (std::size_t i = 0; i < n; ++i) {
    softmax_row(logits.raw() + i * k, probs.raw() + i * k, k);
  }
  return probs;
}

std::vector<std::uint16_t> argmax_rows(const Tensor& logits) {
  if (logits.rank() != 2) throw std::invalid_argument("argmax_rows: rank != 2");
  const std::size_t n = logits.dim(0), k = logits.dim(1);
  std::vector<std::uint16_t> out(n);
  const float* pl = logits.raw();
  for (std::size_t i = 0; i < n; ++i) {
    const float* row = pl + i * k;
    std::size_t best = 0;
    for (std::size_t j = 1; j < k; ++j) {
      if (row[j] > row[best]) best = j;
    }
    out[i] = static_cast<std::uint16_t>(best);
  }
  return out;
}

}  // namespace fedsched::nn
