#pragma once
// 2-D convolution over [N, C*H*W] batches via im2col + GEMM.
//
// Every image is copied once into a zero-bordered buffer and unfolded from
// there with no bounds tests (tensor/ops.hpp), into a single
// [patch_size, N * out_h * out_w] matrix, so the forward pass is ONE large
// blocked GEMM instead of N small ones; the bias and the NCHW scatter follow
// in the per-sample loop. forward(train=true) also writes the k-major copy of
// that matrix, which the dW GEMM reads in place, and both backward GEMMs read
// dY in its own [N, out_c, spatial] layout (no gather, no per-batch repack of
// the columns). The fold of the input gradient is branch-free too. Every
// buffer is owned by the layer and reused across batches.
//
// Every chunk boundary depends only on the batch size — never on thread
// count or scheduling — and all gradient reductions run in a fixed order, so
// results are bit-identical whether the chunks run inline or concurrently.
// tests/nn/test_train_digest.cpp pins the training bits, and
// tests/nn/test_layers.cpp checks the layer against a per-sample oracle built
// from im2col, the naive GEMMs and col2im.

#include "common/thread_pool.hpp"
#include "nn/layer.hpp"
#include "tensor/ops.hpp"

namespace fedsched::nn {

class Conv2d final : public Layer {
 public:
  Conv2d(tensor::ops::Conv2dGeometry geometry, std::size_t out_channels,
         common::Rng& rng);

  [[nodiscard]] const tensor::Tensor& forward(const tensor::Tensor& input,
                                              bool train) override;
  [[nodiscard]] const tensor::Tensor& backward(const tensor::Tensor& grad_output) override;
  [[nodiscard]] std::vector<Param> params() override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::size_t output_features(std::size_t input_features) const override;
  [[nodiscard]] double macs_per_sample() const override;

  /// Discard the k-major columns written by the last forward(train=true);
  /// the next backward re-unfolds them from that batch's padded copy
  /// instead. Test hook for asserting the cached and recomputed paths agree
  /// bitwise. An eval forward in between overwrites the padded copy, so
  /// backward then throws std::logic_error.
  void drop_column_cache() noexcept { columns_cached_ = false; }

 private:
  /// Number of sample chunks for a batch of n — a pure function of n.
  [[nodiscard]] static std::size_t sample_chunks(std::size_t n) noexcept;
  /// Run fn(chunk, lo, hi) over every chunk, on the global pool when the
  /// batch is heavy enough to amortize dispatch. Either way the chunk
  /// boundaries (and therefore all reductions) are identical.
  template <typename Fn>
  void dispatch_chunks(std::size_t n, const Fn& fn) const;

  /// Unfold sample s of the n-sample batch in padded_ into columns_ and,
  /// with `kmajor`, transpose it into columns_kmajor_.
  void unfold_sample(std::size_t s, std::size_t n, bool kmajor);

  tensor::ops::Conv2dGeometry geometry_;
  std::size_t out_channels_;
  tensor::Tensor weight_;       // [out_c, patch_size]
  tensor::Tensor bias_;         // [out_c]
  tensor::Tensor grad_weight_;
  tensor::Tensor grad_bias_;
  std::size_t batch_ = 0;       // N of the last forward(train=true)

  // Owned results, sized at the first batch and reused.
  tensor::Tensor output_;       // [N, out_c*spatial]
  tensor::Tensor input_grad_;   // [N, C*H*W]; stays empty with input_grad() off

  tensor::Tensor padded_;       // [N, padded image] the last forward's batch
  tensor::Tensor columns_;      // [patch, N*spatial] forward GEMM operand
  // [N*spatial, patch rounded up to 16] of the last train batch; the padding
  // columns stay zero (resize zero-fills, the transpose never writes them).
  tensor::Tensor columns_kmajor_;
  tensor::Tensor gemm_out_;     // [out_c, N*spatial] forward product
  tensor::Tensor weight_step_;  // [out_c, patch] this batch's dW, then added
  tensor::Tensor grad_cols_;    // [patch, N*spatial] W^T dY
  tensor::Tensor fold_scratch_;  // [chunks, padded image] one per sample chunk
  tensor::ops::GemmWorkspace gemm_ws_;
  bool columns_cached_ = false;    // columns_kmajor_ holds the last train batch
  bool padded_is_train_ = false;   // padded_ holds the last train batch
};

}  // namespace fedsched::nn
