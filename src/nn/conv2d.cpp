#include "nn/conv2d.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace fedsched::nn {

using tensor::Tensor;
namespace ops = tensor::ops;

namespace {

/// Samples per chunk. Small enough that mobile batch sizes (20) produce
/// several chunks, large enough that each chunk amortizes its scratch.
constexpr std::size_t kSampleGrain = 8;

/// Below this many MACs per pass the pool dispatch overhead dominates and
/// chunks run inline on the caller (with identical boundaries and results).
constexpr double kMinMacsForPool = 1.5e6;

/// Reallocate `t` only when the shape actually changes; otherwise reuse the
/// storage (every consumer fully overwrites it).
void ensure_shape(Tensor& t, tensor::Shape shape) {
  if (t.shape() != shape) t = Tensor(std::move(shape));
}

}  // namespace

Conv2d::Conv2d(ops::Conv2dGeometry geometry, std::size_t out_channels,
               common::Rng& rng, ops::KernelPolicy policy)
    : geometry_(geometry),
      out_channels_(out_channels),
      policy_(policy),
      weight_(Tensor::randn({out_channels, geometry.patch_size()}, rng,
                            std::sqrt(2.0f / static_cast<float>(geometry.patch_size())))),
      bias_({out_channels}),
      grad_weight_({out_channels, geometry.patch_size()}),
      grad_bias_({out_channels}) {
  if (out_channels == 0) throw std::invalid_argument("Conv2d: zero out_channels");
  if (geometry.kernel == 0 || geometry.stride == 0) {
    throw std::invalid_argument("Conv2d: zero kernel/stride");
  }
  if (geometry.in_h + 2 * geometry.pad < geometry.kernel ||
      geometry.in_w + 2 * geometry.pad < geometry.kernel) {
    throw std::invalid_argument("Conv2d: kernel larger than padded input");
  }
}

std::size_t Conv2d::sample_chunks(std::size_t n) noexcept {
  return common::ThreadPool::grain_chunks(n, kSampleGrain);
}

void Conv2d::dispatch_chunks(std::size_t n, const common::ThreadPool::ChunkFn& fn) const {
  const std::size_t chunks = sample_chunks(n);
  if (chunks <= 1) {
    if (n > 0) fn(0, 0, n);
    return;
  }
  const double macs = macs_per_sample() * static_cast<double>(n);
  if (macs >= kMinMacsForPool && common::global_pool().size() > 1) {
    common::global_pool().parallel_for_chunks(0, n, chunks, fn);
    return;
  }
  for (std::size_t c = 0; c < chunks; ++c) {
    const auto [lo, hi] = common::ThreadPool::chunk_bounds(0, n, chunks, c);
    fn(c, lo, hi);
  }
}

Tensor Conv2d::forward(const Tensor& input, bool train) {
  const std::size_t in_features = geometry_.in_channels * geometry_.in_h * geometry_.in_w;
  if (input.rank() != 2 || input.dim(1) != in_features) {
    throw std::invalid_argument("Conv2d::forward: bad input shape " +
                                tensor::shape_to_string(input.shape()));
  }
  if (train) cached_input_ = input;
  return policy_ == ops::KernelPolicy::kBlocked ? forward_blocked(input, train)
                                                : forward_reference(input, train);
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  if (cached_input_.numel() == 0) {
    throw std::logic_error("Conv2d::backward before forward(train=true)");
  }
  const std::size_t n = cached_input_.dim(0);
  const std::size_t spatial = geometry_.out_h() * geometry_.out_w();
  if (grad_output.rank() != 2 || grad_output.dim(0) != n ||
      grad_output.dim(1) != out_channels_ * spatial) {
    throw std::invalid_argument("Conv2d::backward: grad shape mismatch");
  }
  return policy_ == ops::KernelPolicy::kBlocked ? backward_blocked(grad_output)
                                                : backward_reference(grad_output);
}

void Conv2d::unfold_batch(const Tensor& input) {
  const std::size_t in_features = geometry_.in_channels * geometry_.in_h * geometry_.in_w;
  const std::size_t n = input.dim(0);
  const std::size_t spatial = geometry_.out_h() * geometry_.out_w();
  ensure_shape(columns_, {geometry_.patch_size(), n * spatial});
  dispatch_chunks(n, [&](std::size_t, std::size_t lo, std::size_t hi) {
    for (std::size_t s = lo; s < hi; ++s) {
      ops::im2col_batch_sample(input.data().subspan(s * in_features, in_features),
                               geometry_, n, s, columns_);
    }
  });
}

Tensor Conv2d::forward_blocked(const Tensor& input, bool train) {
  const std::size_t n = input.dim(0);
  const std::size_t spatial = geometry_.out_h() * geometry_.out_w();

  // One unfold, one GEMM, one bias+scatter — each phase chunked with fixed
  // boundaries (samples here, output-column panels inside the GEMM).
  unfold_batch(input);
  columns_cached_ = train;

  ensure_shape(gemm_out_, {out_channels_, n * spatial});
  ops::matmul(weight_, columns_, gemm_out_, gemm_ws_);

  Tensor out({n, out_channels_ * spatial});
  dispatch_chunks(n, [&](std::size_t, std::size_t lo, std::size_t hi) {
    const float* src = gemm_out_.raw();
    const float* pb = bias_.raw();
    for (std::size_t s = lo; s < hi; ++s) {
      float* dst = out.raw() + s * out_channels_ * spatial;
      for (std::size_t c = 0; c < out_channels_; ++c) {
        const float* row = src + c * n * spatial + s * spatial;
        const float bc = pb[c];
        for (std::size_t p = 0; p < spatial; ++p) dst[c * spatial + p] = row[p] + bc;
      }
    }
  });
  return out;
}

Tensor Conv2d::backward_blocked(const Tensor& grad_output) {
  const std::size_t n = cached_input_.dim(0);
  const std::size_t spatial = geometry_.out_h() * geometry_.out_w();
  const std::size_t in_features = geometry_.in_channels * geometry_.in_h * geometry_.in_w;
  const std::size_t ns = n * spatial;

  // Batch columns: reuse the forward cache when it is still valid, otherwise
  // re-unfold from the cached input (same bits — same kernel, same input).
  if (!columns_cached_ || columns_.dim(1) != ns) unfold_batch(cached_input_);
  columns_cached_ = false;

  // Gather dY from [N, out_c*spatial] into the GEMM layout [out_c, N*spatial].
  ensure_shape(grad_mat_, {out_channels_, ns});
  dispatch_chunks(n, [&](std::size_t, std::size_t lo, std::size_t hi) {
    float* dst = grad_mat_.raw();
    for (std::size_t s = lo; s < hi; ++s) {
      const float* src = grad_output.raw() + s * out_channels_ * spatial;
      for (std::size_t c = 0; c < out_channels_; ++c) {
        std::copy_n(src + c * spatial, spatial, dst + c * ns + s * spatial);
      }
    }
  });

  // dW += dY cols^T — one GEMM over the whole batch; the k-accumulation runs
  // in fixed column order, so the result is width-invariant.
  Tensor dw({out_channels_, geometry_.patch_size()});
  ops::matmul_nt(grad_mat_, columns_, dw, gemm_ws_);
  grad_weight_ += dw;

  // db += row sums of dY (serial: out_c is tiny, order fixed).
  {
    float* pb = grad_bias_.raw();
    const float* g = grad_mat_.raw();
    for (std::size_t c = 0; c < out_channels_; ++c) {
      const float* row = g + c * ns;
      float acc = 0.0f;
      for (std::size_t p = 0; p < ns; ++p) acc += row[p];
      pb[c] += acc;
    }
  }

  if (!input_grad()) return {};

  // dcols = W^T dY — the second batch-level GEMM — then fold per sample.
  ensure_shape(grad_cols_, {geometry_.patch_size(), ns});
  ops::matmul_tn(weight_, grad_mat_, grad_cols_, gemm_ws_);

  Tensor dx({n, in_features});
  dispatch_chunks(n, [&](std::size_t, std::size_t lo, std::size_t hi) {
    for (std::size_t s = lo; s < hi; ++s) {
      auto img = dx.data().subspan(s * in_features, in_features);
      ops::col2im_batch_sample(grad_cols_, geometry_, n, s, img);
    }
  });
  return dx;
}

Tensor Conv2d::forward_reference(const Tensor& input, bool) {
  const std::size_t in_features = geometry_.in_channels * geometry_.in_h * geometry_.in_w;
  const std::size_t n = input.dim(0);
  const std::size_t spatial = geometry_.out_h() * geometry_.out_w();

  Tensor out({n, out_channels_ * spatial});
  dispatch_chunks(n, [&](std::size_t, std::size_t lo, std::size_t hi) {
    Tensor columns({geometry_.patch_size(), spatial});
    Tensor result({out_channels_, spatial});
    for (std::size_t s = lo; s < hi; ++s) {
      ops::im2col(input.data().subspan(s * in_features, in_features), geometry_, columns);
      ops::matmul_ref(weight_, columns, result);
      float* dst = out.raw() + s * out_channels_ * spatial;
      const float* src = result.raw();
      const float* pb = bias_.raw();
      for (std::size_t c = 0; c < out_channels_; ++c) {
        for (std::size_t p = 0; p < spatial; ++p) {
          dst[c * spatial + p] = src[c * spatial + p] + pb[c];
        }
      }
    }
  });
  return out;
}

Tensor Conv2d::backward_reference(const Tensor& grad_output) {
  const std::size_t n = cached_input_.dim(0);
  const std::size_t spatial = geometry_.out_h() * geometry_.out_w();
  const std::size_t in_features = geometry_.in_channels * geometry_.in_h * geometry_.in_w;

  Tensor dx;
  if (input_grad()) dx = Tensor({n, in_features});
  // Per-chunk weight/bias gradient partials: each chunk sums its own samples,
  // then the partials reduce in chunk order. Since chunk boundaries depend
  // only on n, the accumulation order is the same for any thread count.
  const std::size_t chunks = sample_chunks(n);
  std::vector<Tensor> dw_partial;
  std::vector<Tensor> db_partial;
  dw_partial.reserve(chunks);
  db_partial.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    dw_partial.emplace_back(tensor::Shape{out_channels_, geometry_.patch_size()});
    db_partial.emplace_back(tensor::Shape{out_channels_});
  }

  dispatch_chunks(n, [&](std::size_t chunk, std::size_t lo, std::size_t hi) {
    Tensor columns({geometry_.patch_size(), spatial});
    Tensor grad_mat({out_channels_, spatial});
    Tensor dcols({geometry_.patch_size(), spatial});
    Tensor dw({out_channels_, geometry_.patch_size()});
    for (std::size_t s = lo; s < hi; ++s) {
      // Reconstruct the im2col matrix of this sample (cheaper than caching all).
      ops::im2col(cached_input_.data().subspan(s * in_features, in_features), geometry_,
                  columns);
      const float* g = grad_output.raw() + s * out_channels_ * spatial;
      std::copy(g, g + out_channels_ * spatial, grad_mat.raw());

      // dW += dY * cols^T ; db += row sums of dY ; dcols = W^T dY.
      ops::matmul_nt_ref(grad_mat, columns, dw);
      dw_partial[chunk] += dw;
      float* pb = db_partial[chunk].raw();
      for (std::size_t c = 0; c < out_channels_; ++c) {
        const float* row = g + c * spatial;
        float acc = 0.0f;
        for (std::size_t p = 0; p < spatial; ++p) acc += row[p];
        pb[c] += acc;
      }
      if (!input_grad()) continue;
      ops::matmul_tn_ref(weight_, grad_mat, dcols);
      auto img = dx.data().subspan(s * in_features, in_features);
      ops::col2im(dcols, geometry_, img);
    }
  });

  for (std::size_t c = 0; c < chunks; ++c) {
    grad_weight_ += dw_partial[c];
    grad_bias_ += db_partial[c];
  }
  return dx;
}

std::vector<Param> Conv2d::params() {
  return {{&weight_, &grad_weight_, ParamKind::kConv},
          {&bias_, &grad_bias_, ParamKind::kConv}};
}

std::string Conv2d::name() const {
  return "Conv2d(" + std::to_string(geometry_.in_channels) + "->" +
         std::to_string(out_channels_) + ", k=" + std::to_string(geometry_.kernel) +
         ", s=" + std::to_string(geometry_.stride) + ", p=" + std::to_string(geometry_.pad) +
         ")";
}

std::size_t Conv2d::output_features(std::size_t input_features) const {
  const std::size_t expected =
      geometry_.in_channels * geometry_.in_h * geometry_.in_w;
  if (input_features != expected) {
    throw std::invalid_argument("Conv2d: feature mismatch");
  }
  return out_channels_ * geometry_.out_h() * geometry_.out_w();
}

double Conv2d::macs_per_sample() const {
  return static_cast<double>(geometry_.patch_size()) *
         static_cast<double>(out_channels_) *
         static_cast<double>(geometry_.out_h() * geometry_.out_w());
}

}  // namespace fedsched::nn
