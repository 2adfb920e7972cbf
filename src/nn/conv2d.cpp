#include "nn/conv2d.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <utility>

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

/// Most channel chains one bias-sum pass advances together.
constexpr std::size_t kMaxChains = 16;

/// grad_bias[g] += the sum of channel g's values over every sample, in
/// (sample, position) order from +0, for G channels at once: each channel
/// keeps its own sequential chain, but the G chains advance together
/// instead of one after another.
template <std::size_t G>
void add_channel_sums(const float* dy, std::size_t n, std::size_t sample_stride,
                      std::size_t spatial, float* grad_bias) {
  float acc[G] = {};
  for (std::size_t s = 0; s < n; ++s) {
    const float* base = dy + s * sample_stride;
    for (std::size_t p = 0; p < spatial; ++p) {
      for (std::size_t g = 0; g < G; ++g) acc[g] += base[g * spatial + p];
    }
  }
  for (std::size_t g = 0; g < G; ++g) grad_bias[g] += acc[g];
}

using ChannelSumsFn = void (*)(const float*, std::size_t, std::size_t, std::size_t,
                               float*);

/// add_channel_sums<G> for G = 1..kMaxChains, indexed by G - 1.
template <std::size_t... I>
constexpr std::array<ChannelSumsFn, sizeof...(I)> channel_sums_table(
    std::index_sequence<I...>) {
  return {&add_channel_sums<I + 1>...};
}
constexpr auto kChannelSums = channel_sums_table(std::make_index_sequence<kMaxChains>{});

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

template <typename Fn>
void Conv2d::dispatch_chunks(std::size_t n, const Fn& fn) const {
  const double macs = macs_per_sample() * static_cast<double>(n);
  common::parallel_for_chunks(macs >= kMinMacsForPool ? &common::global_pool() : nullptr,
                              0, n, sample_chunks(n), fn);
}

const Tensor& Conv2d::forward(const Tensor& input, bool train) {
  const std::size_t in_features = geometry_.in_channels * geometry_.in_h * geometry_.in_w;
  if (input.rank() != 2 || input.dim(1) != in_features) {
    throw std::invalid_argument("Conv2d::forward: bad input shape " +
                                tensor::shape_to_string(input.shape()));
  }
  if (train) batch_ = input.dim(0);
  return policy_ == ops::KernelPolicy::kBlocked ? forward_blocked(input, train)
                                                : forward_reference(input, train);
}

const Tensor& Conv2d::backward(const Tensor& grad_output) {
  if (batch_ == 0) throw std::logic_error("Conv2d::backward before forward(train=true)");
  const std::size_t spatial = geometry_.out_h() * geometry_.out_w();
  if (grad_output.rank() != 2 || grad_output.dim(0) != batch_ ||
      grad_output.dim(1) != out_channels_ * spatial) {
    throw std::invalid_argument("Conv2d::backward: grad shape mismatch");
  }
  return policy_ == ops::KernelPolicy::kBlocked ? backward_blocked(grad_output)
                                                : backward_reference(grad_output);
}

void Conv2d::unfold_sample(std::size_t s, std::size_t n, bool kmajor) {
  const std::size_t patch = geometry_.patch_size();
  const std::size_t spatial = geometry_.out_h() * geometry_.out_w();
  float* cols = columns_.raw() + s * spatial;
  ops::unfold_padded(padded_.raw() + s * ops::padded_size(geometry_), geometry_, cols,
                     n * spatial);
  if (kmajor) {
    const std::size_t ldb = tensor::gemm::kmajor_stride(patch);
    ops::transpose_block(cols, n * spatial, patch, spatial,
                         columns_kmajor_.raw() + s * spatial * ldb, ldb);
  }
}

const Tensor& Conv2d::forward_blocked(const Tensor& input, bool train) {
  const std::size_t in_features = geometry_.in_channels * geometry_.in_h * geometry_.in_w;
  const std::size_t n = input.dim(0);
  const std::size_t patch = geometry_.patch_size();
  const std::size_t spatial = geometry_.out_h() * geometry_.out_w();
  const std::size_t ns = n * spatial;
  const std::size_t padded = ops::padded_size(geometry_);

  // Pad and unfold each sample — plus, for training, the k-major copy the dW
  // GEMM reads — in fixed sample chunks. An eval batch leaves the training
  // columns alone, so a backward after it still sees its own batch.
  padded_.resize({n, padded});
  columns_.resize({patch, ns});
  if (train) columns_kmajor_.resize({ns, tensor::gemm::kmajor_stride(patch)});
  dispatch_chunks(n, [&](std::size_t, std::size_t lo, std::size_t hi) {
    for (std::size_t s = lo; s < hi; ++s) {
      ops::pad_image(input.data().subspan(s * in_features, in_features), geometry_,
                     padded_.raw() + s * padded);
      unfold_sample(s, n, train);
    }
  });
  padded_is_train_ = train;
  if (train) columns_cached_ = true;

  // One GEMM over the whole batch, then bias + NCHW scatter per sample (the
  // bias is added after the full k-sum).
  gemm_out_.resize({out_channels_, ns});
  ops::matmul(weight_, columns_, gemm_out_, gemm_ws_);
  output_.resize({n, out_channels_ * spatial});
  dispatch_chunks(n, [&](std::size_t, std::size_t lo, std::size_t hi) {
    const float* src = gemm_out_.raw();
    const float* pb = bias_.raw();
    for (std::size_t s = lo; s < hi; ++s) {
      float* dst = output_.raw() + s * out_channels_ * spatial;
      for (std::size_t c = 0; c < out_channels_; ++c) {
        const float* row = src + c * ns + s * spatial;
        const float bc = pb[c];
        for (std::size_t p = 0; p < spatial; ++p) dst[c * spatial + p] = row[p] + bc;
      }
    }
  });
  return output_;
}

const Tensor& Conv2d::backward_blocked(const Tensor& grad_output) {
  const std::size_t n = batch_;
  const std::size_t patch = geometry_.patch_size();
  const std::size_t spatial = geometry_.out_h() * geometry_.out_w();
  const std::size_t in_features = geometry_.in_channels * geometry_.in_h * geometry_.in_w;
  const std::size_t sample_stride = out_channels_ * spatial;
  const float* dy = grad_output.raw();

  if (!columns_cached_) {
    if (!padded_is_train_) {
      throw std::logic_error(
          "Conv2d::backward: columns dropped and the training batch overwritten");
    }
    const std::size_t ns = n * spatial;
    columns_.resize({patch, ns});
    columns_kmajor_.resize({ns, tensor::gemm::kmajor_stride(patch)});
    dispatch_chunks(n, [&](std::size_t, std::size_t lo, std::size_t hi) {
      for (std::size_t s = lo; s < hi; ++s) unfold_sample(s, n, true);
    });
    columns_cached_ = true;
  }

  // dW += dY cols^T — one GEMM over the whole batch with dY read in its
  // [n, out_c, spatial] layout and the k-major columns read in place. The
  // product lands in weight_step_ first: grad_weight_ + (dY cols^T) keeps
  // the product's own k grouping (and turns a -0 product into +0).
  weight_step_.resize({out_channels_, patch});
  tensor::gemm::gemm_conv_dw(out_channels_, patch, n * spatial, dy, spatial,
                             columns_kmajor_.raw(), columns_kmajor_.dim(1),
                             weight_step_.raw(), &gemm_ws_, &common::global_pool());
  grad_weight_ += weight_step_;

  // db += per-channel sums of dY, up to kMaxChains channel chains at a time.
  for (std::size_t c = 0; c < out_channels_; c += kMaxChains) {
    const std::size_t chains = std::min(kMaxChains, out_channels_ - c);
    kChannelSums[chains - 1](dy + c * spatial, n, sample_stride, spatial,
                             grad_bias_.raw() + c);
  }

  if (!input_grad()) return input_grad_;

  // dX: dcols = W^T dY over the whole batch (dY read in place), then each
  // sample folds its column slice through a padded scratch image.
  const std::size_t ns = n * spatial;
  const std::size_t padded = ops::padded_size(geometry_);
  grad_cols_.resize({patch, ns});
  tensor::gemm::gemm_conv_dx(patch, ns, out_channels_, weight_.raw(), dy, spatial,
                             grad_cols_.raw(), &gemm_ws_, &common::global_pool());
  fold_scratch_.resize({sample_chunks(n), padded});
  input_grad_.resize({n, in_features});
  dispatch_chunks(n, [&](std::size_t chunk, std::size_t lo, std::size_t hi) {
    float* scratch = fold_scratch_.raw() + chunk * padded;
    for (std::size_t s = lo; s < hi; ++s) {
      ops::fold_padded(grad_cols_.raw() + s * spatial, ns, geometry_, scratch);
      ops::crop_image(scratch, geometry_,
                      input_grad_.data().subspan(s * in_features, in_features));
    }
  });
  return input_grad_;
}

const Tensor& Conv2d::forward_reference(const Tensor& input, bool train) {
  const std::size_t in_features = geometry_.in_channels * geometry_.in_h * geometry_.in_w;
  const std::size_t n = input.dim(0);
  const std::size_t spatial = geometry_.out_h() * geometry_.out_w();

  if (train) cached_input_ = input;
  Tensor& out = output_;
  out.resize({n, out_channels_ * spatial});
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

const Tensor& Conv2d::backward_reference(const Tensor& grad_output) {
  const std::size_t n = cached_input_.dim(0);
  const std::size_t spatial = geometry_.out_h() * geometry_.out_w();
  const std::size_t in_features = geometry_.in_channels * geometry_.in_h * geometry_.in_w;

  Tensor& dx = input_grad_;
  if (input_grad()) {
    dx.resize({n, in_features});
    dx.zero();
  }
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
