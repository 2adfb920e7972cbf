#include "nn/dense.hpp"

#include <cmath>
#include <stdexcept>

#include "tensor/ops.hpp"

namespace fedsched::nn {

using tensor::Tensor;
namespace ops = tensor::ops;

Dense::Dense(std::size_t in_features, std::size_t out_features, common::Rng& rng,
             ops::KernelPolicy policy)
    : in_(in_features),
      out_(out_features),
      policy_(policy),
      weight_(Tensor::randn({out_features, in_features}, rng,
                            std::sqrt(2.0f / static_cast<float>(in_features)))),
      bias_({out_features}),
      grad_weight_({out_features, in_features}),
      grad_bias_({out_features}) {
  if (in_features == 0 || out_features == 0) {
    throw std::invalid_argument("Dense: zero-sized layer");
  }
}

Tensor Dense::forward(const Tensor& input, bool train) {
  if (input.rank() != 2 || input.dim(1) != in_) {
    throw std::invalid_argument("Dense::forward: expected [N," + std::to_string(in_) +
                                "], got " + tensor::shape_to_string(input.shape()));
  }
  if (train) cached_input_ = input;
  Tensor out({input.dim(0), out_});
  if (policy_ == ops::KernelPolicy::kBlocked) {
    ops::matmul_nt(input, weight_, out, gemm_ws_);
  } else {
    ops::matmul_nt_ref(input, weight_, out);
  }
  ops::add_row_bias(out, bias_);
  return out;
}

Tensor Dense::backward(const Tensor& grad_output) {
  if (cached_input_.numel() == 0) {
    throw std::logic_error("Dense::backward before forward(train=true)");
  }
  const std::size_t n = cached_input_.dim(0);
  if (grad_output.rank() != 2 || grad_output.dim(0) != n || grad_output.dim(1) != out_) {
    throw std::invalid_argument("Dense::backward: grad shape mismatch");
  }
  // dW = dY^T X ; db = column sums of dY ; dX = dY W.
  const bool blocked = policy_ == ops::KernelPolicy::kBlocked;
  Tensor dw({out_, in_});
  if (blocked) {
    ops::matmul_tn(grad_output, cached_input_, dw, gemm_ws_);
  } else {
    ops::matmul_tn_ref(grad_output, cached_input_, dw);
  }
  grad_weight_ += dw;
  Tensor db({out_});
  ops::sum_rows(grad_output, db);
  grad_bias_ += db;
  if (!input_grad()) return {};

  Tensor dx({n, in_});
  if (blocked) {
    ops::matmul(grad_output, weight_, dx, gemm_ws_);
  } else {
    ops::matmul_ref(grad_output, weight_, dx);
  }
  return dx;
}

std::vector<Param> Dense::params() {
  return {{&weight_, &grad_weight_, ParamKind::kDense},
          {&bias_, &grad_bias_, ParamKind::kDense}};
}

std::string Dense::name() const {
  return "Dense(" + std::to_string(in_) + "->" + std::to_string(out_) + ")";
}

std::size_t Dense::output_features(std::size_t input_features) const {
  if (input_features != in_) throw std::invalid_argument("Dense: feature mismatch");
  return out_;
}

double Dense::macs_per_sample() const {
  return static_cast<double>(in_) * static_cast<double>(out_);
}

}  // namespace fedsched::nn
