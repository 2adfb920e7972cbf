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

const Tensor& Dense::forward(const Tensor& input, bool train) {
  if (input.rank() != 2 || input.dim(1) != in_) {
    throw std::invalid_argument("Dense::forward: expected [N," + std::to_string(in_) +
                                "], got " + tensor::shape_to_string(input.shape()));
  }
  if (train) cached_input_ = input;
  output_.resize({input.dim(0), out_});
  if (policy_ == ops::KernelPolicy::kBlocked) {
    ops::matmul_nt(input, weight_, output_, gemm_ws_);
  } else {
    ops::matmul_nt_ref(input, weight_, output_);
  }
  ops::add_row_bias(output_, bias_);
  return output_;
}

const Tensor& Dense::backward(const Tensor& grad_output) {
  if (cached_input_.numel() == 0) {
    throw std::logic_error("Dense::backward before forward(train=true)");
  }
  const std::size_t n = cached_input_.dim(0);
  if (grad_output.rank() != 2 || grad_output.dim(0) != n || grad_output.dim(1) != out_) {
    throw std::invalid_argument("Dense::backward: grad shape mismatch");
  }
  // dW = dY^T X ; db = column sums of dY ; dX = dY W. Each parameter
  // gradient is computed whole, then added: grad + (this batch's sum).
  const bool blocked = policy_ == ops::KernelPolicy::kBlocked;
  weight_step_.resize({out_, in_});
  if (blocked) {
    ops::matmul_tn(grad_output, cached_input_, weight_step_, gemm_ws_);
  } else {
    ops::matmul_tn_ref(grad_output, cached_input_, weight_step_);
  }
  grad_weight_ += weight_step_;
  bias_step_.resize({out_});
  ops::sum_rows(grad_output, bias_step_);
  grad_bias_ += bias_step_;
  if (!input_grad()) return input_grad_;

  input_grad_.resize({n, in_});
  if (blocked) {
    ops::matmul(grad_output, weight_, input_grad_, gemm_ws_);
  } else {
    ops::matmul_ref(grad_output, weight_, input_grad_);
  }
  return input_grad_;
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
