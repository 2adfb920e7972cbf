#include "nn/sgd.hpp"

#include <algorithm>
#include <stdexcept>

namespace fedsched::nn {

std::vector<float> Sgd::flat_velocity() const {
  std::vector<float> flat;
  for (const tensor::Tensor& v : velocity_) {
    const float* raw = v.raw();
    flat.insert(flat.end(), raw, raw + v.numel());
  }
  return flat;
}

void Sgd::set_flat_velocity(Model& model, std::span<const float> flat) {
  velocity_.clear();
  if (flat.empty()) return;
  const std::vector<Param>& params = model.params();
  std::size_t total = 0;
  for (const Param& p : params) total += p.value->numel();
  if (total != flat.size()) {
    throw std::invalid_argument("Sgd::set_flat_velocity: element count mismatch");
  }
  velocity_.reserve(params.size());
  std::size_t offset = 0;
  for (const Param& p : params) {
    tensor::Tensor v(p.value->shape());
    const std::size_t n = v.numel();
    std::copy(flat.begin() + static_cast<std::ptrdiff_t>(offset),
              flat.begin() + static_cast<std::ptrdiff_t>(offset + n), v.raw());
    offset += n;
    velocity_.push_back(std::move(v));
  }
}

void Sgd::step(Model& model) {
  const std::vector<Param>& params = model.params();
  // Locals, not config_ reads: the loops store through float pointers, which
  // could alias config_'s floats, so reading config_ inside them would keep
  // them scalar.
  const float lr = config_.learning_rate;
  const float momentum = config_.momentum;
  const float decay = config_.weight_decay;
  if (momentum > 0.0f && velocity_.size() != params.size()) {
    velocity_.clear();
    velocity_.reserve(params.size());
    for (const Param& p : params) velocity_.emplace_back(p.value->shape());
  }

  for (std::size_t i = 0; i < params.size(); ++i) {
    const Param& p = params[i];
    if (!p.value->same_shape(*p.grad)) {
      throw std::logic_error("Sgd::step: grad/param shape mismatch");
    }
    float* value = p.value->raw();
    float* grad = p.grad->raw();
    const std::size_t n = p.value->numel();
    // Each gradient is consumed and cleared in the same pass.
    if (momentum > 0.0f) {
      float* vel = velocity_[i].raw();
      for (std::size_t j = 0; j < n; ++j) {
        const float g = grad[j] + decay * value[j];
        vel[j] = momentum * vel[j] + g;
        value[j] -= lr * vel[j];
        grad[j] = 0.0f;
      }
    } else {
      for (std::size_t j = 0; j < n; ++j) {
        const float g = grad[j] + decay * value[j];
        value[j] -= lr * g;
        grad[j] = 0.0f;
      }
    }
  }
}

}  // namespace fedsched::nn
