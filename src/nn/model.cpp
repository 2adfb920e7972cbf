#include "nn/model.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace fedsched::nn {

using tensor::Tensor;

void Model::add(LayerPtr layer) {
  if (!layer) throw std::invalid_argument("Model::add: null layer");
  if (layers_.empty()) layer->set_input_grad(false);
  for (const Param& p : layer->params()) params_.push_back(p);
  layers_.push_back(std::move(layer));
}

const Tensor& Model::forward(const Tensor& input, bool train) {
  const Tensor* x = &input;
  for (auto& layer : layers_) x = &layer->forward(*x, train);
  return *x;
}

void Model::backward(const Tensor& grad_loss) {
  const Tensor* g = &grad_loss;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) g = &(*it)->backward(*g);
}

void Model::zero_grads() {
  for (const Param& p : params_) p.grad->zero();
}

std::vector<float> Model::flat_params() const {
  std::vector<float> flat;
  flat.reserve(param_count());
  for (const Param& p : params_) {
    const auto data = p.value->data();
    flat.insert(flat.end(), data.begin(), data.end());
  }
  return flat;
}

void Model::set_flat_params(std::span<const float> flat) {
  std::size_t offset = 0;
  for (const Param& p : params_) {
    const std::size_t n = p.value->numel();
    if (offset + n > flat.size()) {
      throw std::invalid_argument("Model::set_flat_params: vector too short");
    }
    std::copy_n(flat.data() + offset, n, p.value->raw());
    offset += n;
  }
  if (offset != flat.size()) {
    throw std::invalid_argument("Model::set_flat_params: vector too long");
  }
}

std::vector<float> Model::flat_grads() const {
  std::vector<float> flat;
  flat.reserve(param_count());
  for (const Param& p : params_) {
    const auto data = p.grad->data();
    flat.insert(flat.end(), data.begin(), data.end());
  }
  return flat;
}

std::size_t Model::param_count() const noexcept {
  return param_count(ParamKind::kConv) + param_count(ParamKind::kDense);
}

std::size_t Model::param_count(ParamKind kind) const noexcept {
  std::size_t total = 0;
  for (const Param& p : params_) {
    if (p.kind == kind) total += p.value->numel();
  }
  return total;
}

double Model::macs_per_sample(ParamKind kind) const noexcept {
  double total = 0.0;
  for (const auto& layer : layers_) {
    const auto params = const_cast<Layer&>(*layer).params();
    if (!params.empty() && params.front().kind == kind) {
      total += layer->macs_per_sample();
    }
  }
  return total;
}

double Model::macs_per_sample() const noexcept {
  return macs_per_sample(ParamKind::kConv) + macs_per_sample(ParamKind::kDense);
}

std::string Model::summary() const {
  std::ostringstream os;
  os << "Model(" << layers_.size() << " layers, " << param_count() << " params: "
     << param_count(ParamKind::kConv) << " conv / " << param_count(ParamKind::kDense)
     << " dense)\n";
  for (const auto& layer : layers_) os << "  " << layer->name() << '\n';
  return os.str();
}

double Model::accuracy(const Tensor& inputs, std::span<const std::uint16_t> labels,
                       std::size_t batch_size) {
  if (inputs.rank() != 2 || inputs.dim(0) != labels.size()) {
    throw std::invalid_argument("Model::accuracy: shape/label mismatch");
  }
  if (labels.empty()) return 0.0;
  const std::size_t n = labels.size();
  const std::size_t features = inputs.dim(1);
  std::size_t correct = 0;
  for (std::size_t start = 0; start < n; start += batch_size) {
    const std::size_t count = std::min(batch_size, n - start);
    Tensor batch({count, features});
    std::copy_n(inputs.raw() + start * features, count * features, batch.raw());
    const Tensor& logits = forward(batch, /*train=*/false);
    const auto preds = argmax_rows(logits);
    for (std::size_t i = 0; i < count; ++i) {
      if (preds[i] == labels[start + i]) ++correct;
    }
  }
  return static_cast<double>(correct) / static_cast<double>(n);
}

}  // namespace fedsched::nn
