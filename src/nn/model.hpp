#pragma once
// Sequential model container with flat-vector parameter access (the FedAvg
// aggregation format) and conv/dense parameter accounting for the profiler.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "nn/layer.hpp"
#include "nn/loss.hpp"

namespace fedsched::nn {

class Model {
 public:
  Model() = default;
  Model(Model&&) = default;
  Model& operator=(Model&&) = default;
  Model(const Model&) = delete;
  Model& operator=(const Model&) = delete;

  /// Append a layer. The first layer added gets set_input_grad(false): its
  /// input is the data batch, so its backward() returns an empty tensor.
  void add(LayerPtr layer);

  [[nodiscard]] std::size_t layer_count() const noexcept { return layers_.size(); }
  [[nodiscard]] Layer& layer(std::size_t i) { return *layers_.at(i); }

  /// Run every layer, each reading the previous layer's owned output. The
  /// result is the last layer's output buffer (the input itself for an empty
  /// model), valid until the next forward().
  [[nodiscard]] const tensor::Tensor& forward(const tensor::Tensor& input,
                                              bool train = false);
  /// Backpropagate loss gradient through every layer (after forward(train)).
  /// Fills every parameter gradient; layer 0 computes no input gradient.
  void backward(const tensor::Tensor& grad_loss);

  /// Every parameter handle in layer order, collected once as layers are
  /// added (the handles point into the layers, which never move).
  [[nodiscard]] const std::vector<Param>& params() noexcept { return params_; }

  void zero_grads();

  /// Concatenate all parameters into one flat vector (stable layer order).
  [[nodiscard]] std::vector<float> flat_params() const;
  /// Inverse of flat_params; size must match exactly.
  void set_flat_params(std::span<const float> flat);
  /// Flattened gradients in the same order.
  [[nodiscard]] std::vector<float> flat_grads() const;

  [[nodiscard]] std::size_t param_count() const noexcept;
  [[nodiscard]] std::size_t param_count(ParamKind kind) const noexcept;
  /// Forward MACs per sample, split by kind.
  [[nodiscard]] double macs_per_sample(ParamKind kind) const noexcept;
  [[nodiscard]] double macs_per_sample() const noexcept;

  [[nodiscard]] std::string summary() const;

  /// Fraction of rows whose argmax matches the label.
  [[nodiscard]] double accuracy(const tensor::Tensor& inputs,
                                std::span<const std::uint16_t> labels,
                                std::size_t batch_size = 128);

 private:
  std::vector<LayerPtr> layers_;
  std::vector<Param> params_;
};

}  // namespace fedsched::nn
