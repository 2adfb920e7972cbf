#pragma once
// Dense row-major float tensor.
//
// The training stack in src/nn only needs contiguous float storage with a
// shape attached: views, broadcasting and autograd live in the layers, not
// here. Keeping the tensor dumb makes every kernel's cost obvious, which is
// the property the paper's profiler exploits (time is linear in work).

#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace fedsched::tensor {

using Shape = std::vector<std::size_t>;

[[nodiscard]] std::size_t shape_numel(const Shape& shape) noexcept;
[[nodiscard]] std::string shape_to_string(const Shape& shape);

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(Shape shape);
  Tensor(Shape shape, float fill);
  Tensor(Shape shape, std::vector<float> values);

  [[nodiscard]] static Tensor zeros(Shape shape) { return Tensor(std::move(shape)); }
  [[nodiscard]] static Tensor full(Shape shape, float value) {
    return {std::move(shape), value};
  }
  /// I.I.D. normal entries with the given stddev.
  [[nodiscard]] static Tensor randn(Shape shape, common::Rng& rng, float stddev = 1.0f);

  [[nodiscard]] const Shape& shape() const noexcept { return shape_; }
  [[nodiscard]] std::size_t rank() const noexcept { return shape_.size(); }
  [[nodiscard]] std::size_t numel() const noexcept { return data_.size(); }
  [[nodiscard]] std::size_t dim(std::size_t axis) const;

  [[nodiscard]] std::span<float> data() noexcept { return {data_}; }
  [[nodiscard]] std::span<const float> data() const noexcept { return {data_}; }
  [[nodiscard]] float* raw() noexcept { return data_.data(); }
  [[nodiscard]] const float* raw() const noexcept { return data_.data(); }

  [[nodiscard]] float& operator[](std::size_t flat) { return data_[flat]; }
  [[nodiscard]] float operator[](std::size_t flat) const { return data_[flat]; }

  /// Bounds-checked multi-dimensional access (debug/test convenience).
  [[nodiscard]] float& at(std::initializer_list<std::size_t> idx);
  [[nodiscard]] float at(std::initializer_list<std::size_t> idx) const;

  /// Reinterpret the shape; numel must be preserved.
  void reshape(Shape shape);

  /// Take on `shape`, reusing the storage: no allocation while the new numel
  /// fits the capacity any earlier shape reached (a ragged tail batch and the
  /// full batch after it share one buffer). Elements that remain keep their
  /// values and grown ones are zero, so callers that need defined contents
  /// overwrite them. The layers size their owned outputs with it.
  void resize(std::initializer_list<std::size_t> shape);
  void resize(const Shape& shape);

  void fill(float value) noexcept;
  void zero() noexcept { fill(0.0f); }

  // In-place arithmetic. Shapes must match exactly for tensor operands.
  Tensor& operator+=(const Tensor& rhs);
  Tensor& operator-=(const Tensor& rhs);
  Tensor& operator*=(float scalar) noexcept;
  /// this += scalar * rhs  (axpy; the FedAvg aggregation primitive).
  void add_scaled(const Tensor& rhs, float scalar);

  [[nodiscard]] float sum() const noexcept;
  [[nodiscard]] float abs_max() const noexcept;

  [[nodiscard]] bool same_shape(const Tensor& other) const noexcept {
    return shape_ == other.shape_;
  }

 private:
  [[nodiscard]] std::size_t flat_index(std::initializer_list<std::size_t> idx) const;

  Shape shape_;
  std::vector<float> data_;
};

[[nodiscard]] Tensor operator+(Tensor lhs, const Tensor& rhs);
[[nodiscard]] Tensor operator-(Tensor lhs, const Tensor& rhs);
[[nodiscard]] Tensor operator*(Tensor lhs, float scalar);

}  // namespace fedsched::tensor
