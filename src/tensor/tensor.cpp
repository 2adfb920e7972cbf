#include "tensor/tensor.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace fedsched::tensor {

std::size_t shape_numel(const Shape& shape) noexcept {
  std::size_t n = 1;
  for (std::size_t d : shape) n *= d;
  return shape.empty() ? 0 : n;
}

std::string shape_to_string(const Shape& shape) {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i) os << ", ";
    os << shape[i];
  }
  os << ']';
  return os.str();
}

Tensor::Tensor(Shape shape) : shape_(std::move(shape)), data_(shape_numel(shape_), 0.0f) {}

Tensor::Tensor(Shape shape, float fill)
    : shape_(std::move(shape)), data_(shape_numel(shape_), fill) {}

Tensor::Tensor(Shape shape, std::vector<float> values)
    : shape_(std::move(shape)), data_(std::move(values)) {
  if (data_.size() != shape_numel(shape_)) {
    throw std::invalid_argument("Tensor: value count " + std::to_string(data_.size()) +
                                " does not match shape " + shape_to_string(shape_));
  }
}

Tensor Tensor::randn(Shape shape, common::Rng& rng, float stddev) {
  Tensor t(std::move(shape));
  for (float& x : t.data_) x = static_cast<float>(rng.gaussian(0.0, stddev));
  return t;
}

std::size_t Tensor::dim(std::size_t axis) const {
  if (axis >= shape_.size()) throw std::out_of_range("Tensor::dim: axis out of range");
  return shape_[axis];
}

std::size_t Tensor::flat_index(std::initializer_list<std::size_t> idx) const {
  if (idx.size() != shape_.size()) {
    throw std::invalid_argument("Tensor::at: rank mismatch");
  }
  std::size_t flat = 0;
  std::size_t axis = 0;
  for (std::size_t i : idx) {
    if (i >= shape_[axis]) throw std::out_of_range("Tensor::at: index out of range");
    flat = flat * shape_[axis] + i;
    ++axis;
  }
  return flat;
}

float& Tensor::at(std::initializer_list<std::size_t> idx) { return data_[flat_index(idx)]; }
float Tensor::at(std::initializer_list<std::size_t> idx) const {
  return data_[flat_index(idx)];
}

void Tensor::reshape(Shape shape) {
  if (shape_numel(shape) != data_.size()) {
    throw std::invalid_argument("Tensor::reshape: numel mismatch " +
                                shape_to_string(shape));
  }
  shape_ = std::move(shape);
}

void Tensor::resize(std::initializer_list<std::size_t> shape) {
  shape_.assign(shape);
  data_.resize(shape_numel(shape_));
}

void Tensor::resize(const Shape& shape) {
  shape_.assign(shape.begin(), shape.end());
  data_.resize(shape_numel(shape_));
}

void Tensor::fill(float value) noexcept {
  for (float& x : data_) x = value;
}

Tensor& Tensor::operator+=(const Tensor& rhs) {
  if (!same_shape(rhs)) throw std::invalid_argument("Tensor +=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Tensor& Tensor::operator-=(const Tensor& rhs) {
  if (!same_shape(rhs)) throw std::invalid_argument("Tensor -=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Tensor& Tensor::operator*=(float scalar) noexcept {
  for (float& x : data_) x *= scalar;
  return *this;
}

void Tensor::add_scaled(const Tensor& rhs, float scalar) {
  if (!same_shape(rhs)) throw std::invalid_argument("Tensor::add_scaled: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += scalar * rhs.data_[i];
}

float Tensor::sum() const noexcept {
  double total = 0.0;
  for (float x : data_) total += x;
  return static_cast<float>(total);
}

float Tensor::abs_max() const noexcept {
  float best = 0.0f;
  for (float x : data_) best = std::max(best, std::abs(x));
  return best;
}

Tensor operator+(Tensor lhs, const Tensor& rhs) {
  lhs += rhs;
  return lhs;
}
Tensor operator-(Tensor lhs, const Tensor& rhs) {
  lhs -= rhs;
  return lhs;
}
Tensor operator*(Tensor lhs, float scalar) {
  lhs *= scalar;
  return lhs;
}

}  // namespace fedsched::tensor
