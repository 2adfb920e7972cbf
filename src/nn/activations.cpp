#include "nn/activations.hpp"

#include <stdexcept>

namespace fedsched::nn {

using tensor::Tensor;

Tensor ReLU::forward(const Tensor& input, bool train) {
  Tensor out = input;
  float* po = out.raw();
  const std::size_t n = out.numel();
  if (train) {
    mask_shape_ = input.shape();
    mask_.resize(n);
    std::uint8_t* pm = mask_.data();
    for (std::size_t i = 0; i < n; ++i) pm[i] = po[i] > 0.0f;
  }
  for (std::size_t i = 0; i < n; ++i) po[i] = po[i] > 0.0f ? po[i] : 0.0f;
  return out;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  if (grad_output.shape() != mask_shape_) {
    throw std::invalid_argument("ReLU::backward: shape mismatch");
  }
  Tensor dx = grad_output;
  float* pd = dx.raw();
  const std::uint8_t* pm = mask_.data();
  for (std::size_t i = 0; i < dx.numel(); ++i) pd[i] *= static_cast<float>(pm[i]);
  return dx;
}

MaxPool2d::MaxPool2d(std::size_t channels, std::size_t in_h, std::size_t in_w,
                     std::size_t window)
    : channels_(channels), in_h_(in_h), in_w_(in_w), window_(window) {
  if (window == 0 || in_h % window != 0 || in_w % window != 0) {
    throw std::invalid_argument("MaxPool2d: window must evenly divide input");
  }
}

Tensor MaxPool2d::forward(const Tensor& input, bool train) {
  const std::size_t in_features = channels_ * in_h_ * in_w_;
  if (input.rank() != 2 || input.dim(1) != in_features) {
    throw std::invalid_argument("MaxPool2d::forward: bad input shape");
  }
  const std::size_t n = input.dim(0);
  const std::size_t oh = out_h(), ow = out_w();
  const std::size_t out_features = channels_ * oh * ow;
  Tensor out({n, out_features});
  if (train) {
    argmax_.assign(n * out_features, 0);
    cached_batch_ = n;
  }

  const float* pi = input.raw();
  float* po = out.raw();
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t c = 0; c < channels_; ++c) {
      const float* plane = pi + s * in_features + c * in_h_ * in_w_;
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox) {
          std::size_t best_idx = (oy * window_) * in_w_ + ox * window_;
          float best = plane[best_idx];
          for (std::size_t wy = 0; wy < window_; ++wy) {
            for (std::size_t wx = 0; wx < window_; ++wx) {
              const std::size_t idx = (oy * window_ + wy) * in_w_ + ox * window_ + wx;
              if (plane[idx] > best) {
                best = plane[idx];
                best_idx = idx;
              }
            }
          }
          const std::size_t out_idx =
              s * out_features + c * oh * ow + oy * ow + ox;
          po[out_idx] = best;
          if (train) {
            argmax_[out_idx] =
                static_cast<std::uint32_t>(c * in_h_ * in_w_ + best_idx);
          }
        }
      }
    }
  }
  return out;
}

Tensor MaxPool2d::backward(const Tensor& grad_output) {
  const std::size_t oh = out_h(), ow = out_w();
  const std::size_t out_features = channels_ * oh * ow;
  if (grad_output.rank() != 2 || grad_output.dim(0) != cached_batch_ ||
      grad_output.dim(1) != out_features) {
    throw std::invalid_argument("MaxPool2d::backward: grad shape mismatch");
  }
  const std::size_t in_features = channels_ * in_h_ * in_w_;
  Tensor dx({cached_batch_, in_features});
  const float* pg = grad_output.raw();
  float* pd = dx.raw();
  for (std::size_t s = 0; s < cached_batch_; ++s) {
    for (std::size_t o = 0; o < out_features; ++o) {
      const std::size_t out_idx = s * out_features + o;
      pd[s * in_features + argmax_[out_idx]] += pg[out_idx];
    }
  }
  return dx;
}

std::string MaxPool2d::name() const {
  return "MaxPool2d(" + std::to_string(window_) + "x" + std::to_string(window_) + ")";
}

std::size_t MaxPool2d::output_features(std::size_t input_features) const {
  if (input_features != channels_ * in_h_ * in_w_) {
    throw std::invalid_argument("MaxPool2d: feature mismatch");
  }
  return channels_ * out_h() * out_w();
}

}  // namespace fedsched::nn
