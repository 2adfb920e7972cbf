#include "nn/activations.hpp"

#include <stdexcept>

namespace fedsched::nn {

using tensor::Tensor;

const Tensor& ReLU::forward(const Tensor& input, bool train) {
  output_.resize(input.shape());
  const float* pi = input.raw();
  float* po = output_.raw();
  const std::size_t n = input.numel();
  if (train) {
    mask_shape_ = input.shape();
    mask_.resize(n);
    std::uint8_t* pm = mask_.data();
    for (std::size_t i = 0; i < n; ++i) {
      const bool on = pi[i] > 0.0f;
      pm[i] = on;
      po[i] = on ? pi[i] : 0.0f;
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) po[i] = pi[i] > 0.0f ? pi[i] : 0.0f;
  }
  return output_;
}

const Tensor& ReLU::backward(const Tensor& grad_output) {
  if (grad_output.shape() != mask_shape_) {
    throw std::invalid_argument("ReLU::backward: shape mismatch");
  }
  input_grad_.resize(grad_output.shape());
  const float* pg = grad_output.raw();
  float* pd = input_grad_.raw();
  const std::uint8_t* pm = mask_.data();
  for (std::size_t i = 0; i < grad_output.numel(); ++i) {
    pd[i] = pg[i] * static_cast<float>(pm[i]);
  }
  return input_grad_;
}

MaxPool2d::MaxPool2d(std::size_t channels, std::size_t in_h, std::size_t in_w,
                     std::size_t window)
    : channels_(channels), in_h_(in_h), in_w_(in_w), window_(window) {
  if (window == 0 || in_h % window != 0 || in_w % window != 0) {
    throw std::invalid_argument("MaxPool2d: window must evenly divide input");
  }
}

template <bool Train, std::size_t W>
void MaxPool2d::pool(const float* input, std::size_t n) {
  // W != 0 fixes the window at compile time (the 2x2 pools of every model
  // here), so its loops unroll; W == 0 reads window_.
  const std::size_t window = W != 0 ? W : window_;
  const std::size_t in_features = channels_ * in_h_ * in_w_;
  const std::size_t oh = out_h(), ow = out_w();
  float* po = output_.raw();
  std::uint32_t* pa = argmax_.data();
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t c = 0; c < channels_; ++c) {
      const std::size_t plane_offset = c * in_h_ * in_w_;
      const float* plane = input + s * in_features + plane_offset;
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox, ++po) {
          std::size_t best_idx = (oy * window) * in_w_ + ox * window;
          float best = plane[best_idx];
          for (std::size_t wy = 0; wy < window; ++wy) {
            for (std::size_t wx = 0; wx < window; ++wx) {
              const std::size_t idx = (oy * window + wy) * in_w_ + ox * window + wx;
              if (plane[idx] > best) {
                best = plane[idx];
                best_idx = idx;
              }
            }
          }
          *po = best;
          if constexpr (Train) {
            *pa++ = static_cast<std::uint32_t>(plane_offset + best_idx);
          }
        }
      }
    }
  }
}

const Tensor& MaxPool2d::forward(const Tensor& input, bool train) {
  const std::size_t in_features = channels_ * in_h_ * in_w_;
  if (input.rank() != 2 || input.dim(1) != in_features) {
    throw std::invalid_argument("MaxPool2d::forward: bad input shape");
  }
  const std::size_t n = input.dim(0);
  const std::size_t out_features = channels_ * out_h() * out_w();
  output_.resize({n, out_features});
  if (train) {
    argmax_.resize(n * out_features);
    cached_batch_ = n;
    window_ == 2 ? pool<true, 2>(input.raw(), n) : pool<true, 0>(input.raw(), n);
  } else {
    window_ == 2 ? pool<false, 2>(input.raw(), n) : pool<false, 0>(input.raw(), n);
  }
  return output_;
}

const Tensor& MaxPool2d::backward(const Tensor& grad_output) {
  const std::size_t oh = out_h(), ow = out_w();
  const std::size_t out_features = channels_ * oh * ow;
  if (grad_output.rank() != 2 || grad_output.dim(0) != cached_batch_ ||
      grad_output.dim(1) != out_features) {
    throw std::invalid_argument("MaxPool2d::backward: grad shape mismatch");
  }
  const std::size_t in_features = channels_ * in_h_ * in_w_;
  input_grad_.resize({cached_batch_, in_features});
  input_grad_.zero();
  const float* pg = grad_output.raw();
  float* pd = input_grad_.raw();
  for (std::size_t s = 0; s < cached_batch_; ++s) {
    for (std::size_t o = 0; o < out_features; ++o) {
      const std::size_t out_idx = s * out_features + o;
      pd[s * in_features + argmax_[out_idx]] += pg[out_idx];
    }
  }
  return input_grad_;
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
