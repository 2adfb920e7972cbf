#include "nn/models.hpp"

#include <memory>
#include <stdexcept>

#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"

namespace fedsched::nn {

namespace {
using tensor::ops::Conv2dGeometry;

Conv2dGeometry geom(std::size_t c, std::size_t h, std::size_t w, std::size_t kernel,
                    std::size_t pad) {
  Conv2dGeometry g;
  g.in_channels = c;
  g.in_h = h;
  g.in_w = w;
  g.kernel = kernel;
  g.stride = 1;
  g.pad = pad;
  return g;
}
}  // namespace

Model build_model(const ModelSpec& spec, common::Rng& rng) {
  switch (spec.arch) {
    case Arch::kLeNet: return build_lenet(spec, rng);
    case Arch::kVgg6: return build_vgg6(spec, rng);
  }
  throw std::invalid_argument("build_model: unknown arch");
}

Model build_lenet(const ModelSpec& spec, common::Rng& rng) {
  if (spec.in_h % 4 != 0 || spec.in_w % 4 != 0) {
    throw std::invalid_argument("build_lenet: input must be divisible by 4 (two pools)");
  }
  const std::size_t c1 = 6 * spec.width;
  const std::size_t c2 = 12 * spec.width;
  const std::size_t hidden = 48 * spec.width;
  const std::size_t h = spec.in_h, w = spec.in_w;

  Model model;
  model.add(std::make_unique<Conv2d>(geom(spec.in_channels, h, w, 3, 1), c1, rng));
  model.add(std::make_unique<ReLU>());
  model.add(std::make_unique<MaxPool2d>(c1, h, w, 2));
  model.add(std::make_unique<Conv2d>(geom(c1, h / 2, w / 2, 3, 1), c2, rng));
  model.add(std::make_unique<ReLU>());
  model.add(std::make_unique<MaxPool2d>(c2, h / 2, w / 2, 2));
  model.add(std::make_unique<Dense>(c2 * (h / 4) * (w / 4), hidden, rng));
  model.add(std::make_unique<ReLU>());
  model.add(std::make_unique<Dense>(hidden, spec.classes, rng));
  return model;
}

Model build_vgg6(const ModelSpec& spec, common::Rng& rng) {
  if (spec.in_h % 4 != 0 || spec.in_w % 4 != 0) {
    throw std::invalid_argument("build_vgg6: input must be divisible by 4 (two pools)");
  }
  const std::size_t c1 = 8 * spec.width;
  const std::size_t c2 = 16 * spec.width;
  const std::size_t h = spec.in_h, w = spec.in_w;

  Model model;
  // Stage 1: two 3x3 convs + pool.
  model.add(std::make_unique<Conv2d>(geom(spec.in_channels, h, w, 3, 1), c1, rng));
  model.add(std::make_unique<ReLU>());
  model.add(std::make_unique<Conv2d>(geom(c1, h, w, 3, 1), c1, rng));
  model.add(std::make_unique<ReLU>());
  model.add(std::make_unique<MaxPool2d>(c1, h, w, 2));
  // Stage 2: two 3x3 convs + pool.
  model.add(std::make_unique<Conv2d>(geom(c1, h / 2, w / 2, 3, 1), c2, rng));
  model.add(std::make_unique<ReLU>());
  model.add(std::make_unique<Conv2d>(geom(c2, h / 2, w / 2, 3, 1), c2, rng));
  model.add(std::make_unique<ReLU>());
  model.add(std::make_unique<MaxPool2d>(c2, h / 2, w / 2, 2));
  // Stage 3: one more conv, then the single dense head (paper's VGG6 = five
  // 3x3 conv layers + one densely connected layer).
  model.add(std::make_unique<Conv2d>(geom(c2, h / 4, w / 4, 3, 1), c2, rng));
  model.add(std::make_unique<ReLU>());
  model.add(std::make_unique<Dense>(c2 * (h / 4) * (w / 4), spec.classes, rng));
  return model;
}

Model build_mlp(std::size_t in_features, const std::vector<std::size_t>& hidden,
                std::size_t classes, common::Rng& rng) {
  Model model;
  std::size_t features = in_features;
  for (std::size_t width : hidden) {
    model.add(std::make_unique<Dense>(features, width, rng));
    model.add(std::make_unique<ReLU>());
    features = width;
  }
  model.add(std::make_unique<Dense>(features, classes, rng));
  return model;
}

const char* arch_name(Arch arch) noexcept {
  switch (arch) {
    case Arch::kLeNet: return "LeNet";
    case Arch::kVgg6: return "VGG6";
  }
  return "?";
}

}  // namespace fedsched::nn
