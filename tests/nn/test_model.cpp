#include "nn/model.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/loss.hpp"
#include "nn/models.hpp"
#include "nn/sgd.hpp"

namespace fedsched::nn {
namespace {

using tensor::Tensor;

Model tiny_mlp(common::Rng& rng) { return build_mlp(4, {8}, 3, rng); }

TEST(Model, FlatParamsRoundTrip) {
  common::Rng rng(1);
  Model model = tiny_mlp(rng);
  const auto flat = model.flat_params();
  EXPECT_EQ(flat.size(), model.param_count());

  std::vector<float> modified = flat;
  for (float& x : modified) x += 1.0f;
  model.set_flat_params(modified);
  const auto readback = model.flat_params();
  EXPECT_EQ(readback, modified);
}

TEST(Model, SetFlatParamsSizeValidated) {
  common::Rng rng(2);
  Model model = tiny_mlp(rng);
  std::vector<float> wrong(model.param_count() + 1, 0.0f);
  EXPECT_THROW(model.set_flat_params(wrong), std::invalid_argument);
  wrong.resize(model.param_count() - 1);
  EXPECT_THROW(model.set_flat_params(wrong), std::invalid_argument);
}

TEST(Model, SameParamsSameOutput) {
  common::Rng rng1(3), rng2(4);
  Model a = tiny_mlp(rng1);
  Model b = tiny_mlp(rng2);
  b.set_flat_params(a.flat_params());
  common::Rng rng(5);
  const Tensor x = Tensor::randn({3, 4}, rng);
  const Tensor ya = a.forward(x, false);
  const Tensor yb = b.forward(x, false);
  for (std::size_t i = 0; i < ya.numel(); ++i) EXPECT_EQ(ya[i], yb[i]);
}

TEST(Model, ZeroGradsClearsAll) {
  common::Rng rng(6);
  Model model = tiny_mlp(rng);
  const Tensor x = Tensor::randn({2, 4}, rng);
  const Tensor y = model.forward(x, true);
  model.backward(y);
  bool any_nonzero = false;
  for (float g : model.flat_grads()) any_nonzero |= (g != 0.0f);
  EXPECT_TRUE(any_nonzero);
  model.zero_grads();
  for (float g : model.flat_grads()) EXPECT_EQ(g, 0.0f);
}

TEST(Model, ParamCountSplitsByKind) {
  common::Rng rng(7);
  ModelSpec spec;
  spec.arch = Arch::kLeNet;
  Model model = build_lenet(spec, rng);
  const std::size_t conv = model.param_count(ParamKind::kConv);
  const std::size_t dense = model.param_count(ParamKind::kDense);
  EXPECT_GT(conv, 0u);
  EXPECT_GT(dense, 0u);
  EXPECT_EQ(conv + dense, model.param_count());
  EXPECT_EQ(model.flat_params().size(), conv + dense);
}

TEST(Model, MacsSplitByKind) {
  common::Rng rng(8);
  ModelSpec spec;
  spec.arch = Arch::kVgg6;
  spec.in_channels = 3;
  spec.in_h = 16;
  spec.in_w = 16;
  Model model = build_vgg6(spec, rng);
  // VGG6 is conv-dominated by construction.
  EXPECT_GT(model.macs_per_sample(ParamKind::kConv),
            10.0 * model.macs_per_sample(ParamKind::kDense));
}

/// Layer by layer, as a traced pass drives a model: forward, then backward
/// down to layer 1; returns what layer 0's backward gives back.
Tensor layer_zero_input_grad(Model& model, const Tensor& input) {
  Tensor x = model.layer(0).forward(input, true);
  const tensor::Shape layer_zero_out = x.shape();
  for (std::size_t i = 1; i < model.layer_count(); ++i) x = model.layer(i).forward(x, true);
  Tensor g = x;
  for (std::size_t i = model.layer_count(); i-- > 1;) g = model.layer(i).backward(g);
  EXPECT_EQ(g.shape(), layer_zero_out) << "layer 1 returns its full input gradient";
  return model.layer(0).backward(g);
}

TEST(Model, FirstLayerReturnsEmptyInputGradient) {
  common::Rng rng(21);
  std::vector<std::pair<Model, std::size_t>> models;  // model, input features
  for (Arch arch : {Arch::kLeNet, Arch::kVgg6}) {
    ModelSpec spec;
    spec.arch = arch;
    models.emplace_back(build_model(spec, rng), spec.in_h * spec.in_w);
  }
  models.emplace_back(tiny_mlp(rng), 4);  // Dense first
  for (auto& [model, features] : models) {
    EXPECT_FALSE(model.layer(0).input_grad());
    for (std::size_t i = 1; i < model.layer_count(); ++i) {
      EXPECT_TRUE(model.layer(i).input_grad()) << "layer " << i;
    }
    const Tensor dx = layer_zero_input_grad(model, Tensor::randn({3, features}, rng));
    EXPECT_EQ(dx.numel(), 0u) << model.layer(0).name();
  }
}

TEST(Model, StandaloneLayersReturnFullInputGradient) {
  common::Rng rng(23);
  tensor::ops::Conv2dGeometry geometry;
  geometry.in_channels = 2;
  geometry.in_h = geometry.in_w = 5;
  geometry.kernel = 3;
  geometry.pad = 1;
  for (auto policy : {tensor::ops::KernelPolicy::kBlocked,
                      tensor::ops::KernelPolicy::kReference}) {
    Conv2d conv(geometry, 3, rng, policy);
    EXPECT_TRUE(conv.input_grad());
    const Tensor cy = conv.forward(Tensor::randn({2, 50}, rng), true);
    EXPECT_EQ(conv.backward(cy).shape(), (tensor::Shape{2, 50}));

    Dense dense(6, 4, rng, policy);
    EXPECT_TRUE(dense.input_grad());
    const Tensor dy = dense.forward(Tensor::randn({3, 6}, rng), true);
    EXPECT_EQ(dense.backward(dy).shape(), (tensor::Shape{3, 6}));
  }
}

TEST(Model, ParamGradsIgnoreLayerZeroInputGrad) {
  // Switching layer 0's input gradient back on must not move one bit of any
  // parameter gradient: Conv2d first (LeNet, VGG6) and Dense first (MLP), on
  // either kernel family.
  constexpr std::size_t kFeatures = 144;  // ModelSpec's default 12x12 input
  constexpr std::size_t kClasses = 10;
  for (auto policy : {tensor::ops::KernelPolicy::kBlocked,
                      tensor::ops::KernelPolicy::kReference}) {
    for (const char* arch : {"LeNet", "VGG6", "MLP"}) {
      const auto build = [&] {
        common::Rng rng(24);
        if (std::string_view(arch) == "MLP") {
          return build_mlp(kFeatures, {32}, kClasses, rng, policy);
        }
        ModelSpec spec;
        spec.arch = std::string_view(arch) == "LeNet" ? Arch::kLeNet : Arch::kVgg6;
        spec.kernels = policy;
        return build_model(spec, rng);
      };
      Model skip = build();
      Model full = build();
      full.layer(0).set_input_grad(true);

      common::Rng data_rng(25);
      const Tensor x = Tensor::randn({20, kFeatures}, data_rng);
      std::vector<std::uint16_t> labels(20);
      for (std::size_t i = 0; i < labels.size(); ++i) {
        labels[i] = static_cast<std::uint16_t>(i % kClasses);
      }
      for (Model* model : {&skip, &full}) {
        const auto loss = softmax_cross_entropy(model->forward(x, true), labels);
        model->backward(loss.grad);
      }
      const auto a = skip.flat_grads();
      const auto b = full.flat_grads();
      ASSERT_EQ(a.size(), b.size());
      std::size_t differing = 0;
      for (std::size_t i = 0; i < a.size(); ++i) {
        differing += std::bit_cast<std::uint32_t>(a[i]) != std::bit_cast<std::uint32_t>(b[i]);
      }
      EXPECT_EQ(differing, 0u) << arch << " " << tensor::ops::kernel_policy_name(policy);
    }
  }
}

TEST(Model, AddRejectsNull) {
  Model model;
  EXPECT_THROW(model.add(nullptr), std::invalid_argument);
}

TEST(Model, SummaryMentionsLayers) {
  common::Rng rng(9);
  Model model = tiny_mlp(rng);
  const std::string s = model.summary();
  EXPECT_NE(s.find("Dense"), std::string::npos);
  EXPECT_NE(s.find("ReLU"), std::string::npos);
}

TEST(Model, AccuracyPerfectAndChance) {
  common::Rng rng(10);
  Model model = tiny_mlp(rng);
  const Tensor x = Tensor::randn({32, 4}, rng);
  const Tensor logits = model.forward(x, false);
  const auto preds = argmax_rows(logits);
  // Labels equal to the model's own predictions -> accuracy 1.
  EXPECT_DOUBLE_EQ(model.accuracy(x, preds), 1.0);
  // Labels all shifted by one class -> accuracy 0.
  std::vector<std::uint16_t> wrong(preds.begin(), preds.end());
  for (auto& lbl : wrong) lbl = static_cast<std::uint16_t>((lbl + 1) % 3);
  EXPECT_DOUBLE_EQ(model.accuracy(x, wrong), 0.0);
}

TEST(Sgd, SimpleStepMovesAgainstGradient) {
  common::Rng rng(11);
  Model model = tiny_mlp(rng);
  const auto before = model.flat_params();
  const Tensor x = Tensor::randn({4, 4}, rng);
  const Tensor y = model.forward(x, true);
  model.backward(y);  // gradient of 0.5*||y||^2
  const auto grads = model.flat_grads();

  Sgd sgd({.learning_rate = 0.1f, .momentum = 0.0f, .weight_decay = 0.0f});
  sgd.step(model);
  const auto after = model.flat_params();
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_NEAR(after[i], before[i] - 0.1f * grads[i], 1e-5);
  }
  // Gradients cleared by step.
  for (float g : model.flat_grads()) EXPECT_EQ(g, 0.0f);
}

TEST(Sgd, MomentumAccumulates) {
  common::Rng rng(12);
  Model model = build_mlp(2, {}, 2, rng);
  Sgd sgd({.learning_rate = 1.0f, .momentum = 0.5f, .weight_decay = 0.0f});
  // Two identical steps: second update should be 1.5x the first.
  auto params = model.params();
  auto set_grad = [&] {
    for (const Param& p : params) p.grad->fill(1.0f);
  };
  const auto p0 = model.flat_params();
  set_grad();
  sgd.step(model);
  const auto p1 = model.flat_params();
  set_grad();
  sgd.step(model);
  const auto p2 = model.flat_params();
  const float first = p0[0] - p1[0];
  const float second = p1[0] - p2[0];
  EXPECT_NEAR(second, 1.5f * first, 1e-5);
}

TEST(Sgd, WeightDecayShrinksWeights) {
  common::Rng rng(13);
  Model model = build_mlp(2, {}, 2, rng);
  Sgd sgd({.learning_rate = 0.1f, .momentum = 0.0f, .weight_decay = 0.5f});
  const auto before = model.flat_params();
  model.zero_grads();
  sgd.step(model);  // zero gradient: pure decay
  const auto after = model.flat_params();
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_NEAR(after[i], before[i] * (1.0f - 0.1f * 0.5f), 1e-5);
  }
}

TEST(Models, LenetShapesPropagate) {
  common::Rng rng(14);
  ModelSpec spec;
  spec.arch = Arch::kLeNet;
  spec.in_channels = 1;
  spec.in_h = 12;
  spec.in_w = 12;
  Model model = build_model(spec, rng);
  common::Rng xrng(15);
  const Tensor x = Tensor::randn({5, 144}, xrng);
  const Tensor y = model.forward(x, false);
  EXPECT_EQ(y.dim(0), 5u);
  EXPECT_EQ(y.dim(1), 10u);
}

TEST(Models, Vgg6ShapesPropagate) {
  common::Rng rng(16);
  ModelSpec spec;
  spec.arch = Arch::kVgg6;
  spec.in_channels = 3;
  spec.in_h = 16;
  spec.in_w = 16;
  spec.classes = 10;
  Model model = build_model(spec, rng);
  common::Rng xrng(17);
  const Tensor x = Tensor::randn({2, 3 * 16 * 16}, xrng);
  const Tensor y = model.forward(x, false);
  EXPECT_EQ(y.dim(1), 10u);
}

TEST(Models, InputMustBeDivisibleByFour) {
  common::Rng rng(18);
  ModelSpec spec;
  spec.in_h = 10;
  spec.in_w = 10;
  EXPECT_THROW((void)build_lenet(spec, rng), std::invalid_argument);
  EXPECT_THROW((void)build_vgg6(spec, rng), std::invalid_argument);
}

TEST(Models, WidthScalesParameters) {
  common::Rng rng(19);
  ModelSpec narrow, wide;
  wide.width = 2;
  Model a = build_lenet(narrow, rng);
  Model b = build_lenet(wide, rng);
  EXPECT_GT(b.param_count(), 2 * a.param_count());
}

TEST(Models, ArchNames) {
  EXPECT_STREQ(arch_name(Arch::kLeNet), "LeNet");
  EXPECT_STREQ(arch_name(Arch::kVgg6), "VGG6");
}

}  // namespace
}  // namespace fedsched::nn
