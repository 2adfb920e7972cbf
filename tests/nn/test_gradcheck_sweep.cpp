// Parameterized gradient checks: the whole-model backward pass against
// central differences, swept across architectures and input geometries.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <ostream>

#include "nn/loss.hpp"
#include "nn/models.hpp"
#include "nn/sgd.hpp"

namespace fedsched::nn {
namespace {

using tensor::Tensor;

struct SweepCase {
  const char* name;
  Arch arch;
  std::size_t channels, hw, classes, width, batch;
};

// Without a printer gtest prints the raw bytes, name pointer included, into
// the ctest names, which then change with every process.
void PrintTo(const SweepCase& c, std::ostream* os) { *os << c.name; }

using KernelPolicy = tensor::ops::KernelPolicy;

// Every architecture case runs under BOTH kernel policies: the blocked
// production path and the naive reference path must each pass the same
// finite-difference check independently (not merely agree with each other).
class ModelGradcheck
    : public ::testing::TestWithParam<std::tuple<SweepCase, KernelPolicy>> {};

/// Loss of the model on a fixed batch (for finite differencing).
double batch_loss(Model& model, const Tensor& x,
                  const std::vector<std::uint16_t>& labels) {
  const Tensor logits = model.forward(x, false);
  return softmax_cross_entropy(logits, labels).loss;
}

TEST_P(ModelGradcheck, BackwardMatchesFiniteDifferences) {
  const auto [c, policy] = GetParam();
  common::Rng rng(std::hash<std::string_view>{}(c.name));
  ModelSpec spec;
  spec.arch = c.arch;
  spec.in_channels = c.channels;
  spec.in_h = spec.in_w = c.hw;
  spec.classes = c.classes;
  spec.width = c.width;
  spec.kernels = policy;
  Model model = build_model(spec, rng);
  ASSERT_EQ(model.kernels(), policy);

  const Tensor x = Tensor::randn({c.batch, c.channels * c.hw * c.hw}, rng);
  std::vector<std::uint16_t> labels(c.batch);
  for (auto& label : labels) {
    label = static_cast<std::uint16_t>(rng.uniform_int(c.classes));
  }

  // Analytic gradients.
  model.zero_grads();
  const Tensor logits = model.forward(x, true);
  const auto loss = softmax_cross_entropy(logits, labels);
  model.backward(loss.grad);
  const auto grads = model.flat_grads();
  auto flat = model.flat_params();

  // Check a deterministic sample of parameters (full sweep is O(P^2)).
  // Finite differences through ReLU/maxpool kinks produce isolated outliers
  // even for a correct backward pass, so assert on the error *distribution*:
  // the bulk must be tight and outliers rare.
  const double eps = 2e-3;
  const std::size_t stride = std::max<std::size_t>(1, flat.size() / 64);
  std::vector<double> errors;
  for (std::size_t i = 0; i < flat.size(); i += stride) {
    const float saved = flat[i];
    flat[i] = saved + static_cast<float>(eps);
    model.set_flat_params(flat);
    const double plus = batch_loss(model, x, labels);
    flat[i] = saved - static_cast<float>(eps);
    model.set_flat_params(flat);
    const double minus = batch_loss(model, x, labels);
    flat[i] = saved;
    const double numeric = (plus - minus) / (2 * eps);
    const double analytic = grads[i];
    const double scale = std::max({std::abs(numeric), std::abs(analytic), 0.1});
    errors.push_back(std::abs(numeric - analytic) / scale);
  }
  model.set_flat_params(flat);
  ASSERT_GE(errors.size(), 32u);
  std::sort(errors.begin(), errors.end());
  const double p90 = errors[errors.size() * 9 / 10];
  const std::size_t outliers = static_cast<std::size_t>(
      errors.end() - std::upper_bound(errors.begin(), errors.end(), 0.08));
  EXPECT_LT(p90, 0.03) << "p90 gradient error for " << c.name;
  EXPECT_LE(outliers, errors.size() / 16) << "kink outliers for " << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Architectures, ModelGradcheck,
    ::testing::Combine(
        ::testing::Values(SweepCase{"lenet-mono", Arch::kLeNet, 1, 8, 4, 1, 3},
                          SweepCase{"lenet-rgb", Arch::kLeNet, 3, 8, 10, 1, 2},
                          SweepCase{"lenet-wide", Arch::kLeNet, 1, 12, 10, 2, 2},
                          SweepCase{"vgg6-mono", Arch::kVgg6, 1, 12, 4, 1, 2},
                          SweepCase{"vgg6-rgb", Arch::kVgg6, 3, 8, 10, 1, 2},
                          // Batches that do not divide evenly across Conv2d's
                          // sample chunks (grain 8): 13 -> chunks of 7 and 6,
                          // 9 -> chunks of 5 and 4. Exercises the uneven tail
                          // of the parallel im2col/GEMM path.
                          SweepCase{"lenet-batch13", Arch::kLeNet, 1, 8, 4, 1, 13},
                          SweepCase{"vgg6-batch9", Arch::kVgg6, 1, 12, 4, 1, 9}),
        ::testing::Values(KernelPolicy::kBlocked, KernelPolicy::kReference)),
    [](const auto& info) {
      std::string name = std::get<0>(info.param).name;
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      name += '_';
      name += tensor::ops::kernel_policy_name(std::get<1>(info.param));
      return name;
    });

class SgdStability : public ::testing::TestWithParam<float> {};

TEST_P(SgdStability, LossDecreasesAcrossLearningRates) {
  const float lr = GetParam();
  common::Rng rng(42);
  ModelSpec spec;
  spec.in_h = spec.in_w = 8;
  spec.classes = 4;
  Model model = build_model(spec, rng);
  Sgd sgd({.learning_rate = lr, .momentum = 0.0f, .weight_decay = 0.0f});

  const Tensor x = Tensor::randn({16, 64}, rng);
  std::vector<std::uint16_t> labels(16);
  for (auto& label : labels) label = static_cast<std::uint16_t>(rng.uniform_int(4));

  double first = 0.0, last = 0.0;
  for (int step = 0; step < 30; ++step) {
    const Tensor logits = model.forward(x, true);
    const auto loss = softmax_cross_entropy(logits, labels);
    model.backward(loss.grad);
    sgd.step(model);
    if (step == 0) first = loss.loss;
    last = loss.loss;
  }
  EXPECT_LT(last, first) << "lr=" << lr;
  EXPECT_TRUE(std::isfinite(last));
}

INSTANTIATE_TEST_SUITE_P(LearningRates, SgdStability,
                         ::testing::Values(0.003f, 0.01f, 0.03f));

}  // namespace
}  // namespace fedsched::nn
