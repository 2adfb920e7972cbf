#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/loss.hpp"

namespace fedsched::nn {
namespace {

using tensor::Tensor;

/// Scalar objective used by all gradient checks: sum of elementwise
/// 0.5*y^2, whose gradient w.r.t. y is y itself.
double objective(const Tensor& y) {
  double total = 0.0;
  for (float v : y.data()) total += 0.5 * static_cast<double>(v) * v;
  return total;
}

Tensor objective_grad(const Tensor& y) { return y; }

/// Max relative error between analytic and central-difference gradients of
/// the objective w.r.t. the layer input.
double input_gradcheck(Layer& layer, Tensor input, double eps = 1e-3) {
  Tensor out = layer.forward(input, /*train=*/true);
  const Tensor grad_in = layer.backward(objective_grad(out));

  double worst = 0.0;
  for (std::size_t i = 0; i < input.numel(); ++i) {
    const float saved = input[i];
    input[i] = saved + static_cast<float>(eps);
    const double plus = objective(layer.forward(input, false));
    input[i] = saved - static_cast<float>(eps);
    const double minus = objective(layer.forward(input, false));
    input[i] = saved;
    const double numeric = (plus - minus) / (2 * eps);
    const double analytic = grad_in[i];
    const double scale = std::max({std::abs(numeric), std::abs(analytic), 1.0});
    worst = std::max(worst, std::abs(numeric - analytic) / scale);
  }
  return worst;
}

/// Same for every parameter of the layer.
double param_gradcheck(Layer& layer, const Tensor& input, double eps = 1e-3) {
  // Fresh forward/backward to populate gradients.
  for (const Param& p : layer.params()) p.grad->zero();
  Tensor out = layer.forward(input, /*train=*/true);
  (void)layer.backward(objective_grad(out));

  double worst = 0.0;
  for (const Param& p : layer.params()) {
    for (std::size_t i = 0; i < p.value->numel(); ++i) {
      const float saved = (*p.value)[i];
      (*p.value)[i] = saved + static_cast<float>(eps);
      const double plus = objective(layer.forward(input, false));
      (*p.value)[i] = saved - static_cast<float>(eps);
      const double minus = objective(layer.forward(input, false));
      (*p.value)[i] = saved;
      const double numeric = (plus - minus) / (2 * eps);
      const double analytic = (*p.grad)[i];
      const double scale = std::max({std::abs(numeric), std::abs(analytic), 1.0});
      worst = std::max(worst, std::abs(numeric - analytic) / scale);
    }
  }
  return worst;
}

TEST(Dense, ForwardKnownValues) {
  common::Rng rng(1);
  Dense layer(2, 1, rng);
  auto params = layer.params();
  (*params[0].value)[0] = 2.0f;  // w
  (*params[0].value)[1] = -1.0f;
  (*params[1].value)[0] = 0.5f;  // b
  const Tensor x({1, 2}, {3.0f, 4.0f});
  const Tensor y = layer.forward(x, false);
  EXPECT_FLOAT_EQ(y.at({0, 0}), 2.0f * 3.0f - 1.0f * 4.0f + 0.5f);
}

TEST(Dense, InputGradient) {
  common::Rng rng(2);
  Dense layer(5, 4, rng);
  const Tensor x = Tensor::randn({3, 5}, rng);
  EXPECT_LT(input_gradcheck(layer, x), 2e-2);
}

TEST(Dense, ParamGradient) {
  common::Rng rng(3);
  Dense layer(4, 3, rng);
  const Tensor x = Tensor::randn({2, 4}, rng);
  EXPECT_LT(param_gradcheck(layer, x), 2e-2);
}

TEST(Dense, GradientsAccumulate) {
  common::Rng rng(4);
  Dense layer(3, 2, rng);
  const Tensor x = Tensor::randn({2, 3}, rng);
  Tensor out = layer.forward(x, true);
  (void)layer.backward(objective_grad(out));
  const auto first = layer.params()[0].grad->data();
  std::vector<float> snapshot(first.begin(), first.end());
  out = layer.forward(x, true);
  (void)layer.backward(objective_grad(out));
  const auto second = layer.params()[0].grad->data();
  for (std::size_t i = 0; i < snapshot.size(); ++i) {
    EXPECT_NEAR(second[i], 2.0f * snapshot[i], 1e-4);
  }
}

TEST(Dense, ShapeValidation) {
  common::Rng rng(5);
  Dense layer(3, 2, rng);
  EXPECT_THROW((void)layer.forward(Tensor({2, 4}), false), std::invalid_argument);
  EXPECT_THROW((void)layer.backward(Tensor({2, 2})), std::logic_error);
  EXPECT_EQ(layer.output_features(3), 2u);
  EXPECT_THROW((void)layer.output_features(7), std::invalid_argument);
}

TEST(Dense, MacsPerSample) {
  common::Rng rng(6);
  Dense layer(10, 7, rng);
  EXPECT_DOUBLE_EQ(layer.macs_per_sample(), 70.0);
}

tensor::ops::Conv2dGeometry geom(std::size_t c, std::size_t hw, std::size_t k,
                                 std::size_t pad) {
  tensor::ops::Conv2dGeometry g;
  g.in_channels = c;
  g.in_h = hw;
  g.in_w = hw;
  g.kernel = k;
  g.pad = pad;
  g.stride = 1;
  return g;
}

TEST(Conv2d, InputGradient) {
  common::Rng rng(7);
  Conv2d layer(geom(2, 5, 3, 1), 3, rng);
  const Tensor x = Tensor::randn({2, 2 * 5 * 5}, rng);
  EXPECT_LT(input_gradcheck(layer, x), 2e-2);
}

TEST(Conv2d, ParamGradient) {
  common::Rng rng(8);
  Conv2d layer(geom(1, 4, 3, 1), 2, rng);
  const Tensor x = Tensor::randn({2, 16}, rng);
  EXPECT_LT(param_gradcheck(layer, x), 2e-2);
}

TEST(Conv2d, OutputShape) {
  common::Rng rng(9);
  Conv2d layer(geom(3, 8, 3, 1), 16, rng);
  const Tensor x = Tensor::randn({4, 3 * 8 * 8}, rng);
  const Tensor y = layer.forward(x, false);
  EXPECT_EQ(y.dim(0), 4u);
  EXPECT_EQ(y.dim(1), 16u * 8 * 8);
  EXPECT_EQ(layer.output_features(3 * 8 * 8), 16u * 8 * 8);
}

TEST(Conv2d, BiasAppliedPerChannel) {
  common::Rng rng(10);
  Conv2d layer(geom(1, 3, 3, 1), 2, rng);
  auto params = layer.params();
  params[0].value->zero();          // weights zero
  (*params[1].value)[0] = 1.5f;     // channel-0 bias
  (*params[1].value)[1] = -2.0f;    // channel-1 bias
  const Tensor x = Tensor::randn({1, 9}, rng);
  const Tensor y = layer.forward(x, false);
  for (std::size_t p = 0; p < 9; ++p) {
    EXPECT_FLOAT_EQ(y.at({0, p}), 1.5f);
    EXPECT_FLOAT_EQ(y.at({0, 9 + p}), -2.0f);
  }
}

TEST(Conv2d, ConstructionValidation) {
  common::Rng rng(11);
  EXPECT_THROW(Conv2d(geom(1, 4, 3, 1), 0, rng), std::invalid_argument);
  EXPECT_THROW(Conv2d(geom(1, 2, 5, 0), 2, rng), std::invalid_argument);
}

TEST(Conv2d, MacsScaleWithGeometry) {
  common::Rng rng(12);
  Conv2d small(geom(1, 4, 3, 1), 2, rng);
  Conv2d large(geom(1, 8, 3, 1), 2, rng);
  EXPECT_DOUBLE_EQ(large.macs_per_sample() / small.macs_per_sample(), 4.0);
}

TEST(Conv2d, CachedColumnsMatchRecomputedBackward) {
  // forward(train=true) caches the batch-level im2col matrix; backward
  // normally consumes the cache instead of re-unfolding the input. The cache
  // is an optimization only: dropping it (forcing backward to re-run im2col)
  // must produce bit-identical gradients.
  common::Rng rng(13);
  const Tensor x = Tensor::randn({5, 2 * 6 * 6}, rng);

  auto grads_with_cache = [&](bool drop) {
    common::Rng layer_rng(14);  // identical weights both runs
    Conv2d layer(geom(2, 6, 3, 1), 4, layer_rng);
    const Tensor out = layer.forward(x, /*train=*/true);
    if (drop) layer.drop_column_cache();
    const Tensor dx = layer.backward(objective_grad(out));
    std::vector<float> flat(dx.data().begin(), dx.data().end());
    for (const Param& p : layer.params()) {
      flat.insert(flat.end(), p.grad->data().begin(), p.grad->data().end());
    }
    return flat;
  };

  const auto cached = grads_with_cache(false);
  const auto recomputed = grads_with_cache(true);
  ASSERT_EQ(cached.size(), recomputed.size());
  for (std::size_t i = 0; i < cached.size(); ++i) {
    ASSERT_EQ(cached[i], recomputed[i]) << "grad element " << i;
  }
}

TEST(Conv2d, EvalForwardInvalidatesColumnCache) {
  // An eval-mode forward between train forward and backward overwrites the
  // forward column scratch with the eval batch; backward must still use the
  // training batch's columns (the k-major copy only a training forward
  // writes), never the eval batch's.
  common::Rng rng(15);
  const Tensor x_train = Tensor::randn({3, 1 * 5 * 5}, rng);
  const Tensor x_eval = Tensor::randn({3, 1 * 5 * 5}, rng);

  auto run = [&](bool interleave_eval) {
    common::Rng layer_rng(16);
    Conv2d layer(geom(1, 5, 3, 1), 2, layer_rng);
    const Tensor out = layer.forward(x_train, /*train=*/true);
    if (interleave_eval) (void)layer.forward(x_eval, /*train=*/false);
    (void)layer.backward(objective_grad(out));
    const auto g = layer.params()[0].grad->data();
    return std::vector<float>(g.begin(), g.end());
  };

  const auto clean = run(false);
  const auto interleaved = run(true);
  ASSERT_EQ(clean.size(), interleaved.size());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    ASSERT_EQ(clean[i], interleaved[i]) << "dW element " << i;
  }
}

TEST(Conv2d, DroppedColumnsNeedTheTrainingBatch) {
  // With its columns dropped, backward re-unfolds the training batch's
  // padded copy; once an eval forward has overwritten that copy there is
  // nothing correct to re-unfold, so backward must refuse instead of using
  // the eval batch.
  common::Rng rng(19);
  Conv2d layer(geom(1, 5, 3, 1), 2, rng);
  const Tensor out = layer.forward(Tensor::randn({3, 25}, rng), /*train=*/true);
  (void)layer.forward(Tensor::randn({3, 25}, rng), /*train=*/false);
  layer.drop_column_cache();
  EXPECT_THROW((void)layer.backward(objective_grad(out)), std::logic_error);
}

TEST(Conv2d, ReferencePolicyMatchesBlockedForwardBackward) {
  // The layer against a per-sample oracle built from the naive kernels: for
  // each sample s, cols = im2col(x_s), y_s = W cols + b, dW += dY_s cols^T,
  // db += the row sums of dY_s and dX_s = col2im(W^T dY_s). Bitwise agreement
  // is not guaranteed (the layer computes dW as one GEMM over the batch, the
  // oracle as per-sample partial sums), so compare within a small band.
  namespace ops = tensor::ops;
  common::Rng rng(17);
  const ops::Conv2dGeometry g = geom(2, 6, 3, 1);
  constexpr std::size_t kOutChannels = 3, kBatch = 4;
  const std::size_t features = 2 * 6 * 6;
  const std::size_t patch = g.patch_size(), spatial = g.out_h() * g.out_w();
  const Tensor x = Tensor::randn({kBatch, features}, rng);

  common::Rng layer_rng(18);
  Conv2d layer(g, kOutChannels, layer_rng);
  const auto params = layer.params();
  *params[1].value = Tensor::randn({kOutChannels}, layer_rng);  // init is zero
  const Tensor& weight = *params[0].value;
  const Tensor& bias = *params[1].value;
  const Tensor out = layer.forward(x, /*train=*/true);
  const Tensor dx = layer.backward(objective_grad(out));
  const Tensor& dy = out;  // objective_grad is the identity

  Tensor want_out({kBatch, kOutChannels * spatial}), want_dx({kBatch, features});
  Tensor want_dw({kOutChannels, patch}), want_db({kOutChannels});
  Tensor cols({patch, spatial}), y({kOutChannels, spatial}), dy_s({kOutChannels, spatial});
  Tensor dw_s({kOutChannels, patch}), dcols({patch, spatial});
  for (std::size_t s = 0; s < kBatch; ++s) {
    ops::im2col(x.data().subspan(s * features, features), g, cols);
    ops::matmul_ref(weight, cols, y);
    for (std::size_t c = 0; c < kOutChannels; ++c) {
      for (std::size_t p = 0; p < spatial; ++p) {
        want_out.at({s, c * spatial + p}) = y.at({c, p}) + bias[c];
        dy_s.at({c, p}) = dy.at({s, c * spatial + p});
        want_db[c] += dy_s.at({c, p});
      }
    }
    ops::matmul_nt_ref(dy_s, cols, dw_s);
    want_dw += dw_s;
    ops::matmul_tn_ref(weight, dy_s, dcols);
    ops::col2im(dcols, g, want_dx.data().subspan(s * features, features));
  }

  const auto expect_near = [](const Tensor& got, const Tensor& want, const char* what) {
    ASSERT_EQ(got.shape(), want.shape()) << what;
    for (std::size_t i = 0; i < got.numel(); ++i) {
      const double scale = std::max({std::abs(static_cast<double>(got[i])),
                                     std::abs(static_cast<double>(want[i])), 1.0});
      EXPECT_NEAR(got[i], want[i], 1e-4 * scale) << what << " element " << i;
    }
  };
  expect_near(out, want_out, "output");
  expect_near(dx, want_dx, "dX");
  expect_near(*params[0].grad, want_dw, "dW");
  expect_near(*params[1].grad, want_db, "db");
}

TEST(ReLU, ForwardClampsNegatives) {
  ReLU relu;
  const Tensor x({1, 4}, {-1.0f, 0.0f, 2.0f, -3.0f});
  const Tensor y = relu.forward(x, false);
  EXPECT_EQ(y.at({0, 0}), 0.0f);
  EXPECT_EQ(y.at({0, 1}), 0.0f);
  EXPECT_EQ(y.at({0, 2}), 2.0f);
}

TEST(ReLU, BackwardMasks) {
  ReLU relu;
  const Tensor x({1, 3}, {-1.0f, 1.0f, 2.0f});
  (void)relu.forward(x, true);
  const Tensor g({1, 3}, {5.0f, 5.0f, 5.0f});
  const Tensor dx = relu.backward(g);
  EXPECT_EQ(dx.at({0, 0}), 0.0f);
  EXPECT_EQ(dx.at({0, 1}), 5.0f);
  EXPECT_EQ(dx.at({0, 2}), 5.0f);
}

TEST(ReLU, InputGradient) {
  common::Rng rng(13);
  ReLU relu;
  // Keep values away from the kink at 0 for the finite-difference check.
  Tensor x = Tensor::randn({2, 6}, rng);
  for (float& v : x.data()) {
    if (std::abs(v) < 0.05f) v = 0.1f;
  }
  EXPECT_LT(input_gradcheck(relu, x), 2e-2);
}

std::uint32_t bits(float x) { return std::bit_cast<std::uint32_t>(x); }

TEST(ReLU, ForwardMapsNegativeZeroNegativesAndNanToPositiveZero) {
  // std::max(x, 0.0f) would return -0 for -0 and NaN for NaN; the select
  // x > 0 ? x : 0 returns the +0 bit pattern for every non-positive input.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const Tensor x({1, 7}, {-0.0f, -1.0f, nan, -nan, -inf, 0.0f, 2.5f});
  for (bool train : {false, true}) {
    ReLU relu;
    const Tensor y = relu.forward(x, train);
    for (std::size_t i = 0; i < 6; ++i) {
      EXPECT_EQ(bits(y[i]), bits(0.0f)) << "element " << i << ", train " << train;
    }
    EXPECT_EQ(bits(y[6]), bits(2.5f));
  }
}

TEST(ReLU, BackwardKeepsTheSignOfZeroedGradients) {
  // g * float(mask): a negative gradient at a masked element is -0.
  ReLU relu;
  (void)relu.forward(Tensor({1, 3}, {-1.0f, 1.0f, -0.0f}), true);
  const Tensor dx = relu.backward(Tensor({1, 3}, {-3.0f, -3.0f, 4.0f}));
  EXPECT_EQ(bits(dx[0]), bits(-0.0f));
  EXPECT_EQ(bits(dx[1]), bits(-3.0f));
  EXPECT_EQ(bits(dx[2]), bits(0.0f));
}

TEST(ReLU, BackwardRejectsShapeMismatch) {
  ReLU relu;
  EXPECT_THROW((void)relu.backward(Tensor({1, 3})), std::invalid_argument);
  (void)relu.forward(Tensor({2, 3}), true);
  EXPECT_THROW((void)relu.backward(Tensor({3, 2})), std::invalid_argument);
  EXPECT_THROW((void)relu.backward(Tensor({2, 4})), std::invalid_argument);
  // An eval forward keeps the training mask.
  (void)relu.forward(Tensor({5, 3}), false);
  EXPECT_NO_THROW((void)relu.backward(Tensor({2, 3})));
}

TEST(MaxPool2d, ForwardSelectsMax) {
  MaxPool2d pool(1, 4, 4, 2);
  Tensor x({1, 16});
  for (std::size_t i = 0; i < 16; ++i) x[i] = static_cast<float>(i);
  const Tensor y = pool.forward(x, false);
  EXPECT_EQ(y.numel(), 4u);
  EXPECT_EQ(y.at({0, 0}), 5.0f);
  EXPECT_EQ(y.at({0, 1}), 7.0f);
  EXPECT_EQ(y.at({0, 2}), 13.0f);
  EXPECT_EQ(y.at({0, 3}), 15.0f);
}

TEST(MaxPool2d, BackwardRoutesToArgmax) {
  MaxPool2d pool(1, 2, 2, 2);
  const Tensor x({1, 4}, {1.0f, 9.0f, 3.0f, 2.0f});
  (void)pool.forward(x, true);
  const Tensor g({1, 1}, {4.0f});
  const Tensor dx = pool.backward(g);
  EXPECT_EQ(dx.at({0, 0}), 0.0f);
  EXPECT_EQ(dx.at({0, 1}), 4.0f);
  EXPECT_EQ(dx.at({0, 2}), 0.0f);
}

TEST(MaxPool2d, InputGradient) {
  common::Rng rng(14);
  MaxPool2d pool(2, 4, 4, 2);
  const Tensor x = Tensor::randn({2, 32}, rng);
  EXPECT_LT(input_gradcheck(pool, x), 2e-2);
}

TEST(MaxPool2d, WindowMustDivide) {
  EXPECT_THROW(MaxPool2d(1, 5, 4, 2), std::invalid_argument);
  EXPECT_THROW(MaxPool2d(1, 4, 4, 0), std::invalid_argument);
}

TEST(SoftmaxCrossEntropy, UniformLogits) {
  const Tensor logits({2, 4});  // all zero -> uniform
  const std::vector<std::uint16_t> labels = {0, 3};
  const auto result = softmax_cross_entropy(logits, labels);
  EXPECT_NEAR(result.loss, std::log(4.0), 1e-5);
  // Gradient: (p - onehot)/N.
  EXPECT_NEAR(result.grad.at({0, 0}), (0.25 - 1.0) / 2.0, 1e-5);
  EXPECT_NEAR(result.grad.at({0, 1}), 0.25 / 2.0, 1e-5);
}

TEST(SoftmaxCrossEntropy, GradientSumsToZeroPerRow) {
  common::Rng rng(15);
  const Tensor logits = Tensor::randn({3, 5}, rng);
  const std::vector<std::uint16_t> labels = {1, 4, 2};
  const auto result = softmax_cross_entropy(logits, labels);
  for (std::size_t i = 0; i < 3; ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < 5; ++j) row += result.grad.at({i, j});
    EXPECT_NEAR(row, 0.0, 1e-5);
  }
}

TEST(SoftmaxCrossEntropy, NumericGradient) {
  common::Rng rng(16);
  Tensor logits = Tensor::randn({2, 4}, rng);
  const std::vector<std::uint16_t> labels = {2, 0};
  const auto analytic = softmax_cross_entropy(logits, labels);
  const double eps = 1e-3;
  for (std::size_t i = 0; i < logits.numel(); ++i) {
    const float saved = logits[i];
    logits[i] = saved + static_cast<float>(eps);
    const double plus = softmax_cross_entropy(logits, labels).loss;
    logits[i] = saved - static_cast<float>(eps);
    const double minus = softmax_cross_entropy(logits, labels).loss;
    logits[i] = saved;
    EXPECT_NEAR((plus - minus) / (2 * eps), analytic.grad[i], 1e-3);
  }
}

TEST(SoftmaxCrossEntropy, Validation) {
  const Tensor logits({2, 3});
  EXPECT_THROW((void)softmax_cross_entropy(logits, std::vector<std::uint16_t>{0}),
               std::invalid_argument);
  EXPECT_THROW((void)softmax_cross_entropy(logits, std::vector<std::uint16_t>{0, 9}),
               std::invalid_argument);
}

TEST(Softmax, RowsSumToOne) {
  common::Rng rng(17);
  const Tensor logits = Tensor::randn({4, 6}, rng, 3.0f);
  const Tensor probs = softmax(logits);
  for (std::size_t i = 0; i < 4; ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < 6; ++j) {
      EXPECT_GE(probs.at({i, j}), 0.0f);
      row += probs.at({i, j});
    }
    EXPECT_NEAR(row, 1.0, 1e-5);
  }
}

TEST(ArgmaxRows, PicksLargest) {
  const Tensor logits({2, 3}, {0.1f, 0.9f, 0.3f, 2.0f, -1.0f, 0.0f});
  const auto preds = argmax_rows(logits);
  EXPECT_EQ(preds[0], 1);
  EXPECT_EQ(preds[1], 0);
}

}  // namespace
}  // namespace fedsched::nn
