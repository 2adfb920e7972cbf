// Property tests for the tensor kernels over parameterized shape grids.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "tensor/ops.hpp"

namespace fedsched::tensor::ops {
namespace {

/// Reference triple-loop product for validating the optimized kernels.
Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  Tensor out({m, n});
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) {
        acc += static_cast<double>(a[i * k + kk]) * b[kk * n + j];
      }
      out[i * n + j] = static_cast<float>(acc);
    }
  }
  return out;
}

class MatmulShapes
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, std::size_t>> {};

TEST_P(MatmulShapes, MatchesNaiveReference) {
  const auto [m, k, n] = GetParam();
  common::Rng rng(m * 10007 + k * 101 + n);
  const Tensor a = Tensor::randn({m, k}, rng);
  const Tensor b = Tensor::randn({k, n}, rng);
  const Tensor expected = naive_matmul(a, b);

  Tensor out({m, n});
  matmul(a, b, out);
  for (std::size_t i = 0; i < out.numel(); ++i) {
    EXPECT_NEAR(out[i], expected[i], 1e-3) << "matmul at " << i;
  }

  // The transposed variants must agree through explicit transposes.
  Tensor at({k, m});
  transpose(a, at);
  Tensor out_tn({m, n});
  matmul_tn(at, b, out_tn);
  Tensor bt({n, k});
  transpose(b, bt);
  Tensor out_nt({m, n});
  matmul_nt(a, bt, out_nt);
  for (std::size_t i = 0; i < out.numel(); ++i) {
    EXPECT_NEAR(out_tn[i], expected[i], 1e-3) << "matmul_tn at " << i;
    EXPECT_NEAR(out_nt[i], expected[i], 1e-3) << "matmul_nt at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShapeGrid, MatmulShapes,
    ::testing::Values(std::tuple{1u, 1u, 1u}, std::tuple{1u, 7u, 3u},
                      std::tuple{5u, 1u, 5u}, std::tuple{4u, 4u, 4u},
                      std::tuple{3u, 17u, 9u}, std::tuple{16u, 8u, 32u},
                      std::tuple{31u, 13u, 7u}, std::tuple{20u, 20u, 1u}));

struct ConvCase {
  std::size_t channels, hw, kernel, pad, stride;
};

class ConvGeometries : public ::testing::TestWithParam<ConvCase> {};

/// Unfold every sample of batch[N, C*H*W] into columns[patch, N*spatial] as
/// Conv2d does: pad the sample, then unfold it at column offset s * spatial.
void unfold_batch(const Tensor& batch, const Conv2dGeometry& g, Tensor& columns) {
  const std::size_t n = batch.dim(0), features = batch.dim(1);
  const std::size_t spatial = g.out_h() * g.out_w();
  std::vector<float> padded(padded_size(g));
  for (std::size_t s = 0; s < n; ++s) {
    pad_image(batch.data().subspan(s * features, features), g, padded.data());
    unfold_padded(padded.data(), g, columns.raw() + s * spatial, n * spatial);
  }
}

TEST_P(ConvGeometries, Im2colCol2imAdjoint) {
  const ConvCase c = GetParam();
  Conv2dGeometry g;
  g.in_channels = c.channels;
  g.in_h = g.in_w = c.hw;
  g.kernel = c.kernel;
  g.pad = c.pad;
  g.stride = c.stride;

  common::Rng rng(c.channels * 1000 + c.hw * 10 + c.kernel);
  const Tensor x = Tensor::randn({1, g.in_channels * g.in_h * g.in_w}, rng);
  Tensor cols({g.patch_size(), g.out_h() * g.out_w()});
  im2col(x.data(), g, cols);

  const Tensor y = Tensor::randn(cols.shape(), rng);
  Tensor back({1, g.in_channels * g.in_h * g.in_w});
  auto img = back.data();
  col2im(y, g, img);

  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < cols.numel(); ++i) {
    lhs += static_cast<double>(cols[i]) * y[i];
  }
  for (std::size_t i = 0; i < x.numel(); ++i) {
    rhs += static_cast<double>(x[i]) * back[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-2 * std::max(1.0, std::abs(lhs)));
}

TEST_P(ConvGeometries, BatchIm2colCol2imAdjoint) {
  // Adjointness of the batch-level unfold pair Conv2d runs: for every
  // geometry, <unfold(x), y> == <x, fold(y)> where the inner products run
  // over the whole [patch, batch*spatial] matrix and the whole batch, the
  // unfold is pad_image + unfold_padded and the fold fold_padded +
  // crop_image per sample. This is the same linear-operator property the
  // per-sample test pins, applied to the single-matrix batch layout.
  const ConvCase c = GetParam();
  Conv2dGeometry g;
  g.in_channels = c.channels;
  g.in_h = g.in_w = c.hw;
  g.kernel = c.kernel;
  g.pad = c.pad;
  g.stride = c.stride;
  const std::size_t batch = 3;
  const std::size_t features = g.in_channels * g.in_h * g.in_w;
  const std::size_t spatial = g.out_h() * g.out_w();

  common::Rng rng(c.channels * 7919 + c.hw * 13 + c.kernel);
  const Tensor x = Tensor::randn({batch, features}, rng);
  Tensor cols({g.patch_size(), batch * spatial});
  unfold_batch(x, g, cols);

  const Tensor y = Tensor::randn(cols.shape(), rng);
  Tensor back({batch, features});
  std::vector<float> padded(padded_size(g));
  for (std::size_t s = 0; s < batch; ++s) {
    fold_padded(y.raw() + s * spatial, batch * spatial, g, padded.data());
    crop_image(padded.data(), g, back.data().subspan(s * features, features));
  }

  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < cols.numel(); ++i) {
    lhs += static_cast<double>(cols[i]) * y[i];
  }
  for (std::size_t i = 0; i < x.numel(); ++i) {
    rhs += static_cast<double>(x[i]) * back[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-2 * std::max(1.0, std::abs(lhs)));
}

TEST_P(ConvGeometries, BatchAndPerSampleUnfoldAgreeBitwise) {
  // The per-sample reference im2col and the batch-level unfold Conv2d runs
  // must produce identical bits — Conv2d relies on sample s owning exactly
  // the column range [s*spatial, (s+1)*spatial).
  const ConvCase c = GetParam();
  Conv2dGeometry g;
  g.in_channels = c.channels;
  g.in_h = g.in_w = c.hw;
  g.kernel = c.kernel;
  g.pad = c.pad;
  g.stride = c.stride;
  const std::size_t batch = 4;
  const std::size_t features = g.in_channels * g.in_h * g.in_w;
  const std::size_t spatial = g.out_h() * g.out_w();

  common::Rng rng(c.channels + c.hw + c.kernel);
  const Tensor x = Tensor::randn({batch, features}, rng);
  Tensor cols_batch({g.patch_size(), batch * spatial});
  unfold_batch(x, g, cols_batch);

  Tensor cols_one({g.patch_size(), spatial});
  for (std::size_t s = 0; s < batch; ++s) {
    im2col(x.data().subspan(s * features, features), g, cols_one);
    for (std::size_t r = 0; r < g.patch_size(); ++r) {
      for (std::size_t p = 0; p < spatial; ++p) {
        ASSERT_EQ(cols_batch.at({r, s * spatial + p}), cols_one.at({r, p}));
      }
    }
  }
}

TEST_P(ConvGeometries, PaddedUnfoldMatchesIm2colBitwise) {
  // The branch-free unfold (zero-bordered copy, fixed-width row runs) must
  // reproduce the bounds-tested reference unfold bit for bit, and its
  // transpose the k-major layout, including the +0 of every border read.
  const ConvCase c = GetParam();
  Conv2dGeometry g;
  g.in_channels = c.channels;
  g.in_h = g.in_w = c.hw;
  g.kernel = c.kernel;
  g.pad = c.pad;
  g.stride = c.stride;
  const std::size_t features = g.in_channels * g.in_h * g.in_w;
  const std::size_t spatial = g.out_h() * g.out_w();
  const std::size_t patch = g.patch_size();

  common::Rng rng(c.channels * 31 + c.hw * 7 + c.kernel * 3 + c.pad + c.stride);
  Tensor x = Tensor::randn({1, features}, rng);
  x[0] = -0.0f;  // a signed zero must travel unchanged
  Tensor reference({patch, spatial});
  im2col(x.data(), g, reference);

  std::vector<float> padded(padded_size(g), 7.0f);  // every cell gets written
  pad_image(x.data(), g, padded.data());
  Tensor columns({patch, spatial});
  unfold_padded(padded.data(), g, columns.raw(), spatial);
  std::vector<float> kmajor(spatial * patch);
  transpose_block(columns.raw(), spatial, patch, spatial, kmajor.data(), patch);
  for (std::size_t r = 0; r < patch; ++r) {
    for (std::size_t q = 0; q < spatial; ++q) {
      const auto want = std::bit_cast<std::uint32_t>(reference[r * spatial + q]);
      ASSERT_EQ(std::bit_cast<std::uint32_t>(columns[r * spatial + q]), want)
          << "row " << r << " pixel " << q;
      ASSERT_EQ(std::bit_cast<std::uint32_t>(kmajor[q * patch + r]), want)
          << "k-major row " << q << " column " << r;
    }
  }
}

TEST_P(ConvGeometries, PaddedFoldMatchesCol2imBitwise) {
  // The branch-free fold adds into a zero-bordered image in col2im's order,
  // so it must equal col2im into a zero image bit for bit — signed zeros and
  // exact cancellations included.
  const ConvCase c = GetParam();
  Conv2dGeometry g;
  g.in_channels = c.channels;
  g.in_h = g.in_w = c.hw;
  g.kernel = c.kernel;
  g.pad = c.pad;
  g.stride = c.stride;
  const std::size_t features = g.in_channels * g.in_h * g.in_w;
  const std::size_t spatial = g.out_h() * g.out_w();

  common::Rng rng(c.channels * 17 + c.hw * 5 + c.kernel + c.pad * 11 + c.stride);
  Tensor columns = Tensor::randn({g.patch_size(), spatial}, rng);
  for (std::size_t i = 0; i < columns.numel(); i += 5) columns[i] = -0.0f;
  for (std::size_t i = 1; i + 1 < columns.numel(); i += 7) columns[i + 1] = -columns[i];

  std::vector<float> reference(features, 0.0f);
  col2im(columns, g, reference);
  std::vector<float> padded(padded_size(g), 7.0f);  // fold_padded zeroes it
  fold_padded(columns.raw(), spatial, g, padded.data());
  std::vector<float> folded(features, 7.0f);
  crop_image(padded.data(), g, folded);
  for (std::size_t i = 0; i < features; ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(folded[i]),
              std::bit_cast<std::uint32_t>(reference[i]))
        << "pixel " << i;
  }
}

TEST_P(ConvGeometries, Im2colPreservesEnergyWithoutPadding) {
  const ConvCase c = GetParam();
  if (c.pad != 0 || c.stride != c.kernel) GTEST_SKIP();  // only exact tilings
  Conv2dGeometry g;
  g.in_channels = c.channels;
  g.in_h = g.in_w = c.hw;
  g.kernel = c.kernel;
  g.pad = 0;
  g.stride = c.stride;
  if ((g.in_h - g.kernel) % g.stride != 0) GTEST_SKIP();

  common::Rng rng(11);
  const Tensor x = Tensor::randn({1, g.in_channels * g.in_h * g.in_w}, rng);
  Tensor cols({g.patch_size(), g.out_h() * g.out_w()});
  im2col(x.data(), g, cols);
  // Non-overlapping tiling: every input pixel appears exactly once.
  double sum_x = 0.0, sum_cols = 0.0;
  for (float v : x.data()) sum_x += v;
  for (float v : cols.data()) sum_cols += v;
  EXPECT_NEAR(sum_x, sum_cols, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(
    GeometryGrid, ConvGeometries,
    ::testing::Values(ConvCase{1, 4, 2, 0, 2}, ConvCase{1, 6, 3, 1, 1},
                      ConvCase{2, 5, 3, 1, 1}, ConvCase{3, 8, 3, 1, 2},
                      ConvCase{4, 6, 2, 0, 2}, ConvCase{2, 7, 5, 2, 1},
                      ConvCase{1, 9, 3, 0, 3}, ConvCase{8, 4, 4, 0, 4}));

class TransposeShapes
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(TransposeShapes, Involution) {
  const auto [m, n] = GetParam();
  common::Rng rng(m * 31 + n);
  const Tensor a = Tensor::randn({m, n}, rng);
  Tensor t({n, m}), back({m, n});
  transpose(a, t);
  transpose(t, back);
  for (std::size_t i = 0; i < a.numel(); ++i) EXPECT_EQ(back[i], a[i]);
  // Spot-check the mapping itself.
  EXPECT_EQ(t.at({n - 1, m - 1}), a.at({m - 1, n - 1}));
  EXPECT_EQ(t.at({0, m - 1}), a.at({m - 1, 0}));
}

INSTANTIATE_TEST_SUITE_P(ShapeGrid, TransposeShapes,
                         ::testing::Values(std::pair{1u, 1u}, std::pair{1u, 9u},
                                           std::pair{9u, 1u}, std::pair{5u, 8u},
                                           std::pair{16u, 16u}, std::pair{33u, 7u}));

}  // namespace
}  // namespace fedsched::tensor::ops
