// Differential harness for the blocked GEMM engine: the blocked kernels are
// swept against the naive *_ref oracles over randomized shapes — degenerate
// m/n/k = 1, sizes straddling every tile boundary (kMr/kNr/kMc/kNc ± 1), and
// padded/strided conv geometries — under a ULP-scaled tolerance. The blocked
// path must additionally be bit-identical run-to-run and across thread-pool
// widths (the determinism contract: panel boundaries are a pure function of
// the shape, never of the pool).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"

namespace fedsched::tensor::ops {
namespace {

/// Distance in representable floats between a and b (0 = bitwise equal).
/// Maps the sign-magnitude bit pattern onto a monotonic integer line so the
/// distance is well-defined across zero.
std::int64_t ulp_distance(float a, float b) {
  if (a == b) return 0;  // covers +0 vs -0
  if (std::isnan(a) || std::isnan(b)) return std::numeric_limits<std::int64_t>::max();
  const auto monotonic = [](float x) {
    const auto bits = std::bit_cast<std::int32_t>(x);
    return static_cast<std::int64_t>(bits < 0 ? std::numeric_limits<std::int32_t>::min() - bits
                                              : bits);
  };
  const std::int64_t d = monotonic(a) - monotonic(b);
  return d < 0 ? -d : d;
}

/// Maximum ULP distance over two equally shaped tensors.
std::int64_t max_ulp(const Tensor& a, const Tensor& b) {
  EXPECT_TRUE(a.same_shape(b));
  std::int64_t worst = 0;
  for (std::size_t i = 0; i < a.numel(); ++i) {
    worst = std::max(worst, ulp_distance(a[i], b[i]));
  }
  return worst;
}

/// The acceptance bound: blocked vs reference within 4 ULPs elementwise.
constexpr std::int64_t kUlpBound = 4;

/// ULP-scaled comparison for long accumulations. When k exceeds gemm::kKc the
/// blocked engine sums KC-sized partials, so it cannot match the naive
/// single-loop oracle to 4 raw ULPs of the (possibly cancelled) result; the
/// honest yardstick is the magnitude actually accumulated. Asserts
/// |blocked - ref| <= bound * ulp(magnitude) elementwise, where magnitude is
/// the same product with |a|*|b| terms (no cancellation).
void expect_ulp_scaled(const Tensor& blocked, const Tensor& reference,
                       const Tensor& magnitude, std::int64_t bound,
                       const char* what) {
  ASSERT_TRUE(blocked.same_shape(reference));
  ASSERT_TRUE(blocked.same_shape(magnitude));
  for (std::size_t i = 0; i < blocked.numel(); ++i) {
    const double diff = std::abs(static_cast<double>(blocked[i]) - reference[i]);
    // ulp(m) for a float of magnitude m is ~m * 2^-23.
    const double tol = static_cast<double>(bound) *
                       std::ldexp(static_cast<double>(magnitude[i]), -23);
    EXPECT_LE(diff, tol) << what << " element " << i << " blocked=" << blocked[i]
                         << " ref=" << reference[i] << " mag=" << magnitude[i];
  }
}

/// Elementwise absolute value (for building the magnitude oracle).
Tensor abs_tensor(const Tensor& t) {
  Tensor out(t.shape());
  for (std::size_t i = 0; i < t.numel(); ++i) out[i] = std::abs(t[i]);
  return out;
}

struct GemmShape {
  std::size_t m, k, n;
};

void check_all_variants(const GemmShape& s, common::Rng& rng) {
  const Tensor a = Tensor::randn({s.m, s.k}, rng);
  const Tensor b = Tensor::randn({s.k, s.n}, rng);
  Tensor blocked({s.m, s.n}), reference({s.m, s.n});

  matmul(a, b, blocked);
  matmul_ref(a, b, reference);
  EXPECT_LE(max_ulp(blocked, reference), kUlpBound)
      << "matmul m=" << s.m << " k=" << s.k << " n=" << s.n;

  // A^T B with A stored transposed.
  const Tensor at = [&] {
    Tensor t({s.k, s.m});
    transpose(a, t);
    return t;
  }();
  matmul_tn(at, b, blocked);
  matmul_tn_ref(at, b, reference);
  EXPECT_LE(max_ulp(blocked, reference), kUlpBound)
      << "matmul_tn m=" << s.m << " k=" << s.k << " n=" << s.n;

  // A B^T with B stored transposed.
  const Tensor bt = [&] {
    Tensor t({s.n, s.k});
    transpose(b, t);
    return t;
  }();
  matmul_nt(a, bt, blocked);
  matmul_nt_ref(a, bt, reference);
  EXPECT_LE(max_ulp(blocked, reference), kUlpBound)
      << "matmul_nt m=" << s.m << " k=" << s.k << " n=" << s.n;
}

TEST(GemmDifferential, DegenerateAndTileEdgeShapes) {
  using gemm::kMc;
  using gemm::kMr;
  using gemm::kNc;
  using gemm::kNr;
  const std::vector<GemmShape> shapes = {
      {1, 1, 1},         {1, 1, 7},         {1, 9, 1},       {7, 1, 1},
      {1, 33, 1000},     {3, 1, 2},         {kMr, 5, kNr},   {kMr - 1, 5, kNr - 1},
      {kMr + 1, 5, kNr + 1},                {2 * kMr, 17, 3 * kNr + 3},
      {kMc - 1, 31, kNc - 1},               {kMc, 8, kNc},
      {kMc + 1, 8, kNc + 1},                {5, 64, 2 * kNc + 5},
  };
  common::Rng rng(2024);
  for (const GemmShape& s : shapes) check_all_variants(s, rng);
}

TEST(GemmDifferential, RandomizedShapeSweep) {
  common::Rng rng(77);
  for (int iter = 0; iter < 40; ++iter) {
    // Log-uniform-ish sizes biased toward the small-m / large-n shapes the
    // batch-level conv path produces, but covering square cases too.
    const GemmShape s{1 + rng.uniform_int(48), 1 + rng.uniform_int(160),
                      1 + rng.uniform_int(900)};
    check_all_variants(s, rng);
  }
}

TEST(GemmDifferential, ConvGeometryShapes) {
  // GEMMs exactly as the blocked Conv2d issues them: weight[out_c, patch]
  // times the batch-level im2col matrix [patch, batch*out_h*out_w], over
  // padded and strided geometries.
  struct ConvCase {
    std::size_t channels, hw, kernel, pad, stride, out_c, batch;
  };
  const std::vector<ConvCase> cases = {
      {1, 12, 3, 1, 1, 6, 20},   // LeNet conv1
      {6, 6, 3, 1, 1, 12, 20},   // LeNet conv2
      {3, 16, 3, 1, 1, 8, 20},   // VGG6 conv1 (CIFAR-like)
      {16, 8, 3, 1, 1, 16, 20},  // VGG6 stage-2 conv
      {2, 9, 3, 0, 2, 4, 5},     // strided, no pad
      {3, 7, 5, 2, 3, 3, 3},     // large kernel, heavy pad, stride 3
      {1, 5, 5, 0, 1, 2, 1},     // kernel == input, single output pixel
  };
  common::Rng rng(99);
  for (const ConvCase& c : cases) {
    Conv2dGeometry g;
    g.in_channels = c.channels;
    g.in_h = g.in_w = c.hw;
    g.kernel = c.kernel;
    g.pad = c.pad;
    g.stride = c.stride;
    const std::size_t ns = c.batch * g.out_h() * g.out_w();

    const Tensor batch =
        Tensor::randn({c.batch, g.in_channels * g.in_h * g.in_w}, rng);
    Tensor cols({g.patch_size(), ns});
    im2col_batch(batch, g, cols);
    const Tensor weight = Tensor::randn({c.out_c, g.patch_size()}, rng);

    Tensor blocked({c.out_c, ns}), reference({c.out_c, ns});
    matmul(weight, cols, blocked);
    matmul_ref(weight, cols, reference);
    EXPECT_LE(max_ulp(blocked, reference), kUlpBound)
        << "conv forward hw=" << c.hw << " k=" << c.kernel << " s=" << c.stride;

    // The backward dW GEMM: dY [out_c, ns] x cols^T -> [out_c, patch]. Its
    // accumulation length is ns = batch * spatial, which exceeds gemm::kKc
    // for the LeNet/VGG6 cases, so compare ULP-scaled against the accumulated
    // magnitude rather than raw ULPs of the cancelled result.
    const Tensor dy = Tensor::randn({c.out_c, ns}, rng);
    Tensor dw_blocked({c.out_c, g.patch_size()}), dw_ref({c.out_c, g.patch_size()});
    matmul_nt(dy, cols, dw_blocked);
    matmul_nt_ref(dy, cols, dw_ref);
    Tensor dw_mag({c.out_c, g.patch_size()});
    matmul_nt_ref(abs_tensor(dy), abs_tensor(cols), dw_mag);
    expect_ulp_scaled(dw_blocked, dw_ref, dw_mag, kUlpBound, "conv dW");
  }
}

TEST(GemmDifferential, BatchIm2colMatchesPerSample) {
  // The batch-level unfold must reproduce the per-sample unfold bit-for-bit:
  // sample s of the batch matrix is exactly im2col(sample s).
  Conv2dGeometry g;
  g.in_channels = 3;
  g.in_h = g.in_w = 9;
  g.kernel = 3;
  g.pad = 1;
  g.stride = 2;
  const std::size_t batch = 7;
  const std::size_t features = g.in_channels * g.in_h * g.in_w;
  const std::size_t spatial = g.out_h() * g.out_w();

  common::Rng rng(5);
  const Tensor x = Tensor::randn({batch, features}, rng);
  Tensor cols_batch({g.patch_size(), batch * spatial});
  im2col_batch(x, g, cols_batch);

  Tensor cols_one({g.patch_size(), spatial});
  for (std::size_t s = 0; s < batch; ++s) {
    im2col(x.data().subspan(s * features, features), g, cols_one);
    for (std::size_t r = 0; r < g.patch_size(); ++r) {
      for (std::size_t p = 0; p < spatial; ++p) {
        ASSERT_EQ(cols_batch.at({r, s * spatial + p}), cols_one.at({r, p}))
            << "sample " << s << " row " << r << " pos " << p;
      }
    }
  }
}

/// Run the raw engine at a given pool width and return the output bytes.
std::vector<float> run_blocked(std::size_t m, std::size_t k, std::size_t n,
                               const Tensor& a, const Tensor& b,
                               common::ThreadPool* pool) {
  std::vector<float> c(m * n);
  gemm::Workspace ws;
  gemm::gemm(m, n, k, a.raw(), k, 1, b.raw(), n, 1, c.data(), &ws, pool);
  return c;
}

TEST(GemmDifferential, BitIdenticalAcrossPoolWidthsAndReruns) {
  // The acceptance clause: the blocked path is bit-identical run-to-run at
  // parallelism 1 and 4 (and with no pool at all). n spans several column
  // panels so the parallel widths genuinely split the work.
  const std::size_t m = 24, k = 96, n = 3 * gemm::kNc + 17;
  common::Rng rng(123);
  const Tensor a = Tensor::randn({m, k}, rng);
  const Tensor b = Tensor::randn({k, n}, rng);

  common::ThreadPool serial(1), wide(4);
  const std::vector<float> inline_run = run_blocked(m, k, n, a, b, nullptr);
  const std::vector<float> serial_run = run_blocked(m, k, n, a, b, &serial);
  const std::vector<float> wide_run = run_blocked(m, k, n, a, b, &wide);
  const std::vector<float> wide_rerun = run_blocked(m, k, n, a, b, &wide);
  const std::vector<float> serial_rerun = run_blocked(m, k, n, a, b, &serial);

  const auto bytes_equal = [&](const std::vector<float>& x, const std::vector<float>& y) {
    return std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
  };
  EXPECT_TRUE(bytes_equal(inline_run, serial_run)) << "inline vs width-1";
  EXPECT_TRUE(bytes_equal(serial_run, wide_run)) << "width-1 vs width-4";
  EXPECT_TRUE(bytes_equal(wide_run, wide_rerun)) << "width-4 rerun";
  EXPECT_TRUE(bytes_equal(serial_run, serial_rerun)) << "width-1 rerun";
}

TEST(GemmDifferential, WorkspaceReuseDoesNotChangeBits) {
  // One workspace serving many differently shaped products must never leak
  // state between calls (buffers are fully re-packed each time).
  common::Rng rng(31);
  gemm::Workspace ws;
  for (int iter = 0; iter < 10; ++iter) {
    const std::size_t m = 1 + rng.uniform_int(20);
    const std::size_t k = 1 + rng.uniform_int(100);
    const std::size_t n = 1 + rng.uniform_int(700);
    const Tensor a = Tensor::randn({m, k}, rng);
    const Tensor b = Tensor::randn({k, n}, rng);
    Tensor with_ws({m, n}), fresh({m, n});
    matmul(a, b, with_ws, ws);
    matmul(a, b, fresh);
    EXPECT_EQ(max_ulp(with_ws, fresh), 0) << "m=" << m << " k=" << k << " n=" << n;
  }
}

TEST(GemmDifferential, ConvBackwardProductsMatchGatheredDyBitwise) {
  // gemm_conv_dw / gemm_conv_dx read dY in its [N, out_c, spatial] batch
  // layout; they must produce exactly the bits of gemm() on dY gathered into
  // [out_c, N * spatial] — including dW past kKc (conv1 shapes), whose
  // ragged strip sums per k block, and dW read from k-major rows padded to
  // whole strips, whose ragged strip is then read in place.
  struct Case {
    std::size_t n, out_c, patch, spatial;
  };
  const std::vector<Case> cases = {
      {20, 6, 9, 144},   // LeNet conv1: k = 2880, every column in the ragged strip
      {10, 6, 9, 144},   // its ragged tail batch
      {20, 12, 54, 36},  // LeNet conv2: spatial not a multiple of kNr
      {20, 8, 27, 256},  // VGG6 conv1: k = 5120
      {20, 16, 144, 64},  // VGG6 conv4: pooled dX panels
      {3, 5, 16, 7},      // whole strips only
      {1, 1, 1, 1},
  };
  common::Rng rng(41);
  common::ThreadPool pool(4);
  for (const Case& c : cases) {
    SCOPED_TRACE(::testing::Message() << "n=" << c.n << " out_c=" << c.out_c
                                      << " patch=" << c.patch << " spatial=" << c.spatial);
    const std::size_t ns = c.n * c.spatial;
    const Tensor dy = Tensor::randn({c.n, c.out_c * c.spatial}, rng);
    Tensor gathered({c.out_c, ns});
    for (std::size_t s = 0; s < c.n; ++s) {
      for (std::size_t ch = 0; ch < c.out_c; ++ch) {
        for (std::size_t p = 0; p < c.spatial; ++p) {
          gathered[ch * ns + s * c.spatial + p] =
              dy[s * c.out_c * c.spatial + ch * c.spatial + p];
        }
      }
    }
    const Tensor cols = Tensor::randn({c.patch, ns}, rng);
    const Tensor weight = Tensor::randn({c.out_c, c.patch}, rng);

    // dW = dY cols^T: the old NT product on the gathered dY.
    std::vector<float> dw_ref(c.out_c * c.patch);
    gemm::gemm(c.out_c, c.patch, ns, gathered.raw(), ns, 1, cols.raw(), 1, ns,
               dw_ref.data(), nullptr, &pool);
    for (const std::size_t ldb : {c.patch, gemm::kmajor_stride(c.patch)}) {
      std::vector<float> kmajor(ns * ldb, 0.0f);
      transpose_block(cols.raw(), ns, c.patch, ns, kmajor.data(), ldb);
      std::vector<float> dw(c.out_c * c.patch);
      gemm::gemm_conv_dw(c.out_c, c.patch, ns, dy.raw(), c.spatial, kmajor.data(), ldb,
                         dw.data(), nullptr, &pool);
      ASSERT_EQ(std::memcmp(dw.data(), dw_ref.data(), dw.size() * sizeof(float)), 0)
          << "dW, ldb=" << ldb;
    }

    // dX columns = W^T dY: the old TN product on the gathered dY, serial and
    // pooled.
    std::vector<float> dx_ref(c.patch * ns), dx(c.patch * ns);
    gemm::gemm(c.patch, ns, c.out_c, weight.raw(), 1, c.patch, gathered.raw(), ns, 1,
               dx_ref.data(), nullptr, nullptr);
    for (common::ThreadPool* p : {static_cast<common::ThreadPool*>(nullptr), &pool}) {
      gemm::gemm_conv_dx(c.patch, ns, c.out_c, weight.raw(), dy.raw(), c.spatial,
                         dx.data(), nullptr, p);
      ASSERT_EQ(std::memcmp(dx.data(), dx_ref.data(), dx.size() * sizeof(float)), 0)
          << "dX columns";
    }
  }
}

TEST(GemmDifferential, ZeroSizedEdges) {
  // k = 0 must produce an all-zero product (empty sum), not garbage.
  const Tensor a({2, 0});
  const Tensor b({0, 3});
  Tensor out({2, 3}, 7.0f);
  matmul(a, b, out);
  for (std::size_t i = 0; i < out.numel(); ++i) EXPECT_EQ(out[i], 0.0f);
}

}  // namespace
}  // namespace fedsched::tensor::ops
