#pragma once
// Dense kernels used by the nn layers: GEMM, the conv unfold/fold, reductions.
//
// All kernels take explicit output tensors (caller allocates) so the training
// loop can reuse buffers across batches — important on the 512 MB heap the
// paper's mobile app runs with, and it keeps per-batch cost flat, which the
// performance profiler relies on.
//
// The nn layers run one kernel family: the cache-blocked, register-tiled
// GEMM engine behind matmul / matmul_tn / matmul_nt (tensor/gemm.hpp) and the
// branch-free unfold/fold over zero-bordered images. Both are bit-identical
// run-to-run at any thread-pool width (fixed column chunking, no cross-chunk
// reductions). The naive triple loops matmul_ref / matmul_tn_ref /
// matmul_nt_ref and the bounds-tested im2col / col2im stay as the oracles the
// tests and bench/micro_kernels compare against; no layer calls them.
// Blocked and reference GEMMs agree within a few ULPs, and bitwise
// whenever k <= gemm::kKc: every forward and input-gradient product here.
// Conv dW has k = batch * out_h * out_w (2880 for LeNet conv1 at batch 20),
// past kKc; the bound is pinned by tests/tensor/test_gemm_differential.cpp.

#include <cstddef>
#include <span>

#include "tensor/gemm.hpp"
#include "tensor/tensor.hpp"

namespace fedsched::tensor::ops {

/// Reusable GEMM packing buffers (see tensor/gemm.hpp). Layers own one per
/// instance and pass it to every call, making steady-state training
/// allocation-free inside the GEMMs.
using GemmWorkspace = gemm::Workspace;

/// out[m,n] = a[m,k] * b[k,n]. Shapes are validated. Blocked engine; the
/// workspace overload reuses caller-owned packing buffers.
void matmul(const Tensor& a, const Tensor& b, Tensor& out);
void matmul(const Tensor& a, const Tensor& b, Tensor& out, GemmWorkspace& ws);

/// out[m,n] = a[k,m]^T * b[k,n].
void matmul_tn(const Tensor& a, const Tensor& b, Tensor& out);
void matmul_tn(const Tensor& a, const Tensor& b, Tensor& out, GemmWorkspace& ws);

/// out[m,n] = a[m,k] * b[n,k]^T.
void matmul_nt(const Tensor& a, const Tensor& b, Tensor& out);
void matmul_nt(const Tensor& a, const Tensor& b, Tensor& out, GemmWorkspace& ws);

/// Naive reference kernels (identical contracts to the blocked variants).
void matmul_ref(const Tensor& a, const Tensor& b, Tensor& out);
void matmul_tn_ref(const Tensor& a, const Tensor& b, Tensor& out);
void matmul_nt_ref(const Tensor& a, const Tensor& b, Tensor& out);

/// out[n,m] = in[m,n]^T.
void transpose(const Tensor& in, Tensor& out);

/// out[j * out_stride + i] = in[i * in_stride + j] for i < rows, j < cols:
/// a strided transpose in 4x4 register tiles.
void transpose_block(const float* in, std::size_t in_stride, std::size_t rows,
                     std::size_t cols, float* out, std::size_t out_stride);

/// Add bias[j] to every row of x[i,j] in place.
void add_row_bias(Tensor& x, const Tensor& bias);

/// grad_bias[j] = sum_i grad[i,j].
void sum_rows(const Tensor& grad, Tensor& grad_bias);

struct Conv2dGeometry {
  std::size_t in_channels = 0;
  std::size_t in_h = 0;
  std::size_t in_w = 0;
  std::size_t kernel = 0;   // square kernels only
  std::size_t stride = 1;
  std::size_t pad = 0;

  [[nodiscard]] std::size_t out_h() const noexcept {
    return (in_h + 2 * pad - kernel) / stride + 1;
  }
  [[nodiscard]] std::size_t out_w() const noexcept {
    return (in_w + 2 * pad - kernel) / stride + 1;
  }
  /// Rows of the im2col matrix: one per (channel, ky, kx) triple.
  [[nodiscard]] std::size_t patch_size() const noexcept {
    return in_channels * kernel * kernel;
  }
};

/// Unfold one image (C,H,W flattened) into a [patch_size, out_h*out_w] matrix.
/// A bounds test per element: the reference unfold the branch-free kernels
/// below are checked against.
void im2col(std::span<const float> image, const Conv2dGeometry& geometry, Tensor& columns);

/// Fold a [patch_size, out_h*out_w] matrix back, accumulating into the image.
void col2im(const Tensor& columns, const Conv2dGeometry& geometry,
            std::span<float> image);

// Branch-free unfold and fold (the Conv2d path). They work on a
// zero-bordered copy of one image, [C, H + 2*pad, W + 2*pad] ("padded"), so
// no source coordinate is ever out of range: each unfold row is a run of
// out_w reads at a fixed stride and each fold row a run of out_w adds. The
// bits equal im2col/col2im: the unfold copies the same values (border cells
// are +0, which im2col writes), and the fold adds the same values into every
// pixel in the same (row, oy, ox) order starting from +0; it also adds into
// border cells, which are then dropped.

/// Floats in one padded image.
[[nodiscard]] std::size_t padded_size(const Conv2dGeometry& geometry) noexcept;

/// Write the padded copy of `image` (C*H*W) to `padded` (every cell).
void pad_image(std::span<const float> image, const Conv2dGeometry& geometry,
               float* padded);

/// Unfold a padded image: row r = (c, ky, kx) of its [patch_size, out_h*out_w]
/// matrix lands at columns + r * row_stride. Conv2d unfolds sample s of an
/// N-sample batch at columns + s*out_h*out_w with row_stride N*out_h*out_w,
/// so the batch is one [patch_size, N*out_h*out_w] GEMM operand.
/// (transpose_block turns it into the k-major layout the conv dW GEMM reads
/// in place.)
void unfold_padded(const float* padded, const Conv2dGeometry& geometry, float* columns,
                   std::size_t row_stride);

/// Fold a [patch_size, out_h*out_w] matrix (row r at columns + r * row_stride)
/// into `padded`: zero it, then accumulate in col2im's order.
void fold_padded(const float* columns, std::size_t row_stride,
                 const Conv2dGeometry& geometry, float* padded);

/// Copy the interior of a padded image to `image` (C*H*W).
void crop_image(const float* padded, const Conv2dGeometry& geometry,
                std::span<float> image);

}  // namespace fedsched::tensor::ops
