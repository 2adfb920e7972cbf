#include "tensor/ops.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/thread_pool.hpp"

#ifdef __SSE__
#include <xmmintrin.h>
#endif

namespace fedsched::tensor::ops {

namespace {
void require(bool condition, const char* what) {
  if (!condition) throw std::invalid_argument(what);
}

struct GemmDims {
  std::size_t m, k, n;
};

GemmDims check_nn(const Tensor& a, const Tensor& b, const Tensor& out,
                  const char* who) {
  require(a.rank() == 2 && b.rank() == 2 && out.rank() == 2, who);
  const GemmDims d{a.dim(0), a.dim(1), b.dim(1)};
  require(b.dim(0) == d.k, who);
  require(out.dim(0) == d.m && out.dim(1) == d.n, who);
  return d;
}

GemmDims check_tn(const Tensor& a, const Tensor& b, const Tensor& out,
                  const char* who) {
  require(a.rank() == 2 && b.rank() == 2 && out.rank() == 2, who);
  const GemmDims d{a.dim(1), a.dim(0), b.dim(1)};
  require(b.dim(0) == d.k, who);
  require(out.dim(0) == d.m && out.dim(1) == d.n, who);
  return d;
}

GemmDims check_nt(const Tensor& a, const Tensor& b, const Tensor& out,
                  const char* who) {
  require(a.rank() == 2 && b.rank() == 2 && out.rank() == 2, who);
  const GemmDims d{a.dim(0), a.dim(1), b.dim(0)};
  require(b.dim(1) == d.k, who);
  require(out.dim(0) == d.m && out.dim(1) == d.n, who);
  return d;
}

/// dst[0, n) = src[0, n) for the short rows of the unfold and fold (a few
/// floats each): four at a time, with no library call per row.
inline void copy_row(const float* src, std::size_t n, float* dst) {
#ifdef __SSE__
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) _mm_storeu_ps(dst + i, _mm_loadu_ps(src + i));
  switch (n - i) {
    case 3: dst[i + 2] = src[i + 2]; [[fallthrough]];
    case 2: dst[i + 1] = src[i + 1]; [[fallthrough]];
    case 1: dst[i] = src[i]; break;
    default: break;
  }
#else
  std::copy_n(src, n, dst);
#endif
}

/// dst[i] += src[i] for i < n, four lanes at a time (each lane is one add,
/// so the bits match the scalar loop).
inline void add_row(const float* src, std::size_t n, float* dst) {
  std::size_t i = 0;
#ifdef __SSE__
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(dst + i, _mm_add_ps(_mm_loadu_ps(dst + i), _mm_loadu_ps(src + i)));
  }
#endif
  for (; i < n; ++i) dst[i] += src[i];
}

}  // namespace

// --- blocked GEMM family -----------------------------------------------------

void matmul(const Tensor& a, const Tensor& b, Tensor& out, GemmWorkspace& ws) {
  const GemmDims d = check_nn(a, b, out, "matmul: bad shapes");
  gemm::gemm(d.m, d.n, d.k, a.raw(), d.k, 1, b.raw(), d.n, 1, out.raw(), &ws,
             &common::global_pool());
}

void matmul(const Tensor& a, const Tensor& b, Tensor& out) {
  const GemmDims d = check_nn(a, b, out, "matmul: bad shapes");
  gemm::gemm(d.m, d.n, d.k, a.raw(), d.k, 1, b.raw(), d.n, 1, out.raw(), nullptr,
             &common::global_pool());
}

void matmul_tn(const Tensor& a, const Tensor& b, Tensor& out, GemmWorkspace& ws) {
  const GemmDims d = check_tn(a, b, out, "matmul_tn: bad shapes");
  // op(A) = A^T: element (i, kk) of the product operand is a[kk * m + i].
  gemm::gemm(d.m, d.n, d.k, a.raw(), 1, d.m, b.raw(), d.n, 1, out.raw(), &ws,
             &common::global_pool());
}

void matmul_tn(const Tensor& a, const Tensor& b, Tensor& out) {
  const GemmDims d = check_tn(a, b, out, "matmul_tn: bad shapes");
  gemm::gemm(d.m, d.n, d.k, a.raw(), 1, d.m, b.raw(), d.n, 1, out.raw(), nullptr,
             &common::global_pool());
}

void matmul_nt(const Tensor& a, const Tensor& b, Tensor& out, GemmWorkspace& ws) {
  const GemmDims d = check_nt(a, b, out, "matmul_nt: bad shapes");
  // op(B) = B^T: element (kk, j) of the product operand is b[j * k + kk].
  gemm::gemm(d.m, d.n, d.k, a.raw(), d.k, 1, b.raw(), 1, d.k, out.raw(), &ws,
             &common::global_pool());
}

void matmul_nt(const Tensor& a, const Tensor& b, Tensor& out) {
  const GemmDims d = check_nt(a, b, out, "matmul_nt: bad shapes");
  gemm::gemm(d.m, d.n, d.k, a.raw(), d.k, 1, b.raw(), 1, d.k, out.raw(), nullptr,
             &common::global_pool());
}

// --- naive reference family --------------------------------------------------

void matmul_ref(const Tensor& a, const Tensor& b, Tensor& out) {
  const GemmDims d = check_nn(a, b, out, "matmul_ref: bad shapes");
  const std::size_t m = d.m, k = d.k, n = d.n;

  const float* pa = a.raw();
  const float* pb = b.raw();
  float* po = out.raw();
  out.zero();
  // i-k-j loop order keeps the innermost accesses contiguous in b and out.
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float aik = pa[i * k + kk];
      if (aik == 0.0f) continue;
      const float* brow = pb + kk * n;
      float* orow = po + i * n;
      for (std::size_t j = 0; j < n; ++j) orow[j] += aik * brow[j];
    }
  }
}

void matmul_tn_ref(const Tensor& a, const Tensor& b, Tensor& out) {
  const GemmDims d = check_tn(a, b, out, "matmul_tn_ref: bad shapes");
  const std::size_t m = d.m, k = d.k, n = d.n;

  const float* pa = a.raw();
  const float* pb = b.raw();
  float* po = out.raw();
  out.zero();
  for (std::size_t kk = 0; kk < k; ++kk) {
    const float* arow = pa + kk * m;
    const float* brow = pb + kk * n;
    for (std::size_t i = 0; i < m; ++i) {
      const float aki = arow[i];
      if (aki == 0.0f) continue;
      float* orow = po + i * n;
      for (std::size_t j = 0; j < n; ++j) orow[j] += aki * brow[j];
    }
  }
}

void matmul_nt_ref(const Tensor& a, const Tensor& b, Tensor& out) {
  const GemmDims d = check_nt(a, b, out, "matmul_nt_ref: bad shapes");
  const std::size_t m = d.m, k = d.k, n = d.n;

  const float* pa = a.raw();
  const float* pb = b.raw();
  float* po = out.raw();
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = pa + i * k;
    float* orow = po + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const float* brow = pb + j * k;
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
      orow[j] = acc;
    }
  }
}

// --- misc kernels ------------------------------------------------------------

void transpose(const Tensor& in, Tensor& out) {
  require(in.rank() == 2 && out.rank() == 2, "transpose: rank != 2");
  const std::size_t m = in.dim(0), n = in.dim(1);
  require(out.dim(0) == n && out.dim(1) == m, "transpose: bad output shape");
  transpose_block(in.raw(), n, m, n, out.raw(), m);
}

void transpose_block(const float* in, std::size_t in_stride, std::size_t rows,
                     std::size_t cols, float* out, std::size_t out_stride) {
  std::size_t i = 0;
#ifdef __SSE__
  for (; i + 4 <= rows; i += 4) {
    const float* src = in + i * in_stride;
    std::size_t j = 0;
    for (; j + 4 <= cols; j += 4) {
      __m128 r0 = _mm_loadu_ps(src + j);
      __m128 r1 = _mm_loadu_ps(src + in_stride + j);
      __m128 r2 = _mm_loadu_ps(src + 2 * in_stride + j);
      __m128 r3 = _mm_loadu_ps(src + 3 * in_stride + j);
      _MM_TRANSPOSE4_PS(r0, r1, r2, r3);
      float* dst = out + j * out_stride + i;
      _mm_storeu_ps(dst, r0);
      _mm_storeu_ps(dst + out_stride, r1);
      _mm_storeu_ps(dst + 2 * out_stride, r2);
      _mm_storeu_ps(dst + 3 * out_stride, r3);
    }
    for (; j < cols; ++j) {
      for (std::size_t r = 0; r < 4; ++r) out[j * out_stride + i + r] = src[r * in_stride + j];
    }
  }
#endif
  for (; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) out[j * out_stride + i] = in[i * in_stride + j];
  }
}

void add_row_bias(Tensor& x, const Tensor& bias) {
  require(x.rank() == 2 && bias.rank() == 1, "add_row_bias: bad ranks");
  const std::size_t m = x.dim(0), n = x.dim(1);
  require(bias.dim(0) == n, "add_row_bias: bias size mismatch");
  float* px = x.raw();
  const float* pb = bias.raw();
  for (std::size_t i = 0; i < m; ++i) {
    float* row = px + i * n;
    for (std::size_t j = 0; j < n; ++j) row[j] += pb[j];
  }
}

void sum_rows(const Tensor& grad, Tensor& grad_bias) {
  require(grad.rank() == 2 && grad_bias.rank() == 1, "sum_rows: bad ranks");
  const std::size_t m = grad.dim(0), n = grad.dim(1);
  require(grad_bias.dim(0) == n, "sum_rows: size mismatch");
  grad_bias.zero();
  const float* pg = grad.raw();
  float* pb = grad_bias.raw();
  for (std::size_t i = 0; i < m; ++i) {
    const float* row = pg + i * n;
    for (std::size_t j = 0; j < n; ++j) pb[j] += row[j];
  }
}

// --- im2col / col2im ---------------------------------------------------------

void im2col(std::span<const float> image, const Conv2dGeometry& g, Tensor& columns) {
  const std::size_t oh = g.out_h(), ow = g.out_w();
  require(image.size() == g.in_channels * g.in_h * g.in_w, "im2col: image size mismatch");
  require(columns.rank() == 2 && columns.dim(0) == g.patch_size() &&
              columns.dim(1) == oh * ow,
          "im2col: bad columns shape");
  float* dst = columns.raw();
  for (std::size_t c = 0; c < g.in_channels; ++c) {
    const float* plane = image.data() + c * g.in_h * g.in_w;
    for (std::size_t ky = 0; ky < g.kernel; ++ky) {
      for (std::size_t kx = 0; kx < g.kernel; ++kx, dst += oh * ow) {
        for (std::size_t oy = 0; oy < oh; ++oy) {
          // Signed arithmetic: padding can take source coordinates negative.
          const long long iy =
              static_cast<long long>(oy * g.stride + ky) - static_cast<long long>(g.pad);
          for (std::size_t ox = 0; ox < ow; ++ox) {
            const long long ix = static_cast<long long>(ox * g.stride + kx) -
                                 static_cast<long long>(g.pad);
            const bool inside = iy >= 0 && iy < static_cast<long long>(g.in_h) &&
                                ix >= 0 && ix < static_cast<long long>(g.in_w);
            dst[oy * ow + ox] =
                inside ? plane[static_cast<std::size_t>(iy) * g.in_w +
                               static_cast<std::size_t>(ix)]
                       : 0.0f;
          }
        }
      }
    }
  }
}

void col2im(const Tensor& columns, const Conv2dGeometry& g, std::span<float> image) {
  const std::size_t oh = g.out_h(), ow = g.out_w();
  require(image.size() == g.in_channels * g.in_h * g.in_w, "col2im: image size mismatch");
  require(columns.rank() == 2 && columns.dim(0) == g.patch_size() &&
              columns.dim(1) == oh * ow,
          "col2im: bad columns shape");
  const float* src = columns.raw();
  for (std::size_t c = 0; c < g.in_channels; ++c) {
    float* plane = image.data() + c * g.in_h * g.in_w;
    for (std::size_t ky = 0; ky < g.kernel; ++ky) {
      for (std::size_t kx = 0; kx < g.kernel; ++kx, src += oh * ow) {
        for (std::size_t oy = 0; oy < oh; ++oy) {
          const long long iy =
              static_cast<long long>(oy * g.stride + ky) - static_cast<long long>(g.pad);
          if (iy < 0 || iy >= static_cast<long long>(g.in_h)) continue;
          for (std::size_t ox = 0; ox < ow; ++ox) {
            const long long ix = static_cast<long long>(ox * g.stride + kx) -
                                 static_cast<long long>(g.pad);
            if (ix < 0 || ix >= static_cast<long long>(g.in_w)) continue;
            plane[static_cast<std::size_t>(iy) * g.in_w + static_cast<std::size_t>(ix)] +=
                src[oy * ow + ox];
          }
        }
      }
    }
  }
}

// --- branch-free unfold / fold ----------------------------------------------

std::size_t padded_size(const Conv2dGeometry& g) noexcept {
  return g.in_channels * (g.in_h + 2 * g.pad) * (g.in_w + 2 * g.pad);
}

void pad_image(std::span<const float> image, const Conv2dGeometry& g, float* padded) {
  const std::size_t wp = g.in_w + 2 * g.pad;
  std::fill_n(padded, padded_size(g), 0.0f);
  const float* src = image.data();
  float* dst = padded + g.pad * wp + g.pad;
  for (std::size_t c = 0; c < g.in_channels; ++c, dst += 2 * g.pad * wp) {
    for (std::size_t y = 0; y < g.in_h; ++y, src += g.in_w, dst += wp) {
      copy_row(src, g.in_w, dst);
    }
  }
}

void unfold_padded(const float* padded, const Conv2dGeometry& g, float* columns,
                   std::size_t row_stride) {
  const std::size_t oh = g.out_h(), ow = g.out_w();
  const std::size_t hp = g.in_h + 2 * g.pad, wp = g.in_w + 2 * g.pad;
  const std::size_t st = g.stride;
  float* dst = columns;
  for (std::size_t c = 0; c < g.in_channels; ++c) {
    const float* plane = padded + c * hp * wp;
    for (std::size_t ky = 0; ky < g.kernel; ++ky) {
      for (std::size_t kx = 0; kx < g.kernel; ++kx, dst += row_stride) {
        const float* src = plane + ky * wp + kx;
        float* out = dst;
        for (std::size_t oy = 0; oy < oh; ++oy, src += st * wp, out += ow) {
          if (st == 1) {
            copy_row(src, ow, out);
          } else {
            for (std::size_t ox = 0; ox < ow; ++ox) out[ox] = src[ox * st];
          }
        }
      }
    }
  }
}

void fold_padded(const float* columns, std::size_t row_stride, const Conv2dGeometry& g,
                 float* padded) {
  const std::size_t oh = g.out_h(), ow = g.out_w();
  const std::size_t hp = g.in_h + 2 * g.pad, wp = g.in_w + 2 * g.pad;
  const std::size_t st = g.stride;
  std::fill_n(padded, g.in_channels * hp * wp, 0.0f);
  const float* row = columns;
  for (std::size_t c = 0; c < g.in_channels; ++c) {
    float* plane = padded + c * hp * wp;
    for (std::size_t ky = 0; ky < g.kernel; ++ky) {
      for (std::size_t kx = 0; kx < g.kernel; ++kx, row += row_stride) {
        const float* src = row;
        float* dst = plane + ky * wp + kx;
        for (std::size_t oy = 0; oy < oh; ++oy, src += ow, dst += st * wp) {
          if (st == 1) {
            add_row(src, ow, dst);
          } else {
            for (std::size_t ox = 0; ox < ow; ++ox) dst[ox * st] += src[ox];
          }
        }
      }
    }
  }
}

void crop_image(const float* padded, const Conv2dGeometry& g, std::span<float> image) {
  const std::size_t wp = g.in_w + 2 * g.pad;
  const float* src = padded + g.pad * wp + g.pad;
  float* dst = image.data();
  for (std::size_t c = 0; c < g.in_channels; ++c, src += 2 * g.pad * wp) {
    for (std::size_t y = 0; y < g.in_h; ++y, src += wp, dst += g.in_w) {
      copy_row(src, g.in_w, dst);
    }
  }
}

}  // namespace fedsched::tensor::ops
