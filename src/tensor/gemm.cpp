#include "tensor/gemm.hpp"

#include <algorithm>
#include <cstdint>

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#endif

namespace fedsched::tensor::gemm {

namespace {

/// Dispatch overhead dominates below this many MACs; panels then run inline.
/// Inline and pooled execution share chunk boundaries, so the bits agree.
constexpr double kMinMacsForPool = 1.5e6;

/// A GEMM operand: element (r, x) is p[r * rs + seg(x)] with
/// seg(x) = (x / seg_len) * seg_stride + (x % seg_len) * cs. The segmented
/// index x is k for op(A) and n for op(B). A plain strided operand is one
/// segment (seg_len = SIZE_MAX); conv dY in its [n, oc, spatial] batch layout
/// is n segments of `spatial` (k for dW's op(A), n for dX's op(B)).
struct Operand {
  const float* p;
  std::size_t rs;
  std::size_t cs;
  std::size_t seg_len = SIZE_MAX;
  std::size_t seg_stride = 0;

  /// Offset of segmented index x, and how many indices from x on stay in
  /// its segment (contiguous at stride cs).
  [[nodiscard]] std::size_t offset(std::size_t x) const noexcept {
    return (x / seg_len) * seg_stride + (x % seg_len) * cs;
  }
  [[nodiscard]] std::size_t run(std::size_t x) const noexcept {
    return seg_len - x % seg_len;
  }
};

/// Pack the [mc, kc] block of op(A) at (row0, k0) into kMr-tall row strips:
/// strip s stores element (s*kMr + i, p) at dst[(s*kc + p) * kMr + i]. Rows
/// past mc are zero-filled so every strip has the full kMr layout (the
/// row-count-specialized microkernels never read the padding).
void pack_a(std::size_t mc, std::size_t kc, const Operand& a, std::size_t row0,
            std::size_t k0, float* dst) {
  const std::size_t strips = (mc + kMr - 1) / kMr;
  for (std::size_t s = 0; s < strips; ++s) {
    const std::size_t rows = std::min(kMr, mc - s * kMr);
    float* strip = dst + s * kc * kMr;
    const float* row = a.p + (row0 + s * kMr) * a.rs;
    for (std::size_t p = 0; p < kc;) {
      const std::size_t run = std::min(kc - p, a.run(k0 + p));
      const float* src = row + a.offset(k0 + p);
      std::size_t q = 0;
#ifdef __SSE__
      // Full strips of contiguous rows: 4x4 register transposes.
      if (rows == kMr && a.cs == 1) {
        for (; q + 4 <= run; q += 4) {
          __m128 r0 = _mm_loadu_ps(src + q);
          __m128 r1 = _mm_loadu_ps(src + a.rs + q);
          __m128 r2 = _mm_loadu_ps(src + 2 * a.rs + q);
          __m128 r3 = _mm_loadu_ps(src + 3 * a.rs + q);
          _MM_TRANSPOSE4_PS(r0, r1, r2, r3);
          float* cell = strip + (p + q) * kMr;
          _mm_storeu_ps(cell, r0);
          _mm_storeu_ps(cell + kMr, r1);
          _mm_storeu_ps(cell + 2 * kMr, r2);
          _mm_storeu_ps(cell + 3 * kMr, r3);
        }
      }
#endif
      for (; q < run; ++q) {
        float* cell = strip + (p + q) * kMr;
        for (std::size_t i = 0; i < rows; ++i) cell[i] = src[i * a.rs + q * a.cs];
        for (std::size_t i = rows; i < kMr; ++i) cell[i] = 0.0f;
      }
      p += run;
    }
  }
}

/// Pack the [kc, nc] block of op(B) at (k0, n0) into kNr-wide column strips:
/// strip s stores element (p, s*kNr + j) at dst[(s*kc + p) * kNr + j],
/// zero-padded columns. Only needed when B's columns are strided (the NT
/// layout) or segmented, or for the ragged last strip — when they are
/// contiguous the microkernel reads B directly.
void pack_b(std::size_t kc, std::size_t nc, const Operand& b, std::size_t k0,
            std::size_t n0, float* dst) {
  const std::size_t strips = (nc + kNr - 1) / kNr;
  const float* block = b.p + k0 * b.rs;
  for (std::size_t s = 0; s < strips; ++s) {
    const std::size_t cols = std::min(kNr, nc - s * kNr);
    const std::size_t x0 = n0 + s * kNr;
    float* strip = dst + s * kc * kNr;
    if (b.run(x0) >= cols) {
      // The strip lies in one segment (always, for a plain operand).
      const float* src = block + b.offset(x0);
      for (std::size_t p = 0; p < kc; ++p) {
        float* cell = strip + p * kNr;
        for (std::size_t j = 0; j < cols; ++j) cell[j] = src[p * b.rs + j * b.cs];
        for (std::size_t j = cols; j < kNr; ++j) cell[j] = 0.0f;
      }
    } else {
      std::size_t offset[kNr];
      for (std::size_t j = 0; j < cols; ++j) offset[j] = b.offset(x0 + j);
      for (std::size_t p = 0; p < kc; ++p) {
        float* cell = strip + p * kNr;
        const float* row = block + p * b.rs;
        for (std::size_t j = 0; j < cols; ++j) cell[j] = row[offset[j]];
        for (std::size_t j = cols; j < kNr; ++j) cell[j] = 0.0f;
      }
    }
  }
}

// --- microkernels ------------------------------------------------------------
//
// A sweep kernel computes `nstrips` consecutive kNr-wide C strips for one
// packed kMr-tall A strip: for each strip sn, c[R][0..kNr) (+)= Ap * B_sn over
// kc, k ascending. B strip sn starts at bp + sn * bstep with row stride
// bstride; that one addressing scheme covers both B forms:
//   - packed strips:  bstep = kc * kNr, bstride = kNr;
//   - B read in place (contiguous columns): bstep = kNr, bstride = b_rs.
// C strip sn starts at c + sn * kNr with row stride ldc (directly into C for
// full-width strips; the ragged tail uses nstrips == 1 into a stack tile).
// `accumulate` folds into existing C (later k blocks): C loads first, then
// products add in k-ascending order. Sweeping strips inside the kernel
// amortizes the indirect call over a whole panel row — the small-k conv
// shapes are call-overhead bound otherwise.
//
// One definition per row count R in [1, kMr] so m-edge strips never burn
// multiplies on padded rows, stamped twice: a portable scalar build and — on
// x86 with GCC/clang — a hand-vectorized AVX build selected at runtime. The
// AVX kernels use separate mul and add intrinsics under a target("avx")
// attribute (no FMA in the ISA, so no contraction is possible), performing
// exactly the same per-element float operations in the same order as the
// scalar build — results are bit-identical across ISAs; wider registers only
// change how many lanes compute at once.

// acc/c never alias the operands; saying so lets the compiler keep the whole
// tile in registers across the k loop.
#if defined(__GNUC__) || defined(__clang__)
#define RESTRICT __restrict__
#else
#define RESTRICT
#endif

using SweepKernelFn = void (*)(std::size_t kc, const float* RESTRICT ap,
                               const float* RESTRICT bp, std::size_t bstride,
                               std::size_t bstep, float* RESTRICT c,
                               std::size_t ldc, std::size_t nstrips,
                               bool accumulate);

#define FEDSCHED_DEFINE_BASE_KERNEL(NAME, R)                               \
  void NAME(std::size_t kc, const float* RESTRICT ap,                      \
            const float* RESTRICT bp, std::size_t bstride,                 \
            std::size_t bstep, float* RESTRICT c, std::size_t ldc,         \
            std::size_t nstrips, bool accumulate) {                        \
    for (std::size_t sn = 0; sn < nstrips; ++sn) {                         \
      const float* RESTRICT bs = bp + sn * bstep;                          \
      float* RESTRICT cs = c + sn * kNr;                                   \
      float acc[(R) * kNr];                                                \
      for (std::size_t i = 0; i < (R); ++i) {                              \
        for (std::size_t j = 0; j < kNr; ++j) {                            \
          acc[i * kNr + j] = accumulate ? cs[i * ldc + j] : 0.0f;          \
        }                                                                  \
      }                                                                    \
      for (std::size_t p = 0; p < kc; ++p) {                               \
        const float* bv = bs + p * bstride;                                \
        for (std::size_t i = 0; i < (R); ++i) {                            \
          const float ai = ap[p * kMr + i];                                \
          float* row = acc + i * kNr;                                      \
          for (std::size_t j = 0; j < kNr; ++j) row[j] += ai * bv[j];      \
        }                                                                  \
      }                                                                    \
      for (std::size_t i = 0; i < (R); ++i) {                              \
        for (std::size_t j = 0; j < kNr; ++j) {                            \
          cs[i * ldc + j] = acc[i * kNr + j];                              \
        }                                                                  \
      }                                                                    \
    }                                                                      \
  }

FEDSCHED_DEFINE_BASE_KERNEL(micro_base_1, 1)
FEDSCHED_DEFINE_BASE_KERNEL(micro_base_2, 2)
FEDSCHED_DEFINE_BASE_KERNEL(micro_base_3, 3)
FEDSCHED_DEFINE_BASE_KERNEL(micro_base_4, 4)
#undef FEDSCHED_DEFINE_BASE_KERNEL
static_assert(kMr == 4, "microkernel table covers rows 1..4");
static_assert(kNr == 16, "microkernels hold two 8-lane vectors per row");

constexpr SweepKernelFn kBaseKernels[kMr] = {micro_base_1, micro_base_2,
                                             micro_base_3, micro_base_4};

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define FEDSCHED_HAS_AVX_DISPATCH 1

#define FEDSCHED_DEFINE_AVX_KERNEL(NAME, R)                                \
  __attribute__((target("avx"))) void NAME(                                \
      std::size_t kc, const float* RESTRICT ap, const float* RESTRICT bp,  \
      std::size_t bstride, std::size_t bstep, float* RESTRICT c,           \
      std::size_t ldc, std::size_t nstrips, bool accumulate) {             \
    for (std::size_t sn = 0; sn < nstrips; ++sn) {                         \
      const float* RESTRICT bs = bp + sn * bstep;                          \
      float* RESTRICT cs = c + sn * kNr;                                   \
      __m256 acc[(R)][2];                                                  \
      for (std::size_t i = 0; i < (R); ++i) {                              \
        if (accumulate) {                                                  \
          acc[i][0] = _mm256_loadu_ps(cs + i * ldc);                       \
          acc[i][1] = _mm256_loadu_ps(cs + i * ldc + 8);                   \
        } else {                                                           \
          acc[i][0] = _mm256_setzero_ps();                                 \
          acc[i][1] = _mm256_setzero_ps();                                 \
        }                                                                  \
      }                                                                    \
      for (std::size_t p = 0; p < kc; ++p) {                               \
        const float* RESTRICT bv = bs + p * bstride;                       \
        const __m256 b0 = _mm256_loadu_ps(bv);                             \
        const __m256 b1 = _mm256_loadu_ps(bv + 8);                         \
        for (std::size_t i = 0; i < (R); ++i) {                            \
          const __m256 ai = _mm256_broadcast_ss(ap + p * kMr + i);         \
          acc[i][0] = _mm256_add_ps(acc[i][0], _mm256_mul_ps(ai, b0));     \
          acc[i][1] = _mm256_add_ps(acc[i][1], _mm256_mul_ps(ai, b1));     \
        }                                                                  \
      }                                                                    \
      for (std::size_t i = 0; i < (R); ++i) {                              \
        _mm256_storeu_ps(cs + i * ldc, acc[i][0]);                         \
        _mm256_storeu_ps(cs + i * ldc + 8, acc[i][1]);                     \
      }                                                                    \
    }                                                                      \
  }

FEDSCHED_DEFINE_AVX_KERNEL(micro_avx_1, 1)
FEDSCHED_DEFINE_AVX_KERNEL(micro_avx_2, 2)
FEDSCHED_DEFINE_AVX_KERNEL(micro_avx_3, 3)
FEDSCHED_DEFINE_AVX_KERNEL(micro_avx_4, 4)
#undef FEDSCHED_DEFINE_AVX_KERNEL

constexpr SweepKernelFn kAvxKernels[kMr] = {micro_avx_1, micro_avx_2, micro_avx_3,
                                            micro_avx_4};
#endif

/// Microkernel table for this host, picked once per process.
const SweepKernelFn* active_kernels() {
#ifdef FEDSCHED_HAS_AVX_DISPATCH
  static const SweepKernelFn* const table =
      __builtin_cpu_supports("avx") ? kAvxKernels : kBaseKernels;
  return table;
#else
  return kBaseKernels;
#endif
}

/// One column panel [n0, n1) of the product: packs its own operand slices and
/// writes only its own C columns, so panels are fully independent.
void run_panel(std::size_t m, std::size_t n, std::size_t k, std::size_t n0,
               std::size_t n1, const Operand& a, const Operand& b, float* c,
               Workspace::Buffers& buf) {
  const SweepKernelFn* kernels = active_kernels();
  const std::size_t nc = n1 - n0;
  const std::size_t nstrips = (nc + kNr - 1) / kNr;
  const std::size_t kc_max = std::min(k, kKc);
  // Contiguous B columns (NN/TN layouts): read B in place and pack only the
  // ragged last strip. Strided or segmented columns: pack the whole panel.
  const bool direct_b = b.cs == 1 && b.seg_len == SIZE_MAX;
  const std::size_t tail_cols = nc % kNr;
  const std::size_t full_strips = nc / kNr;
  // Rows padded past n with room for a whole strip: the ragged strip is read
  // in place too (its extra columns land in the stack tile and are dropped).
  const bool tail_in_place = direct_b && n0 + (full_strips + 1) * kNr <= b.rs;
  buf.b_pack.resize((direct_b ? 1 : nstrips) * kNr * kc_max);
  buf.a_pack.resize(((std::min(m, kMc) + kMr - 1) / kMr) * kMr * kc_max);

  for (std::size_t pk = 0; pk < k; pk += kKc) {
    const std::size_t kc = std::min(kKc, k - pk);
    const bool first_k_block = pk == 0;
    if (direct_b) {
      if (tail_cols != 0 && !tail_in_place) {
        pack_b(kc, tail_cols, b, pk, n0 + full_strips * kNr, buf.b_pack.data());
      }
    } else {
      pack_b(kc, nc, b, pk, n0, buf.b_pack.data());
    }
    // Full-width strips: one sweep-kernel call covers them all.
    const float* bfull = direct_b ? b.p + pk * b.rs + n0 : buf.b_pack.data();
    const std::size_t bstride = direct_b ? b.rs : kNr;
    const std::size_t bstep = direct_b ? kNr : kc * kNr;
    // Ragged tail strip: packed (zero-padded to kNr columns) unless read in place.
    const float* btail =
        tail_in_place ? bfull + full_strips * kNr
        : direct_b    ? buf.b_pack.data()
                      : buf.b_pack.data() + full_strips * kc * kNr;
    const std::size_t tail_stride = tail_in_place ? b.rs : kNr;

    for (std::size_t pm = 0; pm < m; pm += kMc) {
      const std::size_t mc = std::min(kMc, m - pm);
      const std::size_t mstrips = (mc + kMr - 1) / kMr;
      pack_a(mc, kc, a, pm, pk, buf.a_pack.data());

      for (std::size_t sm = 0; sm < mstrips; ++sm) {
        const std::size_t rows = std::min(kMr, mc - sm * kMr);
        const float* ap = buf.a_pack.data() + sm * kc * kMr;
        float* crow = c + (pm + sm * kMr) * n + n0;
        if (full_strips != 0) {
          kernels[rows - 1](kc, ap, bfull, bstride, bstep, crow, n, full_strips,
                            !first_k_block);
        }
        if (tail_cols != 0) {
          // Compute into a stack tile (the kernel always stores kNr-wide
          // rows), then copy/fold only the real columns.
          float tile[kMr * kNr];
          kernels[rows - 1](kc, ap, btail, tail_stride, 0, tile, kNr, 1, false);
          float* cbase = crow + full_strips * kNr;
          if (first_k_block) {
            for (std::size_t i = 0; i < rows; ++i) {
              for (std::size_t j = 0; j < tail_cols; ++j) {
                cbase[i * n + j] = tile[i * kNr + j];
              }
            }
          } else {
            for (std::size_t i = 0; i < rows; ++i) {
              for (std::size_t j = 0; j < tail_cols; ++j) {
                cbase[i * n + j] += tile[i * kNr + j];
              }
            }
          }
        }
      }
    }
  }
}

void run_gemm(std::size_t m, std::size_t n, std::size_t k, const Operand& a,
              const Operand& b, float* c, Workspace* ws, common::ThreadPool* pool) {
  if (m == 0 || n == 0) return;
  if (k == 0) {
    std::fill(c, c + m * n, 0.0f);
    return;
  }
  const std::size_t panels = panel_count(n);
  Workspace local;
  Workspace& w = ws ? *ws : local;
  w.ensure(panels);

  const double macs = static_cast<double>(m) * static_cast<double>(n) *
                      static_cast<double>(k);
  common::parallel_for_chunks(macs >= kMinMacsForPool ? pool : nullptr, 0, n, panels,
                              [&](std::size_t idx, std::size_t lo, std::size_t hi) {
                                run_panel(m, n, k, lo, hi, a, b, c, w.slot(idx));
                              });
}

}  // namespace

std::size_t panel_count(std::size_t n) noexcept {
  return n == 0 ? 0 : common::ThreadPool::grain_chunks(n, kNc);
}

void gemm(std::size_t m, std::size_t n, std::size_t k, const float* a,
          std::size_t a_rs, std::size_t a_cs, const float* b, std::size_t b_rs,
          std::size_t b_cs, float* c, Workspace* ws, common::ThreadPool* pool) {
  run_gemm(m, n, k, {a, a_rs, a_cs}, {b, b_rs, b_cs}, c, ws, pool);
}

void gemm_conv_dw(std::size_t m, std::size_t n, std::size_t k, const float* dy,
                  std::size_t spatial, const float* cols_kmajor, std::size_t ldb,
                  float* c, Workspace* ws, common::ThreadPool* pool) {
  run_gemm(m, n, k, {dy, spatial, 1, spatial, m * spatial}, {cols_kmajor, ldb, 1}, c,
           ws, pool);
}

void gemm_conv_dx(std::size_t m, std::size_t n, std::size_t k, const float* weight,
                  const float* dy, std::size_t spatial, float* c, Workspace* ws,
                  common::ThreadPool* pool) {
  run_gemm(m, n, k, {weight, 1, m}, {dy, spatial, 1, spatial, k * spatial}, c, ws, pool);
}

}  // namespace fedsched::tensor::gemm
