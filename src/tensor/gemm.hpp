#pragma once
// Cache-blocked, register-tiled single-precision GEMM engine.
//
// The nn layers spend nearly all their time in three GEMM variants (N·N,
// Tᴺ·N, N·Tᴺ). This engine serves all three through one strided interface:
// the caller describes op(A) and op(B) with (row, column) element strides, so
// a transposed operand is just a swapped stride pair — packing normalizes the
// layout before any arithmetic happens.
//
// Blocking scheme (BLIS-style, shrunk to the small-m / huge-n shapes the
// batch-level im2col path produces):
//   - the n dimension splits into panels of at most kNc columns; panels are
//     the unit of parallelism (disjoint output columns, no reductions);
//   - the k dimension splits into blocks of at most kKc; when op(B)'s columns
//     are contiguous (b_cs == 1: the NN/TN layouts) the kernels read B in
//     place and only the ragged last strip is packed (not even that when
//     B's rows are padded to whole strips); otherwise (NT, or conv dY's
//     per-sample segments) each block packs a [kc, panel] slice of op(B)
//     into kNr-wide column strips;
//   - the m dimension splits into blocks of at most kMc; each block packs a
//     [mc, kc] slice of op(A) into kMr-tall row strips;
//   - a kMr x kNr register-tile microkernel sweeps all full-width column
//     strips of a panel in a single call (amortizing dispatch overhead on the
//     small-k conv shapes), stamped per row count 1..kMr so m-edge strips do
//     no padded-row work, in two builds selected once at startup: a portable
//     scalar build and a hand-vectorized AVX build (separate mul/add — no
//     FMA, so both builds perform identical per-element float ops in the
//     same order and produce bit-identical results).
//
// Determinism contract: the panel boundaries are a pure function of n (never
// of the pool width), each panel writes a disjoint column range of C, and the
// k-accumulation order inside a panel is fixed — so the result is
// bit-identical run-to-run at any pool width, including fully serial. When
// k <= kKc (a single k block) every element is one sequential sum from +0 in
// k order, which matches the naive reference kernels and does not depend on
// how m and n are blocked. That covers every layer's forward and input-
// gradient product, but not conv dW, whose k is batch * out_h * out_w (2880
// for LeNet conv1 and 5120 for VGG6 conv1 at batch 20). Past kKc the
// full-width strips keep one sequential sum, while the ragged last strip sums
// each k block from +0 and adds the block sums in order, ((s0 + s1) + s2);
// that grouping may differ from the reference by a few ULPs
// (tests/tensor/test_gemm_differential.cpp pins the bound).
//
// Workspace: packing buffers follow the repo's caller-allocates contract —
// the training layers own one Workspace per layer and reuse it across
// batches, so steady-state training performs no GEMM-related allocation.

#include <cstddef>
#include <vector>

#include "common/thread_pool.hpp"

namespace fedsched::tensor::gemm {

/// Microkernel tile: kMr rows by kNr columns of C held in registers.
inline constexpr std::size_t kMr = 4;
inline constexpr std::size_t kNr = 16;
/// Cache blocks. kKc bounds the packed-A strip (kMc*kKc floats ~ L2) and is
/// larger than every forward and input-gradient k this repo's layers
/// produce, so those products match the reference kernels exactly (conv dW's
/// k exceeds it; see the determinism contract above).
inline constexpr std::size_t kMc = 64;
inline constexpr std::size_t kKc = 1024;
/// Column-panel width: the unit of (deterministic) parallelism.
inline constexpr std::size_t kNc = 384;

/// Reusable packing buffers. Each concurrent panel needs its own pair, so the
/// workspace holds one slot per panel index; ensure() grows the slot table
/// *before* the parallel region (never during it).
class Workspace {
 public:
  struct Buffers {
    std::vector<float> a_pack;
    std::vector<float> b_pack;
  };

  /// Grow to at least `count` slots (no-op when already large enough).
  void ensure(std::size_t count) {
    if (slots_.size() < count) slots_.resize(count);
  }
  [[nodiscard]] Buffers& slot(std::size_t i) { return slots_[i]; }
  [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }

 private:
  std::vector<Buffers> slots_;
};

/// C[m,n] = op(A)[m,k] * op(B)[k,n], C row-major and fully overwritten.
/// Element (i, kk) of op(A) is a[i * a_rs + kk * a_cs]; element (kk, j) of
/// op(B) is b[kk * b_rs + j * b_cs]. `ws` may be null (a local workspace is
/// used); `pool` may be null (panels run inline on the caller). Both choices
/// are invisible in the output bits.
void gemm(std::size_t m, std::size_t n, std::size_t k, const float* a,
          std::size_t a_rs, std::size_t a_cs, const float* b, std::size_t b_rs,
          std::size_t b_cs, float* c, Workspace* ws, common::ThreadPool* pool);

// The two conv backward products read dY in its [N, out_c, spatial] batch
// layout: its per-sample blocks are the segments of one long operand, which
// the packing walks in place (no gather into [out_c, N * spatial]). Blocking,
// packing and therefore every output bit equal gemm() on the gathered dY.

/// dW: c[m, n] = dY[m, k] * cols[n, k]^T for m = out_c, n = patch_size,
/// k = N * spatial, with dY in batch layout and the unfolded columns k-major
/// (row kk at cols_kmajor + kk * ldb, ldb >= n), so op(B) is read in place.
/// With ldb = kmajor_stride(n) the ragged last column strip is read in place
/// as well; the padding columns must hold finite values (they are computed
/// and dropped).
void gemm_conv_dw(std::size_t m, std::size_t n, std::size_t k, const float* dy,
                  std::size_t spatial, const float* cols_kmajor, std::size_t ldb,
                  float* c, Workspace* ws, common::ThreadPool* pool);

/// n rounded up to whole kNr-wide strips: the row stride that lets
/// gemm_conv_dw read every strip of a k-major operand in place.
[[nodiscard]] constexpr std::size_t kmajor_stride(std::size_t n) noexcept {
  return (n + kNr - 1) / kNr * kNr;
}

/// dX columns: c[m, n] = W[k, m]^T * dY[k, n] for m = patch_size,
/// n = N * spatial, k = out_c, with dY in batch layout.
void gemm_conv_dx(std::size_t m, std::size_t n, std::size_t k, const float* weight,
                  const float* dy, std::size_t spatial, float* c, Workspace* ws,
                  common::ThreadPool* pool);

/// Number of column panels gemm() uses for an n-column product — exposed so
/// callers can pre-size a Workspace: a pure function of n.
[[nodiscard]] std::size_t panel_count(std::size_t n) noexcept;

}  // namespace fedsched::tensor::gemm
