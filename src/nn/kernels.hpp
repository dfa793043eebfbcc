// Backend-templated matmul row kernels, shared by the Tensor entry points
// in tensor.cpp (instantiated on the build's default SIMD backend) and by
// the backend-equivalence tests (which instantiate every backend compiled
// into the binary and assert bit-identical outputs).
//
// Vectorisation layout: lanes are *output columns* (j). All kernels
// accumulate each output element (i, j) in ascending kk order whatever the
// lane width or register blocking, so a vector lane computes exactly the
// chain the scalar backend computes for that column. Multiply-accumulate
// goes through util::simd's madd (fused iff the target has fast hardware
// FMA, in scalar and vector code alike), so scalar tails agree with
// vector bodies and the scalar backend agrees with both.
#pragma once

#include <algorithm>
#include <cstddef>
#include <type_traits>

#include "util/simd.hpp"

namespace dtmsv::nn::kernels {

// Cache tiles for the blocked kernels. The b-tile (kTileK x kTileJ floats,
// 32 KiB) stays L1/L2-resident while it is reused across a block of output
// rows. Accumulation order per output element is always ascending kk
// (the kb blocks advance monotonically), so tiled results are
// bit-identical to the untiled triple loop and to themselves for any tile
// size, lane width, or thread count.
constexpr std::size_t kTileI = 32;
constexpr std::size_t kTileJ = 128;
constexpr std::size_t kTileK = 64;

namespace detail {

/// Output rows the micro-kernel accumulates at once. Every row keeps its
/// own accumulators, and all rows share each load of b, so a narrow
/// product runs kRows independent FMA chains per column pack instead of
/// one serial chain.
constexpr std::size_t kRows = 8;

/// Vector packs per row in the widest column block.
template <typename Backend>
constexpr std::size_t packs_per_block() {
  return util::simd::pack<float, Backend>::width >= 16 ? 4 : 2;
}

/// Accumulators one tile may hold: enough independent chains to cover FMA
/// latency without spilling the register file (32 vector registers at
/// AVX-512 width, 16 below it). Wider tiles are split into row halves.
template <typename P>
constexpr std::size_t max_accumulators() {
  return P::width >= 16 ? 16 : 8;
}

/// R rows × C packs of output starting at column j:
///   out_r[j..j+C·W) += Σ_kk a_r(kk) · b[kk][j..j+C·W)  for kk in [kb, ke),
/// with a_r(kk) = a[r·row_step + kk·k_step] and out_r = out + r·n. The
/// accumulators live in registers across the whole kk loop and each
/// element's chain runs in ascending kk through the backend's madd.
/// Always inlined: as an out-of-line call the accumulator array makes a
/// stack round trip around every tile, which doubled the time of the
/// narrow conv products. Each row's `a` pointer advances on its own, so
/// every broadcast reads a plain base address.
template <typename P, std::size_t R, std::size_t C>
[[gnu::always_inline]] inline void tile(
    const float* a, std::size_t row_step, std::size_t k_step, const float* b,
    float* out, std::size_t n, std::size_t kb, std::size_t ke, std::size_t j) {
  constexpr std::size_t W = P::width;
  P acc[R][C];
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t c = 0; c < C; ++c) {
      acc[r][c] = P::load(out + r * n + j + c * W);
    }
  }
  const float* ar[R];
  for (std::size_t r = 0; r < R; ++r) {
    ar[r] = a + r * row_step + kb * k_step;
  }
  const float* brow = b + kb * n + j;
  for (std::size_t kk = kb; kk < ke; ++kk) {
    P bv[C];
    for (std::size_t c = 0; c < C; ++c) {
      bv[c] = P::load(brow + c * W);
    }
    brow += n;
    for (std::size_t r = 0; r < R; ++r) {
      const P av = P::broadcast(*ar[r]);
      ar[r] += k_step;
      for (std::size_t c = 0; c < C; ++c) {
        acc[r][c] = P::madd(av, bv[c], acc[r][c]);
      }
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t c = 0; c < C; ++c) {
      acc[r][c].store(out + r * n + j + c * W);
    }
  }
}

/// R rows × C packs of output starting at column j, in one tile or in
/// row halves when R·C accumulators would not fit in registers.
template <typename P, std::size_t R, std::size_t C>
[[gnu::always_inline]] inline void tile_rows(
    const float* a, std::size_t row_step, std::size_t k_step, const float* b,
    float* out, std::size_t n, std::size_t kb, std::size_t ke, std::size_t j) {
  if constexpr (R > 1 && R * C > max_accumulators<P>()) {
    constexpr std::size_t H = R / 2;
    tile_rows<P, H, C>(a, row_step, k_step, b, out, n, kb, ke, j);
    tile_rows<P, R - H, C>(a + H * row_step, row_step, k_step, b, out + H * n,
                           n, kb, ke, j);
  } else {
    tile<P, R, C>(a, row_step, k_step, b, out, n, kb, ke, j);
  }
}

/// Columns [j, je) of R output rows: multi-pack blocks, then single packs,
/// then the tail on the next-narrower backend (finally scalar), each
/// blocked over the same R rows.
template <typename Backend, std::size_t R>
inline void sweep(const float* a, std::size_t row_step, std::size_t k_step,
                  const float* b, float* out, std::size_t n, std::size_t kb,
                  std::size_t ke, std::size_t j, std::size_t je) {
  using P = util::simd::pack<float, Backend>;
  constexpr std::size_t W = P::width;
  constexpr std::size_t C = packs_per_block<Backend>();
  for (; j + C * W <= je; j += C * W) {
    tile_rows<P, R, C>(a, row_step, k_step, b, out, n, kb, ke, j);
  }
  for (; j + W <= je; j += W) {
    tile_rows<P, R, 1>(a, row_step, k_step, b, out, n, kb, ke, j);
  }
  if constexpr (W > 1) {
    using Narrower = typename util::simd::narrower<Backend>::type;
    if constexpr (std::is_void_v<Narrower>) {
      sweep<util::simd::scalar_backend, R>(a, row_step, k_step, b, out, n, kb,
                                           ke, j, je);
    } else {
      sweep<Narrower, R>(a, row_step, k_step, b, out, n, kb, ke, j, je);
    }
  }
}

/// Rows [ib, ie) × columns [jb, je), kk in [kb, ke): row i's a(kk) is
/// a[i·row_step + kk·k_step]. Full kRows blocks, then at most one block
/// each of 4, 2 and 1 rows.
template <typename Backend>
inline void accum_rows(const float* a, std::size_t row_step,
                       std::size_t k_step, const float* b, float* out,
                       std::size_t n, std::size_t ib, std::size_t ie,
                       std::size_t kb, std::size_t ke, std::size_t jb,
                       std::size_t je) {
  std::size_t i = ib;
  for (; i + kRows <= ie; i += kRows) {
    sweep<Backend, kRows>(a + i * row_step, row_step, k_step, b, out + i * n,
                          n, kb, ke, jb, je);
  }
  if (i + 4 <= ie) {
    sweep<Backend, 4>(a + i * row_step, row_step, k_step, b, out + i * n, n, kb,
                      ke, jb, je);
    i += 4;
  }
  if (i + 2 <= ie) {
    sweep<Backend, 2>(a + i * row_step, row_step, k_step, b, out + i * n, n, kb,
                      ke, jb, je);
    i += 2;
  }
  if (i < ie) {
    sweep<Backend, 1>(a + i * row_step, row_step, k_step, b, out + i * n, n, kb,
                      ke, jb, je);
  }
}

}  // namespace detail

/// out[i0..i1) += a · b for row-major a (m×k), b (k×n).
template <typename Backend>
void matmul_rows(const float* a, const float* b, float* out, std::size_t i0,
                 std::size_t i1, std::size_t k, std::size_t n) {
  for (std::size_t ib = i0; ib < i1; ib += kTileI) {
    const std::size_t ie = std::min(ib + kTileI, i1);
    for (std::size_t kb = 0; kb < k; kb += kTileK) {
      const std::size_t ke = std::min(kb + kTileK, k);
      for (std::size_t jb = 0; jb < n; jb += kTileJ) {
        const std::size_t je = std::min(jb + kTileJ, n);
        detail::accum_rows<Backend>(a, k, 1, b, out, n, ib, ie, kb, ke, jb, je);
      }
    }
  }
}

/// out[i0..i1) = a · bᵀ for row-major a (m×k), b (n×k), dot-product form.
/// Four independent chains per iteration break the serial FP dependency
/// while keeping every (i, j) accumulation in ascending kk order — the
/// same chain the axpy kernels produce, so the two forms are
/// interchangeable per element. Backend-independent (no useful contiguous
/// lane axis without transposing b); kept for short row counts where a
/// transpose would cost more than it saves.
inline void matmul_bt_rows(const float* a, const float* b, float* out,
                           std::size_t i0, std::size_t i1, std::size_t k,
                           std::size_t n) {
  for (std::size_t i = i0; i < i1; ++i) {
    const float* arow = a + i * k;
    float* orow = out + i * n;
    std::size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const float* b0 = b + (j + 0) * k;
      const float* b1 = b + (j + 1) * k;
      const float* b2 = b + (j + 2) * k;
      const float* b3 = b + (j + 3) * k;
      float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float av = arow[kk];
        acc0 = util::simd::madd(av, b0[kk], acc0);
        acc1 = util::simd::madd(av, b1[kk], acc1);
        acc2 = util::simd::madd(av, b2[kk], acc2);
        acc3 = util::simd::madd(av, b3[kk], acc3);
      }
      orow[j + 0] = acc0;
      orow[j + 1] = acc1;
      orow[j + 2] = acc2;
      orow[j + 3] = acc3;
    }
    for (; j < n; ++j) {
      const float* brow = b + j * k;
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) {
        acc = util::simd::madd(arow[kk], brow[kk], acc);
      }
      orow[j] = acc;
    }
  }
}

/// out[i0..i1) += aᵀ · b for row-major a (k×m), b (k×n).
template <typename Backend>
void matmul_at_rows(const float* a, const float* b, float* out, std::size_t i0,
                    std::size_t i1, std::size_t k, std::size_t m,
                    std::size_t n) {
  for (std::size_t ib = i0; ib < i1; ib += kTileI) {
    const std::size_t ie = std::min(ib + kTileI, i1);
    for (std::size_t kb = 0; kb < k; kb += kTileK) {
      const std::size_t ke = std::min(kb + kTileK, k);
      detail::accum_rows<Backend>(a, 1, m, b, out, n, ib, ie, kb, ke, 0, n);
    }
  }
}

/// dst (k×n) = src (n×k) transposed. Pure data movement, exact.
inline void transpose(const float* src, float* dst, std::size_t n,
                      std::size_t k) {
  for (std::size_t r = 0; r < n; ++r) {
    const float* srow = src + r * k;
    for (std::size_t c = 0; c < k; ++c) {
      dst[c * n + r] = srow[c];
    }
  }
}

}  // namespace dtmsv::nn::kernels
