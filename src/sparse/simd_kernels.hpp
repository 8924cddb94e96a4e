// GSPMV microkernels: multiply one BCRS block row (3 scalar rows) by a
// row-major multivector with m columns.
//
// Mirrors the paper's design: a "basic kernel" multiplies a 3x3 matrix
// block by a 3xm block of vector values, unrolled over m. The AVX2
// variant broadcasts each of the nine block entries and runs FMA over
// the m contiguous column values; Y accumulators for the current block
// row stay in L1 while the matrix streams through once.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#define MRHS_HAVE_AVX2_KERNELS 1
#else
#define MRHS_HAVE_AVX2_KERNELS 0
#endif

#if defined(__AVX512F__)
#define MRHS_HAVE_AVX512_KERNELS 1
#else
#define MRHS_HAVE_AVX512_KERNELS 0
#endif

namespace mrhs::sparse::kernels {

/// Y(3 rows x m) = sum over blocks of A_block(3x3) * X(3 rows x m).
/// Portable version; the inner loops vectorize under -O3.
///
/// Accumulation contract (the bitwise-parity invariant the dispatch
/// tests pin down): each y element accumulates via fused
/// multiply-adds in (p, c) order — one fma per stored block column.
/// std::fma is used explicitly, not left to -ffp-contract, so the
/// generic kernel produces the exact same doubles as the AVX2/AVX-512
/// intrinsic kernels (which fma by construction) on every build,
/// including portable builds without hardware FMA codegen flags.
static inline void block_row_generic(const double* __restrict values,
                              const std::int32_t* __restrict col_idx,
                              std::int64_t begin, std::int64_t end,
                              const double* __restrict x, std::size_t m,
                              double* __restrict y_row /* 3*m doubles */) {
  for (std::size_t t = 0; t < 3 * m; ++t) y_row[t] = 0.0;
  for (std::int64_t p = begin; p < end; ++p) {
    const double* __restrict blk = values + static_cast<std::size_t>(p) * 9;
    const double* __restrict xb =
        x + static_cast<std::size_t>(col_idx[p]) * 3 * m;
    for (std::size_t c = 0; c < 3; ++c) {
      const double a0c = blk[0 * 3 + c];
      const double a1c = blk[1 * 3 + c];
      const double a2c = blk[2 * 3 + c];
      const double* __restrict xc = xb + c * m;
#pragma omp simd
      for (std::size_t j = 0; j < m; ++j) {
        const double xv = xc[j];
        y_row[0 * m + j] = std::fma(a0c, xv, y_row[0 * m + j]);
        y_row[1 * m + j] = std::fma(a1c, xv, y_row[1 * m + j]);
        y_row[2 * m + j] = std::fma(a2c, xv, y_row[2 * m + j]);
      }
    }
  }
}

/// Portable single-vector SPMV of one block row (m == 1): spmv_reference,
/// and what engines run on matrices with an asymmetric block. On an FMA
/// target each row computes
///   t = fma(a_r2, x2, fma(a_r0, x0, a_r1 * x1)),  y_r += t
/// with explicit std::fma: the chain GCC's default contraction makes of
/// the plain expression at -O2 and above, written out so that it holds
/// at every optimisation level and with any compiler, and so that
/// block_rows_spmv_symmetric can reproduce it. Without FMA the
/// multiplies and adds round separately.
static inline void block_row_spmv(const double* __restrict values,
                           const std::int32_t* __restrict col_idx,
                           std::int64_t begin, std::int64_t end,
                           const double* __restrict x,
                           double* __restrict y_row /* 3 doubles */) {
  double y0 = 0.0, y1 = 0.0, y2 = 0.0;
  for (std::int64_t p = begin; p < end; ++p) {
    const double* __restrict blk = values + static_cast<std::size_t>(p) * 9;
    const double* __restrict xb = x + static_cast<std::size_t>(col_idx[p]) * 3;
    const double x0 = xb[0], x1 = xb[1], x2 = xb[2];
#if defined(__FMA__)
    y0 += std::fma(blk[2], x2, std::fma(blk[0], x0, blk[1] * x1));
    y1 += std::fma(blk[5], x2, std::fma(blk[3], x0, blk[4] * x1));
    y2 += std::fma(blk[8], x2, std::fma(blk[6], x0, blk[7] * x1));
#else
    y0 += blk[0] * x0 + blk[1] * x1 + blk[2] * x2;
    y1 += blk[3] * x0 + blk[4] * x1 + blk[5] * x2;
    y2 += blk[6] * x0 + blk[7] * x1 + blk[8] * x2;
#endif
  }
  y_row[0] = y0;
  y_row[1] = y1;
  y_row[2] = y2;
}

// The symmetric-block SPMV needs AVX2 and FMA (MRHS_HAVE_AVX2_KERNELS):
// builds without them keep the portable loop for every matrix.
#define MRHS_HAVE_SYMMETRIC_SPMV MRHS_HAVE_AVX2_KERNELS

#if MRHS_HAVE_SYMMETRIC_SPMV

/// The three doubles at p in lanes 0..2 of a ymm register, lane 3
/// zero; nothing past p[2] is read.
static inline __m256d load3_pd(const double* p) {
#if defined(__AVX512VL__)
  return _mm256_maskz_loadu_pd(0x7, p);
#else
  return _mm256_maskload_pd(p, _mm256_setr_epi64x(-1, -1, -1, 0));
#endif
}

/// Store lanes 0..2 of v to p[0..2].
static inline void store3_pd(double* p, __m256d v) {
#if defined(__AVX512VL__)
  _mm256_mask_storeu_pd(p, 0x7, v);
#else
  _mm256_maskstore_pd(p, _mm256_setr_epi64x(-1, -1, -1, 0), v);
#endif
}

/// acc += (stored block p) * x_col, the block's three rows in lanes
/// 0..2. A bitwise-symmetric block's rows are its columns, so the
/// three contiguous row loads serve as column vectors and no shuffle
/// is needed; lane r computes block_row_spmv's chain for row r.
static inline __m256d symmetric_block_fma(
    const double* __restrict values, const std::int32_t* __restrict col_idx,
    std::int64_t p, const double* __restrict x, __m256d acc) {
  const double* blk = values + static_cast<std::size_t>(p) * 9;
  const double* xb = x + static_cast<std::size_t>(col_idx[p]) * 3;
  __m256d t = _mm256_mul_pd(load3_pd(blk + 3), _mm256_broadcast_sd(xb + 1));
  t = _mm256_fmadd_pd(load3_pd(blk), _mm256_broadcast_sd(xb), t);
  t = _mm256_fmadd_pd(load3_pd(blk + 6), _mm256_broadcast_sd(xb + 2), t);
  return _mm256_add_pd(acc, t);
}

/// y = A x over block rows [row_begin, row_end) for a matrix whose
/// every stored block is bitwise symmetric (a[1] = a[3], a[2] = a[6],
/// a[5] = a[7] as bit patterns). Bitwise equal to block_row_spmv row
/// by row: each row accumulates its blocks in storage order with the
/// same chain. Two block rows are interleaved so their dependent add
/// chains overlap; the longer row finishes alone.
static inline void block_rows_spmv_symmetric(
    const double* __restrict values, const std::int32_t* __restrict col_idx,
    const std::int64_t* __restrict row_ptr, std::size_t row_begin,
    std::size_t row_end, const double* __restrict x,
    double* __restrict y /* 3 doubles per block row */) {
  std::size_t bi = row_begin;
  for (; bi + 1 < row_end; bi += 2) {
    std::int64_t p0 = row_ptr[bi];
    std::int64_t p1 = row_ptr[bi + 1];
    const std::int64_t e0 = p1;
    const std::int64_t e1 = row_ptr[bi + 2];
    const std::int64_t both = std::min(e0 - p0, e1 - p1);
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    for (std::int64_t k = 0; k < both; ++k) {
      acc0 = symmetric_block_fma(values, col_idx, p0 + k, x, acc0);
      acc1 = symmetric_block_fma(values, col_idx, p1 + k, x, acc1);
    }
    for (p0 += both; p0 < e0; ++p0) {
      acc0 = symmetric_block_fma(values, col_idx, p0, x, acc0);
    }
    for (p1 += both; p1 < e1; ++p1) {
      acc1 = symmetric_block_fma(values, col_idx, p1, x, acc1);
    }
    store3_pd(y + bi * 3, acc0);
    store3_pd(y + bi * 3 + 3, acc1);
  }
  if (bi < row_end) {
    __m256d acc = _mm256_setzero_pd();
    for (std::int64_t p = row_ptr[bi]; p < row_ptr[bi + 1]; ++p) {
      acc = symmetric_block_fma(values, col_idx, p, x, acc);
    }
    store3_pd(y + bi * 3, acc);
  }
}

#endif  // MRHS_HAVE_SYMMETRIC_SPMV

#if MRHS_HAVE_AVX2_KERNELS

/// One column window of width 4*NC: the 3 x (4*NC) Y accumulators stay
/// in registers while the whole block row streams past — the register
/// blocking that makes GSPMV compute-efficient (the matrix is read
/// once per row; Y sees no load/store traffic inside the loop). This
/// mirrors the paper's fully-unrolled generated kernels: NC is the
/// compile-time unroll-over-m factor.
template <int NC>
static inline void block_row_window_avx2(const double* __restrict values,
                                  const std::int32_t* __restrict col_idx,
                                  std::int64_t begin, std::int64_t end,
                                  const double* __restrict x, std::size_t m,
                                  std::size_t j0,
                                  double* __restrict y_row) {
  __m256d acc[3][NC];
  for (int r = 0; r < 3; ++r) {
    for (int k = 0; k < NC; ++k) acc[r][k] = _mm256_setzero_pd();
  }
  for (std::int64_t p = begin; p < end; ++p) {
    const double* __restrict blk = values + static_cast<std::size_t>(p) * 9;
    const double* __restrict xb =
        x + static_cast<std::size_t>(col_idx[p]) * 3 * m + j0;
    for (int c = 0; c < 3; ++c) {
      __m256d xv[NC];
      for (int k = 0; k < NC; ++k) {
        xv[k] = _mm256_loadu_pd(xb + static_cast<std::size_t>(c) * m +
                                4 * static_cast<std::size_t>(k));
      }
      const __m256d a0 = _mm256_set1_pd(blk[0 * 3 + c]);
      const __m256d a1 = _mm256_set1_pd(blk[1 * 3 + c]);
      const __m256d a2 = _mm256_set1_pd(blk[2 * 3 + c]);
      for (int k = 0; k < NC; ++k) {
        acc[0][k] = _mm256_fmadd_pd(a0, xv[k], acc[0][k]);
        acc[1][k] = _mm256_fmadd_pd(a1, xv[k], acc[1][k]);
        acc[2][k] = _mm256_fmadd_pd(a2, xv[k], acc[2][k]);
      }
    }
  }
  for (int r = 0; r < 3; ++r) {
    for (int k = 0; k < NC; ++k) {
      _mm256_storeu_pd(y_row + static_cast<std::size_t>(r) * m + j0 +
                           4 * static_cast<std::size_t>(k),
                       acc[r][k]);
    }
  }
}

/// AVX2/FMA block-row kernel: the m columns are processed in register
/// windows of 16/8/4 with a scalar tail. Within one window the matrix
/// row's blocks come from L1/L2 (a row is ~2 KB), so DRAM still sees
/// the matrix exactly once per GSPMV.
static inline void block_row_avx2(const double* __restrict values,
                           const std::int32_t* __restrict col_idx,
                           std::int64_t begin, std::int64_t end,
                           const double* __restrict x, std::size_t m,
                           double* __restrict y_row) {
  std::size_t j = 0;
  while (m - j >= 16) {
    block_row_window_avx2<4>(values, col_idx, begin, end, x, m, j, y_row);
    j += 16;
  }
  if (m - j >= 8) {
    block_row_window_avx2<2>(values, col_idx, begin, end, x, m, j, y_row);
    j += 8;
  }
  if (m - j >= 4) {
    block_row_window_avx2<1>(values, col_idx, begin, end, x, m, j, y_row);
    j += 4;
  }
  if (j < m) {
    // Masked window for the final 1-3 columns: same register-resident
    // accumulation, inactive lanes are never touched.
    const std::size_t rem = m - j;
    alignas(32) const std::int64_t mask_bits[4] = {
        rem > 0 ? -1 : 0, rem > 1 ? -1 : 0, rem > 2 ? -1 : 0, 0};
    const __m256i mask =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(mask_bits));
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    __m256d acc2 = _mm256_setzero_pd();
    for (std::int64_t p = begin; p < end; ++p) {
      const double* __restrict blk =
          values + static_cast<std::size_t>(p) * 9;
      const double* __restrict xb =
          x + static_cast<std::size_t>(col_idx[p]) * 3 * m + j;
      for (int c = 0; c < 3; ++c) {
        const __m256d xv =
            _mm256_maskload_pd(xb + static_cast<std::size_t>(c) * m, mask);
        acc0 = _mm256_fmadd_pd(_mm256_set1_pd(blk[0 * 3 + c]), xv, acc0);
        acc1 = _mm256_fmadd_pd(_mm256_set1_pd(blk[1 * 3 + c]), xv, acc1);
        acc2 = _mm256_fmadd_pd(_mm256_set1_pd(blk[2 * 3 + c]), xv, acc2);
      }
    }
    _mm256_maskstore_pd(y_row + 0 * m + j, mask, acc0);
    _mm256_maskstore_pd(y_row + 1 * m + j, mask, acc1);
    _mm256_maskstore_pd(y_row + 2 * m + j, mask, acc2);
  }
}

#endif  // MRHS_HAVE_AVX2_KERNELS

#if MRHS_HAVE_AVX512_KERNELS

/// AVX-512 column window of width 8*NC; same register-resident Y
/// accumulation as the AVX2 variant at twice the lane count. The final
/// partial window (< 8 columns) uses the lane mask.
template <int NC>
static inline void block_row_window_avx512(const double* __restrict values,
                                    const std::int32_t* __restrict col_idx,
                                    std::int64_t begin, std::int64_t end,
                                    const double* __restrict x,
                                    std::size_t m, std::size_t j0,
                                    std::size_t width,
                                    double* __restrict y_row) {
  const __mmask8 tail_mask =
      width >= 8 * NC
          ? static_cast<__mmask8>(0xFF)
          : static_cast<__mmask8>((1u << (width - 8 * (NC - 1))) - 1u);
  __m512d acc[3][NC];
  for (int r = 0; r < 3; ++r) {
    for (int k = 0; k < NC; ++k) acc[r][k] = _mm512_setzero_pd();
  }
  for (std::int64_t p = begin; p < end; ++p) {
    const double* __restrict blk = values + static_cast<std::size_t>(p) * 9;
    const double* __restrict xb =
        x + static_cast<std::size_t>(col_idx[p]) * 3 * m + j0;
    for (int c = 0; c < 3; ++c) {
      __m512d xv[NC];
      for (int k = 0; k < NC; ++k) {
        const double* src =
            xb + static_cast<std::size_t>(c) * m +
            8 * static_cast<std::size_t>(k);
        xv[k] = (k == NC - 1)
                    ? _mm512_maskz_loadu_pd(tail_mask, src)
                    : _mm512_loadu_pd(src);
      }
      const __m512d a0 = _mm512_set1_pd(blk[0 * 3 + c]);
      const __m512d a1 = _mm512_set1_pd(blk[1 * 3 + c]);
      const __m512d a2 = _mm512_set1_pd(blk[2 * 3 + c]);
      for (int k = 0; k < NC; ++k) {
        acc[0][k] = _mm512_fmadd_pd(a0, xv[k], acc[0][k]);
        acc[1][k] = _mm512_fmadd_pd(a1, xv[k], acc[1][k]);
        acc[2][k] = _mm512_fmadd_pd(a2, xv[k], acc[2][k]);
      }
    }
  }
  for (int r = 0; r < 3; ++r) {
    for (int k = 0; k < NC; ++k) {
      double* dst = y_row + static_cast<std::size_t>(r) * m + j0 +
                    8 * static_cast<std::size_t>(k);
      if (k == NC - 1) {
        _mm512_mask_storeu_pd(dst, tail_mask, acc[r][k]);
      } else {
        _mm512_storeu_pd(dst, acc[r][k]);
      }
    }
  }
}

/// AVX-512 block-row kernel: 16-wide windows, then an 8-or-fewer
/// masked window.
static inline void block_row_avx512(const double* __restrict values,
                             const std::int32_t* __restrict col_idx,
                             std::int64_t begin, std::int64_t end,
                             const double* __restrict x, std::size_t m,
                             double* __restrict y_row) {
  std::size_t j = 0;
  while (m - j >= 16) {
    block_row_window_avx512<2>(values, col_idx, begin, end, x, m, j, 16,
                               y_row);
    j += 16;
  }
  if (j < m) {
    const std::size_t rem = m - j;
    if (rem > 8) {
      block_row_window_avx512<2>(values, col_idx, begin, end, x, m, j, rem,
                                 y_row);
    } else {
      block_row_window_avx512<1>(values, col_idx, begin, end, x, m, j, rem,
                                 y_row);
    }
  }
}

#endif  // MRHS_HAVE_AVX512_KERNELS

/// Flop count of one GSPMV: fa = 18 flops per stored block per column
/// (9 multiplies + 9 adds), matching the paper's accounting.
constexpr double kFlopsPerBlockPerVector = 18.0;

}  // namespace mrhs::sparse::kernels
