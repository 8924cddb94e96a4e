// Generalized sparse matrix-vector product: Y = A * X with a block of
// m vectors (the paper's GSPMV kernel), plus the single-vector SPMV.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "sparse/bcrs.hpp"
#include "sparse/multivector.hpp"
#include "sparse/partition.hpp"

namespace mrhs::sparse {

namespace kernels {
struct KernelVariant;
}  // namespace kernels

enum class GspmvKernel {
  kReference,    // portable loops inline in gspmv.cpp (verification path)
  kSimd,         // best ISA the CPU + binary support (runtime dispatch;
                 // honors the --kernel/MRHS_KERNEL override)
  kSimd256,      // legacy alias for kForceAvx2 (kernel ablations)
  kAuto,         // same as kSimd
  kForceScalar,  // pin the dispatched scalar variant
  kForceAvx2,    // pin the AVX2/FMA variant (falls back if unavailable)
  kForceAvx512,  // pin the AVX-512 variant (falls back if unavailable)
};

/// Single-threaded reference implementations (used for verification).
void gspmv_reference(const BcrsMatrix& a, const MultiVector& x,
                     MultiVector& y);
void spmv_reference(const BcrsMatrix& a, std::span<const double> x,
                    std::span<double> y);

/// Column-major GSPMV ablation: X and Y are m column vectors each
/// stored contiguously with leading dimension = rows (i.e. m separate
/// SPMV passes fused at the block level but with strided vector
/// access). Exists to demonstrate why the paper stores vectors
/// row-major.
void gspmv_colmajor(const BcrsMatrix& a, const double* x, double* y,
                    std::size_t m);

/// True when every stored block of `a` is symmetric as bit patterns
/// (a[1] = a[3], a[2] = a[6], a[5] = a[7]): -0.0 against +0.0, or two
/// NaNs with different payloads, count as asymmetric.
[[nodiscard]] bool blocks_bitwise_symmetric(const BcrsMatrix& a);

/// Reusable GSPMV executor. Construction precomputes an nnz-balanced
/// assignment of block rows to threads (the paper's "thread blocking")
/// and decides, once, whether single-vector applies may take the
/// symmetric-block kernel (blocks_bitwise_symmetric). The engine reads
/// the matrix it was built on: neither its pattern nor its values may
/// change while the engine is in use.
class GspmvEngine {
 public:
  /// threads == 0 means use omp_get_max_threads().
  explicit GspmvEngine(const BcrsMatrix& a, int threads = 0);

  /// Y = A X, both with m = x.cols() columns.
  void apply(const MultiVector& x, MultiVector& y,
             GspmvKernel kernel = GspmvKernel::kAuto) const;

  /// y = A x (single vector).
  void apply(std::span<const double> x, std::span<double> y) const;

  [[nodiscard]] const BcrsMatrix& matrix() const { return *a_; }
  [[nodiscard]] int threads() const { return threads_; }

  /// Every stored block is bitwise symmetric (decided at construction).
  [[nodiscard]] bool symmetric_blocks() const { return symmetric_blocks_; }
  /// Single-vector applies (m = 1, both overloads) run the
  /// symmetric-block kernel: symmetric_blocks() in a build that
  /// compiles it. Either kernel gives the same bits.
  [[nodiscard]] bool symmetric_spmv() const {
    return symmetric_blocks_ && symmetric_kernel_compiled();
  }
  /// Whether this build compiles the symmetric-block kernel (its
  /// gspmv.cpp targets AVX2 and FMA).
  [[nodiscard]] static bool symmetric_kernel_compiled();

  /// Flops performed by one apply() with m vectors.
  [[nodiscard]] double flops(std::size_t m) const {
    return 18.0 * static_cast<double>(a_->nnzb()) * static_cast<double>(m);
  }

  /// Minimum bytes moved from memory by one apply() with m vectors
  /// (matrix + indices + read X + read/write Y), the paper's Mtr with
  /// k(m) = 0.
  [[nodiscard]] double min_bytes(std::size_t m) const;

 private:
  /// Feed the gspmv.* counters, the effective-bandwidth gauge, and the
  /// dispatched-ISA attribution after one timed apply (only called when
  /// metrics are enabled; variant == nullptr for the m = 1 / reference
  /// paths, which bypass the dispatch table). m = 1 applies also count
  /// by kernel: gspmv.spmv_symmetric_applies / spmv_general_applies.
  void record_metrics(std::size_t m, double seconds,
                      const kernels::KernelVariant* variant) const;

  const BcrsMatrix* a_;
  int threads_;
  std::vector<RowRange> parts_;
  bool symmetric_blocks_ = false;
};

}  // namespace mrhs::sparse
