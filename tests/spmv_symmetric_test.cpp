// Tests for the symmetric-block single-vector SPMV: bitwise equality
// with spmv_reference on assembled resistance matrices and on
// synthetic edge cases, the bit-pattern symmetry test that selects it,
// and a counter gate that fails when an SD trajectory's single-vector
// products stop taking it. Suite names contain "Gspmv" so the
// forced-scalar CI filter runs them too.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/sd_simulation.hpp"
#include "core/stepper.hpp"
#include "obs/metrics.hpp"
#include "sd/assembly_engine.hpp"
#include "sparse/bcrs.hpp"
#include "sparse/gspmv.hpp"
#include "sparse/multivector.hpp"
#include "sparse/simd_kernels.hpp"
#include "util/rng.hpp"

namespace {

using namespace mrhs;

constexpr const char* kNotCompiled =
    "symmetric-block SPMV not compiled in (gspmv.cpp built without "
    "AVX2/FMA)";

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

std::vector<double> reference_product(const sparse::BcrsMatrix& a,
                                      const std::vector<double>& x) {
  std::vector<double> y(a.rows());
  sparse::spmv_reference(a, x, y);
  return y;
}

std::vector<double> random_vector(std::size_t n, std::uint64_t seed) {
  util::StreamRng rng(seed);
  std::vector<double> x(n);
  rng.fill_normal(x);
  return x;
}

/// Engine products at several thread counts, through the span and the
/// MultiVector m = 1 overloads, against spmv_reference (memcmp).
void expect_engine_matches_reference(const sparse::BcrsMatrix& a,
                                     bool expect_symmetric) {
  const auto x = random_vector(a.cols(), 7);
  const auto y_ref = reference_product(a, x);
  sparse::MultiVector xm(a.cols(), 1);
  xm.copy_col_in(0, x);
  for (const int threads : {1, 2, 3, 4}) {
    const sparse::GspmvEngine engine(a, threads);
    EXPECT_EQ(engine.symmetric_blocks(), expect_symmetric);
    EXPECT_EQ(engine.symmetric_spmv(),
              expect_symmetric &&
                  sparse::GspmvEngine::symmetric_kernel_compiled());
    std::vector<double> y(a.rows(), -1.0);
    engine.apply(x, y);
    EXPECT_TRUE(same_bits(y, y_ref)) << "span overload, threads=" << threads;

    sparse::MultiVector ym(a.rows(), 1);
    for (std::size_t i = 0; i < a.rows(); ++i) ym(i, 0) = -1.0;
    engine.apply(xm, ym);
    std::vector<double> ycol(a.rows());
    ym.copy_col_out(0, ycol);
    EXPECT_TRUE(same_bits(ycol, y_ref))
        << "MultiVector overload, threads=" << threads;
  }
}

core::SdConfig small_config(double assembly_tolerance) {
  core::SdConfig config;
  config.particles = 120;
  config.phi = 0.45;
  config.seed = 29;
  config.assembly_tolerance = assembly_tolerance;
  config.threads = 2;
  return config;
}

/// A matrix whose every stored block is bitwise symmetric, with the
/// shapes the kernel's row pairing must survive: an odd block-row
/// count, empty rows (first, last and inside a pair), and rows from 1
/// to 40 blocks long next to each other.
sparse::BcrsMatrix ragged_symmetric_matrix() {
  constexpr std::size_t kRows = 23;
  const std::size_t lengths[kRows] = {0, 40, 1,  0, 3, 17, 1, 1, 0, 29, 2, 5,
                                      0, 0,  11, 1, 38, 4, 1, 6, 0, 9, 0};
  util::StreamRng rng(13);
  sparse::BcrsBuilder builder(kRows, kRows + 30);
  for (std::size_t i = 0; i < kRows; ++i) {
    for (std::size_t k = 0; k < lengths[i]; ++k) {
      std::vector<double> v(6);
      rng.fill_normal(v);
      const double blk[9] = {v[0], v[1], v[2], v[1], v[3],
                             v[4], v[2], v[4], v[5]};
      builder.add_block(i, (i * 7 + k * 3) % (kRows + 30),
                        std::span<const double, 9>(blk, 9));
    }
  }
  return builder.build();
}

TEST(GspmvSymmetric, FullAssemblyMatchesReferenceBitwise) {
  if (!sparse::GspmvEngine::symmetric_kernel_compiled()) {
    GTEST_SKIP() << kNotCompiled;
  }
  core::SdSimulation sim(small_config(0.0));
  const auto matrix = sd::AssemblyEngine(sim.engine().params())
                          .assemble_full(sim.system())
                          .matrix;
  ASSERT_TRUE(sparse::blocks_bitwise_symmetric(matrix));
  expect_engine_matches_reference(matrix, /*expect_symmetric=*/true);
}

TEST(GspmvSymmetric, IncrementalAssemblyMatchesReferenceBitwise) {
  if (!sparse::GspmvEngine::symmetric_kernel_compiled()) {
    GTEST_SKIP() << kNotCompiled;
  }
  core::SdSimulation sim(small_config(0.05));
  const sd::AssemblyOptions options{.tolerance = 0.05 * sim.mean_radius()};
  sd::AssemblyEngine engine(sim.engine().params(), options);
  const auto matrix = engine.assemble_incremental(sim.system()).matrix;
  // The Verlet skin stores zero blocks for pairs not yet in reach.
  std::size_t zero_blocks = 0;
  for (std::size_t p = 0; p < matrix.nnzb(); ++p) {
    const double* blk = matrix.block(p);
    bool zero = true;
    for (int k = 0; k < 9; ++k) zero = zero && blk[k] == 0.0;
    zero_blocks += zero ? 1 : 0;
  }
  EXPECT_GT(zero_blocks, 0u);
  ASSERT_TRUE(sparse::blocks_bitwise_symmetric(matrix));
  expect_engine_matches_reference(matrix, /*expect_symmetric=*/true);
}

TEST(GspmvSymmetric, RaggedRowsMatchReferenceBitwise) {
  if (!sparse::GspmvEngine::symmetric_kernel_compiled()) {
    GTEST_SKIP() << kNotCompiled;
  }
  const auto a = ragged_symmetric_matrix();
  ASSERT_EQ(a.block_rows() % 2, 1u);
  expect_engine_matches_reference(a, /*expect_symmetric=*/true);
}

TEST(GspmvSymmetric, EveryRowRangeMatchesReferenceBitwise) {
  // Thread partitions may start or end inside a row pair: run the
  // kernel on every range [begin, end) and compare those rows.
#if MRHS_HAVE_SYMMETRIC_SPMV
  const auto a = ragged_symmetric_matrix();
  const auto x = random_vector(a.cols(), 3);
  const auto y_ref = reference_product(a, x);
  const std::size_t nb = a.block_rows();
  for (std::size_t begin = 0; begin <= nb; ++begin) {
    for (std::size_t end = begin; end <= nb; ++end) {
      std::vector<double> y(a.rows(), -1.0);
      sparse::kernels::block_rows_spmv_symmetric(
          a.values().data(), a.col_idx().data(), a.row_ptr().data(), begin,
          end, x.data(), y.data());
      for (std::size_t r = 0; r < a.rows(); ++r) {
        const bool inside = r >= 3 * begin && r < 3 * end;
        const double want = inside ? y_ref[r] : -1.0;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(y[r]),
                  std::bit_cast<std::uint64_t>(want))
            << "range [" << begin << ", " << end << "), row " << r;
      }
    }
  }
#else
  GTEST_SKIP() << kNotCompiled;
#endif
}

/// The bit-pattern test rejects a matrix whose only asymmetry is one
/// entry pair, and the engine then runs the portable loop.
void expect_fallback(std::size_t block, int k, int k_mirror, double value,
                     double mirror) {
  auto a = ragged_symmetric_matrix();
  ASSERT_TRUE(sparse::blocks_bitwise_symmetric(a));
  a.block(block)[k] = value;
  a.block(block)[k_mirror] = mirror;
  EXPECT_FALSE(sparse::blocks_bitwise_symmetric(a));
  expect_engine_matches_reference(a, /*expect_symmetric=*/false);
}

TEST(GspmvSymmetric, SignedZeroPairFallsBack) {
  expect_fallback(5, 1, 3, 0.0, -0.0);
}

TEST(GspmvSymmetric, NanPayloadPairFallsBack) {
  const auto nan_a = std::bit_cast<double>(std::uint64_t{0x7ff8000000000001});
  const auto nan_b = std::bit_cast<double>(std::uint64_t{0x7ff8000000000002});
  ASSERT_TRUE(std::isnan(nan_a) && std::isnan(nan_b));
  expect_fallback(40, 2, 6, nan_a, nan_b);
}

TEST(GspmvSymmetric, LastBlockAsymmetryFallsBack) {
  const auto nnzb = ragged_symmetric_matrix().nnzb();
  expect_fallback(nnzb - 1, 5, 7, 0.25, 0.5);
}

TEST(GspmvSymmetric, RandomAsymmetricBlocksFallBack) {
  const auto a = sparse::make_random_bcrs(31, 6.0, 19);
  expect_engine_matches_reference(a, /*expect_symmetric=*/false);
}

/// Counter gate: every single-vector product of a short SD trajectory
/// takes the symmetric-block kernel. An assembler change that breaks
/// block symmetry bitwise fails here instead of silently running the
/// slower loop.
void expect_trajectory_spmvs_symmetric(double assembly_tolerance) {
  auto& metrics = obs::MetricsRegistry::instance();
  metrics.reset();
  metrics.enable();
  {
    core::SdSimulation sim(small_config(assembly_tolerance));
    core::MrhsAlgorithm mrhs(sim, {.rhs = 4});
    mrhs.run(8);
    core::SdSimulation sim_orig(small_config(assembly_tolerance));
    core::OriginalAlgorithm orig(sim_orig);
    orig.run(3);
  }
  const auto snap = metrics.snapshot();
  metrics.disable();
  metrics.reset();
  const auto counter = [&snap](const char* name) {
    return snap.counters.contains(name) ? snap.counters.at(name) : 0.0;
  };
  EXPECT_GT(counter("gspmv.spmv_symmetric_applies"), 100.0);
  EXPECT_EQ(counter("gspmv.spmv_general_applies"), 0.0);
}

TEST(GspmvSymmetric, FullAssemblyTrajectoryTakesSymmetricKernel) {
  if (!sparse::GspmvEngine::symmetric_kernel_compiled()) {
    GTEST_SKIP() << kNotCompiled;
  }
  expect_trajectory_spmvs_symmetric(0.0);
}

TEST(GspmvSymmetric, IncrementalAssemblyTrajectoryTakesSymmetricKernel) {
  if (!sparse::GspmvEngine::symmetric_kernel_compiled()) {
    GTEST_SKIP() << kNotCompiled;
  }
  expect_trajectory_spmvs_symmetric(0.05);
}

}  // namespace
