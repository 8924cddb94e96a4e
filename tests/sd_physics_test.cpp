// Tests for SD physics: lubrication tensors, RPY mobility, resistance
// assembly, effective viscosity, and the packer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numbers>
#include <vector>

#include "dense/matrix.hpp"
#include "sd/assembly_engine.hpp"
#include "sd/cell_list.hpp"
#include "sd/effective_viscosity.hpp"
#include "sd/lubrication.hpp"
#include "sd/packing.hpp"
#include "sd/radii.hpp"
#include "sd/resistance.hpp"
#include "sd/rpy.hpp"
#include "sparse/csr.hpp"
#include "util/rng.hpp"

namespace {

using namespace mrhs;
using sd::Vec3;

TEST(Lubrication, SqueezeDivergesAsInverseGap) {
  const double beta = 1.0;
  const auto s1 = sd::lubrication_scalars(1e-2, beta);
  const auto s2 = sd::lubrication_scalars(1e-3, beta);
  const auto s3 = sd::lubrication_scalars(1e-4, beta);
  // Leading 1/xi term: each decade of gap gains ~10x in squeeze.
  EXPECT_NEAR(s2.squeeze / s1.squeeze, 10.0, 1.0);
  EXPECT_NEAR(s3.squeeze / s2.squeeze, 10.0, 0.5);
}

TEST(Lubrication, ShearDivergesLogarithmically) {
  const double beta = 1.0;
  const auto s1 = sd::lubrication_scalars(1e-2, beta);
  const auto s2 = sd::lubrication_scalars(1e-4, beta);
  // log(1/xi) doubles from 1e-2 to 1e-4.
  EXPECT_NEAR(s2.shear / s1.shear, 2.0, 0.05);
  EXPECT_LT(s1.shear, s1.squeeze);  // squeeze dominates at small gaps
}

TEST(Lubrication, EqualSphereCoefficientsMatchJeffreyOnishi) {
  // For beta = 1: g1 = 1/4, g2 = 9/40, g4 = 2/9... actually
  // g4 = 4*(2+1+2)/(15*8) = 20/120 = 1/6.
  const double xi = 1e-3;
  const auto s = sd::lubrication_scalars(xi, 1.0);
  const double log_term = std::log(1.0 / xi);
  EXPECT_NEAR(s.squeeze, 0.25 / xi + (9.0 / 40.0) * log_term, 1e-9);
  EXPECT_NEAR(s.shear, (1.0 / 6.0) * log_term, 1e-9);
}

TEST(Lubrication, PairTensorSymmetricAndPsd) {
  util::StreamRng rng(1);
  sd::LubricationParams params;
  for (int trial = 0; trial < 50; ++trial) {
    Vec3 u{rng.normal(), rng.normal(), rng.normal()};
    const double norm = u.norm();
    u *= 1.0 / norm;
    const double ri = rng.uniform(0.5, 2.0);
    const double rj = rng.uniform(0.5, 2.0);
    const double gap = rng.uniform(1e-4, 0.05) * 0.5 * (ri + rj);
    double t[9];
    sd::lubrication_pair_tensor(u, ri, rj, gap, params,
                                std::span<double, 9>(t));
    dense::Matrix m(3, 3);
    for (int r = 0; r < 3; ++r)
      for (int c = 0; c < 3; ++c) m(r, c) = t[r * 3 + c];
    EXPECT_LT(m.asymmetry(), 1e-12);
    const auto es = dense::eigen_symmetric(m);
    EXPECT_GE(es.eigenvalues.front(), -1e-10);
  }
}

TEST(Lubrication, PairTensorExchangeSymmetric) {
  // Swapping the two particles (radii swapped, axis negated) must give
  // the same tensor: the pair resistance is a property of the pair.
  sd::LubricationParams params;
  const Vec3 u{0.6, 0.64, std::sqrt(1.0 - 0.36 - 0.4096)};
  double t1[9], t2[9];
  sd::lubrication_pair_tensor(u, 0.8, 1.7, 0.01, params,
                              std::span<double, 9>(t1));
  const Vec3 nu{-u.x, -u.y, -u.z};
  sd::lubrication_pair_tensor(nu, 1.7, 0.8, 0.01, params,
                              std::span<double, 9>(t2));
  for (int k = 0; k < 9; ++k) EXPECT_NEAR(t1[k], t2[k], 1e-10);
}

TEST(Lubrication, GapFloorCapsResistance) {
  sd::LubricationParams params;
  double t_floor[9], t_below[9];
  const Vec3 u{1, 0, 0};
  sd::lubrication_pair_tensor(u, 1.0, 1.0, params.min_gap_scaled, params,
                              std::span<double, 9>(t_floor));
  sd::lubrication_pair_tensor(u, 1.0, 1.0, -0.5, params,  // overlapping
                              std::span<double, 9>(t_below));
  for (int k = 0; k < 9; ++k) EXPECT_NEAR(t_floor[k], t_below[k], 1e-10);
}

TEST(Lubrication, ActivityCutoff) {
  sd::LubricationParams params;
  params.max_gap_scaled = 0.1;
  EXPECT_TRUE(sd::lubrication_active(0.05, 1.0, 1.0, params));
  EXPECT_FALSE(sd::lubrication_active(0.15, 1.0, 1.0, params));
  EXPECT_GE(sd::lubrication_cutoff_distance(1.5, params), 3.0);
}

TEST(Rpy, SelfMobilityIsStokes) {
  double t[9];
  sd::rpy_self_tensor(2.0, 1.0, std::span<double, 9>(t));
  const double expect = 1.0 / (12.0 * std::numbers::pi);
  EXPECT_NEAR(t[0], expect, 1e-14);
  EXPECT_NEAR(t[4], expect, 1e-14);
  EXPECT_DOUBLE_EQ(t[1], 0.0);
}

TEST(Rpy, FarFieldDecaysAsOneOverR) {
  double t1[9], t2[9];
  sd::rpy_pair_tensor({4.0, 0, 0}, 1.0, 1.0, 1.0, std::span<double, 9>(t1));
  sd::rpy_pair_tensor({8.0, 0, 0}, 1.0, 1.0, 1.0, std::span<double, 9>(t2));
  EXPECT_NEAR(t1[0] / t2[0], 2.0, 0.1);  // leading Oseen ~ 1/r
}

TEST(Rpy, DenseMobilityIsSpd) {
  util::StreamRng rng(3);
  const std::size_t n = 30;
  std::vector<Vec3> pos(n);
  std::vector<double> radii(n);
  const double box_len = 30.0;
  for (std::size_t i = 0; i < n; ++i) {
    pos[i] = {rng.uniform(0, box_len), rng.uniform(0, box_len),
              rng.uniform(0, box_len)};
    radii[i] = rng.uniform(0.8, 1.2);
  }
  const sd::ParticleSystem system(std::move(pos), std::move(radii),
                                  sd::PeriodicBox(box_len));
  const auto m = sd::rpy_mobility_dense(system);
  EXPECT_LT(m.asymmetry(), 1e-12);
  const auto es = dense::eigen_symmetric(m);
  EXPECT_GT(es.eigenvalues.front(), 0.0);
}

TEST(Rpy, OverlapFormContinuousAtContact) {
  double t_out[9], t_in[9];
  const double eps = 1e-9;
  sd::rpy_pair_tensor({2.0 + eps, 0, 0}, 1.0, 1.0, 1.0,
                      std::span<double, 9>(t_out));
  sd::rpy_pair_tensor({2.0 - eps, 0, 0}, 1.0, 1.0, 1.0,
                      std::span<double, 9>(t_in));
  for (int k = 0; k < 9; ++k) EXPECT_NEAR(t_out[k], t_in[k], 1e-6);
}

TEST(EffectiveViscosity, IncreasesWithOccupancy) {
  EXPECT_DOUBLE_EQ(sd::effective_viscosity_ratio(0.0), 1.0);
  EXPECT_GT(sd::effective_viscosity_ratio(0.3),
            sd::effective_viscosity_ratio(0.1));
  EXPECT_GT(sd::effective_viscosity_ratio(0.5),
            sd::effective_viscosity_ratio(0.3));
  // Dilute limit of the (unsquared) Eilers form: 1 + 1.25 phi.
  EXPECT_NEAR(sd::effective_viscosity_ratio(0.01), 1.0125, 0.002);
}

TEST(EffectiveViscosity, DragScalesWithRadius) {
  const double d1 = sd::far_field_drag(1.0, 1.0, 0.3);
  const double d2 = sd::far_field_drag(2.0, 1.0, 0.3);
  EXPECT_NEAR(d2 / d1, 2.0, 1e-12);
}

sd::ParticleSystem small_packed_system(std::size_t n, double phi,
                                       std::uint64_t seed) {
  auto radii =
      sd::sample_radii(sd::ecoli_cytoplasm_distribution(), n, seed);
  sd::PackingParams params;
  params.seed = seed;
  return sd::pack_particles(std::move(radii), phi, params);
}

class PackingParamTest : public ::testing::TestWithParam<double> {};

TEST_P(PackingParamTest, ReachesOccupancyWithoutOverlap) {
  const double phi = GetParam();
  sd::PackingParams params;
  params.seed = 11;
  sd::PackingReport report;
  auto radii = sd::sample_radii(sd::ecoli_cytoplasm_distribution(), 150, 11);
  const auto system = sd::pack_particles(std::move(radii), phi, params,
                                         &report);
  EXPECT_TRUE(report.success);
  EXPECT_NEAR(system.volume_fraction(), phi, 1e-9);
  // The packer admits residual overlaps below its tolerance (~1e-9 of
  // a radius); none deeper than that may survive.
  EXPECT_EQ(system.overlap_count_bruteforce(1e-6), 0u);
}

INSTANTIATE_TEST_SUITE_P(Occupancies, PackingParamTest,
                         ::testing::Values(0.1, 0.3, 0.5),
                         [](const auto& param_info) {
                           return "phi" + std::to_string(static_cast<int>(
                                              param_info.param * 100));
                         });

TEST(Resistance, AssembledMatrixSymmetric) {
  const auto system = small_packed_system(100, 0.4, 21);
  sd::ResistanceParams params;
  const auto result = sd::AssemblyEngine(params).assemble_full(system);
  const auto& r = result.matrix;
  const auto& stats = result.stats;
  EXPECT_EQ(r.block_rows(), 100u);
  EXPECT_LT(r.asymmetry(), 1e-12);
  EXPECT_GT(stats.pairs_in_cutoff, 0u);
  EXPECT_GE(stats.pairs_in_cutoff, stats.pairs_active);
}

TEST(Resistance, AssembledMatrixPositiveDefinite) {
  const auto system = small_packed_system(60, 0.45, 23);
  sd::ResistanceParams params;
  const auto r = sd::AssemblyEngine(params).assemble_full(system).matrix;
  const auto es = dense::eigen_symmetric(r.to_dense());
  EXPECT_GT(es.eigenvalues.front(), 0.0);
}

TEST(Resistance, RowSumsEqualFarFieldDrag) {
  // The lubrication part annihilates rigid-body translation (relative
  // motion projection), so R * (1,1,1,...) = mu_F_i per particle.
  const auto system = small_packed_system(80, 0.45, 25);
  sd::ResistanceParams params;
  const auto r = sd::AssemblyEngine(params).assemble_full(system).matrix;
  std::vector<double> ones(r.cols(), 1.0), out(r.rows());
  r.to_csr().multiply(ones, out);
  const double phi = system.volume_fraction();
  for (std::size_t i = 0; i < system.size(); ++i) {
    const double drag = sd::far_field_drag(system.radii()[i], 1.0, phi);
    for (int c = 0; c < 3; ++c) {
      EXPECT_NEAR(out[3 * i + c], drag, 1e-8 * drag);
    }
  }
}

// The full assembler's layout before rows were laid out sorted: the
// diagonal first in each row, pair blocks appended in emission order
// (the diagonal accumulating in that order), then every row sorted by
// column, blocks moved along.
struct PreviousLayout {
  std::vector<std::int64_t> row_ptr;
  std::vector<std::int32_t> col_idx;
  std::vector<double> values;
};

PreviousLayout previous_layout_assembly(const sd::ParticleSystem& system,
                                        const sd::ResistanceParams& params) {
  const std::size_t n = system.size();
  const auto radii = system.radii();
  const double phi = system.volume_fraction();
  const sd::CellList cells(
      system,
      sd::lubrication_cutoff_distance(system.max_radius(), params.lubrication));
  struct Rec {
    std::size_t i;
    std::size_t j;
    double t[9];
  };
  std::vector<Rec> recs;
  cells.for_each_interacting_pair(
      params.lubrication.max_gap_scaled, [&](const sd::Pair& p) {
        if (!sd::lubrication_active(p.gap, radii[p.i], radii[p.j],
                                    params.lubrication)) {
          return;
        }
        Rec rec{p.i, p.j, {}};
        sd::lubrication_pair_tensor(p.unit, radii[p.i], radii[p.j], p.gap,
                                    params.lubrication,
                                    std::span<double, 9>(rec.t));
        recs.push_back(rec);
      });

  PreviousLayout out;
  auto& row_ptr = out.row_ptr;
  row_ptr.assign(n + 1, 0);
  for (const Rec& rec : recs) {
    ++row_ptr[rec.i + 1];
    ++row_ptr[rec.j + 1];
  }
  for (std::size_t i = 0; i < n; ++i) row_ptr[i + 1] += 1 + row_ptr[i];
  const auto nnzb = static_cast<std::size_t>(row_ptr[n]);
  out.col_idx.assign(nnzb, 0);
  out.values.assign(9 * nnzb, 0.0);
  std::vector<std::int64_t> cursor(row_ptr.begin(), row_ptr.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    const auto slot = static_cast<std::size_t>(cursor[i]++);
    out.col_idx[slot] = static_cast<std::int32_t>(i);
    const double drag = sd::far_field_drag(radii[i], params.viscosity, phi);
    out.values[9 * slot] = out.values[9 * slot + 4] =
        out.values[9 * slot + 8] = drag;
  }
  for (const Rec& rec : recs) {
    double* diag_i = &out.values[9 * static_cast<std::size_t>(row_ptr[rec.i])];
    double* diag_j = &out.values[9 * static_cast<std::size_t>(row_ptr[rec.j])];
    const auto slot_ij = static_cast<std::size_t>(cursor[rec.i]++);
    const auto slot_ji = static_cast<std::size_t>(cursor[rec.j]++);
    out.col_idx[slot_ij] = static_cast<std::int32_t>(rec.j);
    out.col_idx[slot_ji] = static_cast<std::int32_t>(rec.i);
    for (int k = 0; k < 9; ++k) {
      diag_i[k] += rec.t[k];
      diag_j[k] += rec.t[k];
      out.values[9 * slot_ij + k] = -rec.t[k];
      out.values[9 * slot_ji + k] = -rec.t[k];
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const auto lo = static_cast<std::size_t>(row_ptr[i]);
    const auto len = static_cast<std::size_t>(row_ptr[i + 1]) - lo;
    std::vector<std::size_t> order(len);
    for (std::size_t k = 0; k < len; ++k) order[k] = k;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return out.col_idx[lo + a] < out.col_idx[lo + b];
    });
    std::vector<std::int32_t> cols(len);
    std::vector<double> vals(9 * len);
    for (std::size_t k = 0; k < len; ++k) {
      cols[k] = out.col_idx[lo + order[k]];
      std::copy_n(&out.values[9 * (lo + order[k])], 9, &vals[9 * k]);
    }
    std::copy(cols.begin(), cols.end(), &out.col_idx[lo]);
    std::copy(vals.begin(), vals.end(), &out.values[9 * lo]);
  }
  return out;
}

sd::ParticleSystem random_polydisperse_system(std::size_t n, double box_len,
                                              double max_radius,
                                              std::uint64_t seed) {
  util::StreamRng rng(seed);
  std::vector<Vec3> pos(n);
  std::vector<double> radii(n);
  for (std::size_t i = 0; i < n; ++i) {
    pos[i] = {rng.uniform(0, box_len), rng.uniform(0, box_len),
              rng.uniform(0, box_len)};
    radii[i] = rng.uniform(0.5, max_radius);
  }
  return {std::move(pos), std::move(radii), sd::PeriodicBox(box_len)};
}

TEST(Resistance, FullAssemblyMatchesPreviousLayoutBitwise) {
  struct Case {
    const char* regime;
    sd::ParticleSystem system;
    double max_gap_scaled;
    bool one_cell;
  };
  const Case cases[] = {
      // SdConfig's cutoff with the 3.14 largest radius: the box is
      // narrower than 9/4 of the cutoff, all pairs in (i, j) order.
      {"all pairs", random_polydisperse_system(200, 14.0, 3.14, 31), 2.05,
       true},
      // A short cutoff in a wide box: cell-list order, rows to sort.
      {"cell list", random_polydisperse_system(400, 20.0, 1.5, 32), 0.5,
       false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.regime);
    sd::ResistanceParams params;
    params.lubrication.max_gap_scaled = c.max_gap_scaled;
    const sd::CellList cells(
        c.system, sd::lubrication_cutoff_distance(c.system.max_radius(),
                                                  params.lubrication));
    if (c.one_cell) {
      ASSERT_EQ(cells.cells_per_side(), 1u);
    } else {
      ASSERT_GE(cells.cells_per_side(), 3u);
      // Some row must really arrive out of column order.
      std::vector<std::size_t> last_upper(c.system.size(), 0);
      bool out_of_order = false;
      cells.for_each_interacting_pair(
          params.lubrication.max_gap_scaled, [&](const sd::Pair& p) {
            out_of_order = out_of_order || p.j < last_upper[p.i];
            last_upper[p.i] = p.j;
          });
      ASSERT_TRUE(out_of_order);
    }

    const auto expected = previous_layout_assembly(c.system, params);
    const auto result = sd::AssemblyEngine(params).assemble_full(c.system);
    const auto& r = result.matrix;
    ASSERT_GT(result.stats.pairs_active, 0u);
    const std::size_t n = c.system.size();
    if (c.one_cell) {
      EXPECT_EQ(result.stats.pairs_examined, n * (n - 1) / 2);
    } else {
      EXPECT_LT(result.stats.pairs_examined, n * (n - 1) / 2);
      EXPECT_GE(result.stats.pairs_examined, result.stats.pairs_in_cutoff);
    }
    ASSERT_EQ(r.row_ptr().size(), expected.row_ptr.size());
    ASSERT_EQ(r.col_idx().size(), expected.col_idx.size());
    ASSERT_EQ(r.values().size(), expected.values.size());
    EXPECT_EQ(std::memcmp(r.row_ptr().data(), expected.row_ptr.data(),
                          expected.row_ptr.size() * sizeof(std::int64_t)),
              0);
    EXPECT_EQ(std::memcmp(r.col_idx().data(), expected.col_idx.data(),
                          expected.col_idx.size() * sizeof(std::int32_t)),
              0);
    EXPECT_EQ(std::memcmp(r.values().data(), expected.values.data(),
                          expected.values.size() * sizeof(double)),
              0);
  }
}

TEST(Packing, EquilibriumPadShrinksWithOccupancy) {
  EXPECT_GT(sd::equilibrium_pad(0.1), sd::equilibrium_pad(0.3));
  EXPECT_GT(sd::equilibrium_pad(0.3), sd::equilibrium_pad(0.5));
  EXPECT_THROW((void)sd::equilibrium_pad(0.0), std::invalid_argument);
}

TEST(Packing, EquilibratedSystemHasRealGaps) {
  auto radii = sd::sample_radii(sd::ecoli_cytoplasm_distribution(), 120, 33);
  sd::PackingParams params;
  params.seed = 33;
  const auto system = sd::pack_equilibrated(std::move(radii), 0.4, params);
  EXPECT_EQ(system.overlap_count_bruteforce(1e-6), 0u);
  // Min gap should be on the order of the pad (times the smallest
  // pair diameter ~ 1.2), not the packer tolerance.
  EXPECT_GT(system.min_gap_bruteforce(), sd::equilibrium_pad(0.4));
}

TEST(Resistance, ConditioningWorsensWithOccupancy) {
  // Denser equilibrium systems have closer pairs -> larger lubrication
  // entries -> worse conditioning. This drives the paper's Table V.
  // Dilute systems are hydrodynamically decoupled (condition set by
  // the radius spread only); the crowded system must be much stiffer.
  auto condition_at = [](double phi) {
    auto radii = sd::sample_radii(sd::ecoli_cytoplasm_distribution(), 70, 27);
    sd::PackingParams packing;
    packing.seed = 27;
    const auto system = sd::pack_equilibrated(std::move(radii), phi, packing);
    sd::ResistanceParams params;
    const auto r = sd::AssemblyEngine(params).assemble_full(system).matrix;
    const auto es = dense::eigen_symmetric(r.to_dense());
    return es.eigenvalues.back() / es.eigenvalues.front();
  };
  const double dilute = condition_at(0.2);
  const double mid = condition_at(0.4);
  const double crowded = condition_at(0.5);
  EXPECT_GT(crowded, 3.0 * dilute);
  EXPECT_GT(crowded, mid);
  EXPECT_GE(mid, 0.8 * dilute);  // no pathological inversion
}

TEST(Resistance, CutoffControlsSparsity) {
  const auto system = small_packed_system(120, 0.5, 29);
  double prev = 0.0;
  for (double cutoff : {0.1, 1.0, 3.0}) {
    sd::ResistanceParams params;
    params.lubrication.max_gap_scaled = cutoff;
    const auto r = sd::AssemblyEngine(params).assemble_full(system).matrix;
    EXPECT_GT(r.blocks_per_row(), prev);
    prev = r.blocks_per_row();
  }
}

TEST(Resistance, DiluteSystemIsNearlyDiagonal) {
  const auto system = small_packed_system(60, 0.05, 31);
  sd::ResistanceParams params;
  const auto r = sd::AssemblyEngine(params).assemble_full(system).matrix;
  // At 5% occupancy with a 0.1 gap cutoff almost no pairs touch.
  EXPECT_LT(r.blocks_per_row(), 2.0);
}

}  // namespace
