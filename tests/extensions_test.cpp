// Tests for the extension modules: the distributed LinearOperator,
// the RPY mobility, MSD analysis and Brownian dynamics.
#include <gtest/gtest.h>

#include <vector>

#include "cluster/distributed_operator.hpp"
#include "cluster/partitioner.hpp"
#include "core/sd_simulation.hpp"
#include "core/stepper.hpp"
#include "dense/matrix.hpp"
#include "sd/analysis.hpp"
#include "sd/mobility_operator.hpp"
#include "sd/rpy.hpp"
#include "solver/block_cg.hpp"
#include "solver/cg.hpp"
#include "sparse/bcrs.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace mrhs;

TEST(DistributedOperator, CgMatchesSingleNodeSolve) {
  core::SdConfig config;
  config.particles = 200;
  config.phi = 0.45;
  config.seed = 17;
  core::SdSimulation sim(config);
  const auto r = sim.assemble().matrix;

  solver::BcrsOperator local(r, 1);
  const auto part = cluster::partition_coordinate_grid(sim.system(), r, 4);
  const cluster::DistributedOperator dist(r, part);
  ASSERT_EQ(dist.size(), local.size());

  std::vector<double> b(local.size());
  sim.noise(0, b);
  std::vector<double> x_local(local.size(), 0.0), x_dist(local.size(), 0.0);
  const auto res_local = solver::conjugate_gradient(local, b, x_local);
  const auto res_dist = solver::conjugate_gradient(dist, b, x_dist);
  EXPECT_TRUE(res_local.converged());
  EXPECT_TRUE(res_dist.converged());
  EXPECT_NEAR(static_cast<double>(res_dist.iterations),
              static_cast<double>(res_local.iterations), 3.0);
  EXPECT_LT(util::diff_norm2(x_local, x_dist),
            1e-4 * (1.0 + util::norm2(x_local)));
}

TEST(DistributedOperator, BlockCgRunsOnPartitionedMatrix) {
  // The MRHS augmented solve composed with the distributed substrate.
  core::SdConfig config;
  config.particles = 150;
  config.phi = 0.4;
  config.seed = 19;
  core::SdSimulation sim(config);
  const auto r = sim.assemble().matrix;
  const auto part = cluster::partition_coordinate_grid(sim.system(), r, 3);
  const cluster::DistributedOperator dist(r, part);

  const std::size_t m = 4;
  util::StreamRng rng(21);
  sparse::MultiVector b(dist.size(), m), x(dist.size(), m);
  b.fill_normal(rng);
  const auto result = solver::block_conjugate_gradient(dist, b, x);
  EXPECT_TRUE(result.converged());
}

TEST(MobilityOperator, MatchesDenseRpy) {
  core::SdConfig config;
  config.particles = 60;
  config.phi = 0.3;
  config.seed = 23;
  core::SdSimulation sim(config);
  const sd::RpyMobilityOperator mobility(sim.system());
  const auto dense_m = sd::rpy_mobility_dense(sim.system());

  util::StreamRng rng(25);
  std::vector<double> x(mobility.size()), y(mobility.size()),
      y_ref(mobility.size(), 0.0);
  rng.fill_normal(x);
  mobility.apply(x, y);
  dense::gemv(1.0, dense_m, x, 0.0, y_ref);
  EXPECT_LT(util::diff_norm2(y, y_ref), 1e-10 * (1.0 + util::norm2(y_ref)));

  // Block apply matches columnwise apply.
  const std::size_t m = 3;
  sparse::MultiVector xm(mobility.size(), m), ym(mobility.size(), m);
  xm.fill_normal(rng);
  mobility.apply_block(xm, ym);
  std::vector<double> xc(mobility.size()), yc(mobility.size()),
      ycol(mobility.size());
  for (std::size_t j = 0; j < m; ++j) {
    xm.copy_col_out(j, xc);
    mobility.apply(xc, yc);
    ym.copy_col_out(j, ycol);
    EXPECT_LT(util::diff_norm2(yc, ycol), 1e-11 * (1.0 + util::norm2(yc)));
  }
}

TEST(BrownianDynamics, DiluteDiffusionMatchesStokesEinstein) {
  // The BD comparator with RPY mobility: dilute diffusion should land
  // on Stokes–Einstein with the *bare* viscosity (no crowding model).
  core::SdConfig config;
  config.particles = 100;
  config.phi = 0.05;
  config.seed = 27;
  core::SdSimulation sim(config);
  core::BrownianDynamicsAlgorithm bd(sim);
  const std::size_t steps = 24;
  bd.run(steps);
  const double t = sim.dt() * static_cast<double>(steps);
  const double d = sim.system().mean_squared_displacement() / (6.0 * t);
  double d_ref = 0.0;
  for (double a : sim.system().radii()) {
    d_ref += sd::stokes_einstein_d(config.kT, config.viscosity, a);
  }
  d_ref /= static_cast<double>(sim.system().size());
  EXPECT_GT(d, 0.5 * d_ref);
  EXPECT_LT(d, 1.5 * d_ref);
}

TEST(BrownianDynamics, MissesLubricationBraking) {
  // The paper's central contrast: without lubrication, crowded BD
  // particles keep diffusing near their dilute rate, while SD slows
  // dramatically. Compare per-step MSD at phi = 0.5.
  core::SdConfig config;
  config.particles = 100;
  config.phi = 0.5;
  config.seed = 29;
  const std::size_t steps = 8;

  core::SdSimulation sim_bd(config), sim_sd(config);
  core::BrownianDynamicsAlgorithm bd(sim_bd);
  core::OriginalAlgorithm sd_alg(sim_sd);
  bd.run(steps);
  sd_alg.run(steps);
  const double msd_bd = sim_bd.system().mean_squared_displacement();
  const double msd_sd = sim_sd.system().mean_squared_displacement();
  EXPECT_GT(msd_bd, 1.5 * msd_sd);
}

}  // namespace
