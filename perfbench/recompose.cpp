// Traced recomposition of the library's stepping algorithms from their
// public building blocks. Each function follows the corresponding
// library code call for call (MrhsAlgorithm::begin_chunk and
// mrhs_guided_step, OriginalAlgorithm::run, EnsembleRunner::run), so a
// recomposed trajectory is bitwise equal to the library's own; the
// benchmark checks that equality on every traced run. When a library
// algorithm changes, this file must follow it, and the check says so.
#include <cmath>
#include <vector>

#include "bench.hpp"
#include "core/health.hpp"
#include "solver/block_cg.hpp"
#include "solver/cg.hpp"
#include "solver/chebyshev.hpp"
#include "solver/fault_tolerance.hpp"
#include "util/stats.hpp"

namespace perfbench {

using mrhs::core::SdConfig;
using mrhs::core::SdSimulation;
using mrhs::core::StepRecord;
using mrhs::solver::SolveStatus;
using mrhs::sparse::MultiVector;

namespace {

mrhs::solver::CgOptions cg_options(const SdConfig& config) {
  mrhs::solver::CgOptions opts;
  opts.tol = config.solver_tol;
  opts.max_iters = config.solver_max_iters;
  return opts;
}

double amplitude(const SdSimulation& sim) {
  return std::sqrt(2.0 * sim.config().kT / sim.dt());
}

mrhs::sparse::BcrsMatrix assemble(SdSimulation& sim, StepCounters& c) {
  ScopedSpan s(span::kAssemble);
  auto result = sim.engine().assemble_incremental(sim.system());
  ++c.assemble_calls;
  c.pairs_recomputed += result.stats.pairs_dirty;
  c.blocks_reused += result.stats.blocks_reused;
  if (result.stats.pattern_rebuilt) ++c.pattern_rebuilds;
  c.matrix_bytes = static_cast<double>(result.matrix.matrix_bytes());
  return std::move(result.matrix);
}

std::size_t cg(const mrhs::solver::LinearOperator& op,
               std::span<const double> f, std::span<double> u,
               const SdConfig& config, const char* name, StepCounters& c) {
  ScopedSpan s(name);
  const auto result = mrhs::solver::conjugate_gradient(op, f, u,
                                                       cg_options(config));
  if (result.status != SolveStatus::kConverged) ++c.unconverged;
  return result.iterations;
}

/// Midpoint half step, second solve seeded with u, full step from the
/// step-start snapshot (the shared tail of every step).
void midpoint_and_advance(SdSimulation& sim, StepRecord& rec,
                          const std::vector<double>& f,
                          const std::vector<double>& u, StepCounters& c) {
  const double dt = sim.dt();
  const double max_step = sim.max_step_length();
  mrhs::sd::ParticleSystem::Snapshot start;
  {
    ScopedSpan s(span::kAdvance);
    start = sim.system().snapshot();
    sim.system().advance(u, 0.5 * dt, max_step);
  }
  const auto r_half = assemble(sim, c);
  const TracedOperator op_half(r_half, sim.config().threads);
  std::vector<double> u_mid = u;
  rec.iters_second_solve =
      cg(op_half, f, u_mid, sim.config(), span::kCgSecond, c);
  c.cg_second_iterations += rec.iters_second_solve;
  {
    ScopedSpan s(span::kAdvance);
    sim.system().restore(start);
    sim.system().advance(u_mid, dt, max_step);
  }
  ++c.steps;
}

/// mrhs_guided_step: single-vector Chebyshev at the current
/// configuration against `bounds`, first solve from `guess`.
StepRecord guided_step(SdSimulation& sim, std::size_t step,
                       const mrhs::solver::EigBounds& bounds,
                       std::span<const double> guess, StepCounters& c) {
  const SdConfig& config = sim.config();
  const std::size_t n = sim.dof();
  StepRecord rec;
  rec.step = step;
  const auto r_k = assemble(sim, c);
  const TracedOperator op(r_k, config.threads);
  std::vector<double> z(n), f(n), u(n);
  {
    ScopedSpan s(span::kNoise);
    sim.noise(step, z);
  }
  {
    ScopedSpan s(span::kChebSingle);
    const mrhs::solver::ChebyshevSqrt cheb_k(bounds, config.chebyshev_order);
    cheb_k.apply(op, z, f);
    const double amp = amplitude(sim);
    for (double& v : f) v *= -amp;
  }
  const bool have_guess = !guess.empty();
  if (have_guess) {
    std::copy(guess.begin(), guess.end(), u.begin());
  }
  rec.iters_first_solve = cg(op, f, u, config, span::kCgFirst, c);
  c.cg_first_iterations += rec.iters_first_solve;
  if (have_guess) {
    const double u_norm = mrhs::util::norm2(u);
    rec.guess_rel_error =
        u_norm > 0.0 ? mrhs::util::diff_norm2(u, guess) / u_norm : 0.0;
  }
  midpoint_and_advance(sim, rec, f, u, c);
  return rec;
}

mrhs::solver::LadderOptions ladder_options(const SdConfig& config) {
  mrhs::solver::LadderOptions lopts;
  lopts.controls.tol = config.solver_tol;
  lopts.controls.max_iters = config.solver_max_iters;
  return lopts;
}

/// Block solve through the fault-tolerance ladder; false when the
/// guesses must be dropped.
bool block_solve(const mrhs::solver::LinearOperator& op, const MultiVector& b,
                 MultiVector& x, const SdConfig& config, StepCounters& c) {
  ScopedSpan s(span::kBlockSolve, b.cols());
  const auto result =
      mrhs::solver::block_solve_with_ladder(op, b, x, ladder_options(config));
  c.block_iterations += result.iterations;
  ++c.chunks;
  if (result.status != SolveStatus::kConverged ||
      result.rung != mrhs::solver::LadderRung::kBlockCg) {
    ++c.unconverged;
  }
  return result.succeeded();
}

}  // namespace

MrhsRecomposition::MrhsRecomposition(SdSimulation& sim, std::size_t rhs,
                                     std::size_t horizon,
                                     StepCounters& counters)
    : sim_(&sim), rhs_(rhs), horizon_end_(horizon), counters_(&counters) {}

void MrhsRecomposition::step() {
  ScopedSpan step_span(span::kStep);
  StepCounters& c = *counters_;
  const SdConfig& config = sim_->config();
  const std::size_t n = sim_->dof();
  if (chunk_pos_ < chunk_len_) {
    std::vector<double> guess;
    if (guesses_ok_) {
      guess.resize(n);
      guesses_.copy_col_out(chunk_pos_, guess);
    }
    static_cast<void>(guided_step(*sim_, step_, bounds_, guess, c));
    ++step_;
    ++chunk_pos_;
    return;
  }

  // Chunk start: the block phases, then step 0 of the chunk.
  chunk_len_ = std::min(rhs_, horizon_end_ - step_);
  chunk_pos_ = 0;
  const std::size_t m = chunk_len_;
  const auto r_0 = assemble(*sim_, c);
  const TracedOperator op0(r_0, config.threads);
  c.gspmv_bytes = op0.apply_bytes(rhs_);
  c.gspmv_flops = op0.apply_flops(rhs_);
  {
    ScopedSpan s(span::kLanczos);
    bounds_ = mrhs::solver::lanczos_bounds(op0);
  }
  const mrhs::solver::ChebyshevSqrt cheb(bounds_, config.chebyshev_order);
  MultiVector z_block(n, m);
  {
    ScopedSpan s(span::kNoise);
    std::vector<double> z(n);
    for (std::size_t k = 0; k < m; ++k) {
      sim_->noise(step_ + k, z);
      z_block.copy_col_in(k, z);
    }
  }
  MultiVector rhs_block(n, m);
  {
    ScopedSpan s(span::kChebBlock, m);
    cheb.apply_block(op0, z_block, rhs_block);
    rhs_block.scale(-amplitude(*sim_));
  }
  guesses_ = MultiVector(n, m);
  guesses_ok_ = block_solve(op0, rhs_block, guesses_, config, c);
  if (!guesses_ok_) guesses_.set_zero();

  StepRecord rec;
  rec.step = step_;
  std::vector<double> f(n), u(n);
  rhs_block.copy_col_out(0, f);
  if (guesses_ok_) {
    guesses_.copy_col_out(0, u);
  } else {
    rec.iters_first_solve = cg(op0, f, u, config, span::kCgFirst, c);
    c.cg_first_iterations += rec.iters_first_solve;
    }
  midpoint_and_advance(*sim_, rec, f, u, c);
  ++step_;
  chunk_pos_ = 1;
}

void OriginalRecomposition::step() {
  ScopedSpan step_span(span::kStep);
  StepCounters& c = *counters_;
  const SdConfig& config = sim_->config();
  const std::size_t n = sim_->dof();
  // OriginalAlgorithm's default Lanczos refresh period.
  const std::size_t refresh = mrhs::core::AlgorithmConfig{}.bounds_refresh;
  StepRecord rec;
  rec.step = step_;
  const auto r_k = assemble(*sim_, c);
  const TracedOperator op(r_k, config.threads);
  if (!have_bounds_ || step_ % refresh == 0) {
    ScopedSpan s(span::kLanczos);
    bounds_ = mrhs::solver::lanczos_bounds(op);
    have_bounds_ = true;
  }
  const mrhs::solver::ChebyshevSqrt cheb(bounds_, config.chebyshev_order);
  std::vector<double> z(n), f(n), u(n, 0.0);
  {
    ScopedSpan s(span::kNoise);
    sim_->noise(step_, z);
  }
  {
    ScopedSpan s(span::kChebSingle);
    cheb.apply(op, z, f);
    const double amp = amplitude(*sim_);
    for (double& v : f) v *= -amp;
  }
  rec.iters_first_solve = cg(op, f, u, config, span::kCgFirst, c);
  c.cg_first_iterations += rec.iters_first_solve;
  midpoint_and_advance(*sim_, rec, f, u, c);
  ++step_;
}

std::vector<RecomposedMember> recompose_ensemble_batch(
    const SdSimulation& base, std::span<const std::uint64_t> seeds,
    std::size_t steps, std::size_t rhs, StepCounters& c) {
  const SdConfig& config = base.config();
  const std::size_t n = base.dof();
  // The shared reference operator on the pristine configuration, from
  // a fresh engine (the runner assembles it from its own packing).
  SdSimulation ref_sim(config, base.system(), base.dt(), base.mean_radius());
  std::optional<ScopedSpan> ref_setup(std::in_place, span::kRefSetup);
  const auto ref_matrix = assemble(ref_sim, c);
  const TracedOperator ref_op(ref_matrix, config.threads);
  mrhs::solver::EigBounds ref_bounds;
  {
    ScopedSpan s(span::kLanczos);
    ref_bounds = mrhs::solver::lanczos_bounds(ref_op);
  }
  ref_setup.reset();
  const mrhs::solver::ChebyshevSqrt ref_cheb(ref_bounds,
                                             config.chebyshev_order);
  c.gspmv_bytes = ref_op.apply_bytes(rhs);
  c.gspmv_flops = ref_op.apply_flops(rhs);

  std::vector<RecomposedMember> members(seeds.size());
  std::vector<mrhs::core::StepHealthMonitor> monitors;
  monitors.reserve(seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    SdConfig member_config = config;
    member_config.seed = seeds[i];
    members[i].sim.emplace(member_config, base.system(), base.dt(),
                           base.mean_radius());
    monitors.emplace_back(*members[i].sim);
  }

  for (std::size_t done = 0; done < steps;) {
    const std::size_t cols = std::min(rhs, steps - done);
    std::vector<mrhs::solver::EigBounds> bounds(members.size());
    std::vector<MultiVector> guesses(members.size());
    std::vector<bool> guesses_ok(members.size(), false);
    {
      ScopedSpan round(span::kRound);
      for (std::size_t i = 0; i < members.size(); ++i) {
        const auto r = assemble(*members[i].sim, c);
        const TracedOperator op(r, config.threads);
        ScopedSpan s(span::kLanczos);
        bounds[i] = mrhs::solver::lanczos_bounds(op);
        monitors[i].set_bounds(bounds[i]);
      }
      // A width-1 pack is padded with a zero column, as in the runner.
      const std::size_t width = std::max<std::size_t>(cols * members.size(), 2);
      MultiVector pack(n, width);
      {
        ScopedSpan s(span::kNoise);
        std::vector<double> z(n);
        for (std::size_t i = 0; i < members.size(); ++i) {
          for (std::size_t k = 0; k < cols; ++k) {
            members[i].sim->noise(done + k, z);
            for (std::size_t row = 0; row < n; ++row) {
              pack(row, i * cols + k) = z[row];
            }
          }
        }
      }
      MultiVector forces(n, width);
      {
        ScopedSpan s(span::kChebBlock, width);
        ref_cheb.apply_block(ref_op, pack, forces);
      }
      for (std::size_t i = 0; i < members.size(); ++i) {
        const double amp = amplitude(*members[i].sim);
        MultiVector b(n, cols);
        for (std::size_t row = 0; row < n; ++row) {
          for (std::size_t k = 0; k < cols; ++k) {
            b(row, k) = -amp * forces(row, i * cols + k);
          }
        }
        guesses[i] = MultiVector(n, cols);
        guesses_ok[i] = block_solve(ref_op, b, guesses[i], config, c);
        bool finite = true;
        for (std::size_t j = 0; j < n * cols; ++j) {
          finite = finite && std::isfinite(guesses[i].data()[j]);
        }
        if (!guesses_ok[i] || !finite) {
          guesses[i].set_zero();
          guesses_ok[i] = false;
        }
      }
    }
    for (std::size_t i = 0; i < members.size(); ++i) {
      std::vector<double> guess;
      for (std::size_t k = 0; k < cols; ++k) {
        ScopedSpan step_span(span::kStep);
        std::span<const double> guess_span;
        if (guesses_ok[i]) {
          guess.resize(n);
          guesses[i].copy_col_out(k, guess);
          guess_span = guess;
        }
        const StepRecord rec =
            guided_step(*members[i].sim, done + k, bounds[i], guess_span, c);
        // As in the runner, only a corrupt verdict is a fault.
        if (monitors[i].check(rec).corrupt()) members[i].healthy = false;
      }
    }
    done += cols;
  }
  for (RecomposedMember& m : members) {
    m.positions_crc = positions_crc(m.sim->system());
    m.healthy = m.healthy && positions_finite(m.sim->system());
  }
  return members;
}

}  // namespace perfbench
