#include "solver/fault_tolerance.hpp"

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include "obs/obs.hpp"
#include "solver/block_cg.hpp"
#include "solver/cg.hpp"

namespace mrhs::solver {

namespace {

/// Replace non-finite entries of `x` column-wise with the matching
/// column of `fallback` (zero when the fallback is poisoned too).
/// Returns the number of columns touched.
std::size_t scrub_nonfinite(sparse::MultiVector& x,
                            const sparse::MultiVector& fallback) {
  const std::size_t n = x.rows();
  const std::size_t m = x.cols();
  std::vector<bool> bad(m, false);
  for (std::size_t i = 0; i < n; ++i) {
    const auto row = x.row(i);
    for (std::size_t j = 0; j < m; ++j) {
      if (!std::isfinite(row[j])) bad[j] = true;
    }
  }
  std::size_t scrubbed = 0;
  for (std::size_t j = 0; j < m; ++j) {
    if (!bad[j]) continue;
    ++scrubbed;
    bool fallback_ok = true;
    for (std::size_t i = 0; i < n; ++i) {
      if (!std::isfinite(fallback(i, j))) {
        fallback_ok = false;
        break;
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      x(i, j) = fallback_ok ? fallback(i, j) : 0.0;
    }
  }
  return scrubbed;
}

/// True per-column relative residuals ||b_j - A x_j|| / ||b_j|| of the
/// final iterate, measured with a fresh operator application so the
/// report cannot inherit stale state from a failed rung.
std::vector<double> true_residuals(const LinearOperator& a,
                                   const sparse::MultiVector& b,
                                   const sparse::MultiVector& x) {
  const std::size_t m = b.cols();
  sparse::MultiVector r(b.rows(), m);
  a.apply_block(x, r);
  axpby(1.0, b, -1.0, r);
  std::vector<double> norms(m), b_norms(m);
  r.col_norms(norms);
  b.col_norms(b_norms);
  for (std::size_t j = 0; j < m; ++j) {
    norms[j] /= (b_norms[j] > 0.0 ? b_norms[j] : 1.0);
  }
  return norms;
}

[[nodiscard]] bool all_below(const std::vector<double>& residuals,
                             double tol) {
  for (const double r : residuals) {
    if (!(r <= tol)) return false;  // NaN fails this deliberately.
  }
  return true;
}

void record_rung(LadderRung rung) {
  switch (rung) {
    case LadderRung::kBlockCg:
      OBS_COUNTER_ADD("ladder.rung.block_cg", 1);
      break;
    case LadderRung::kBlockRestart:
      OBS_COUNTER_ADD("ladder.rung.block_restart", 1);
      break;
    case LadderRung::kPerColumnCg:
      OBS_COUNTER_ADD("ladder.rung.per_column_cg", 1);
      break;
    case LadderRung::kRelaxedCg:
      OBS_COUNTER_ADD("ladder.rung.relaxed_cg", 1);
      break;
  }
  OBS_INSTANT("ladder.escalate");
}

/// Per-column CG sweep over the not-yet-converged columns. Adds the
/// worst single-column iteration count to `result.iterations` and
/// returns true when every column met `tol`.
bool per_column_sweep(const LinearOperator& a, const sparse::MultiVector& b,
                      sparse::MultiVector& x, const SolveControls& controls,
                      double tol, LadderResult& result) {
  const std::size_t n = b.rows();
  const std::size_t m = b.cols();
  std::vector<double> bj(n), xj(n);
  std::size_t worst_iters = 0;
  bool all_ok = true;
  CgOptions cg_opts;
  static_cast<SolveControls&>(cg_opts) = controls;
  cg_opts.tol = tol;
  for (std::size_t j = 0; j < m; ++j) {
    if (result.relative_residuals[j] <= tol) continue;
    b.copy_col_out(j, bj);
    x.copy_col_out(j, xj);
    const CgResult cr = conjugate_gradient(a, bj, xj, cg_opts);
    worst_iters = std::max(worst_iters, cr.iterations);
    if (cr.converged()) {
      x.copy_col_in(j, xj);
      result.relative_residuals[j] = cr.relative_residual;
    } else {
      all_ok = false;
      // Keep the iterate only if it is finite and actually better.
      bool finite = true;
      for (const double v : xj) {
        if (!std::isfinite(v)) {
          finite = false;
          break;
        }
      }
      if (finite && cr.relative_residual < result.relative_residuals[j]) {
        x.copy_col_in(j, xj);
        result.relative_residuals[j] = cr.relative_residual;
      }
    }
  }
  result.iterations += worst_iters;
  return all_ok;
}

}  // namespace

LadderResult block_solve_with_ladder(const LinearOperator& a,
                                     const sparse::MultiVector& b,
                                     sparse::MultiVector& x,
                                     const LadderOptions& opts) {
  if (b.rows() != a.size() || x.rows() != b.rows() || x.cols() != b.cols()) {
    throw std::invalid_argument("block_solve_with_ladder: shape mismatch");
  }
  OBS_SPAN_VAR(span, "ladder.solve");
  span.arg("m", static_cast<double>(b.cols()));

  const sparse::MultiVector initial_guess = x;
  LadderResult result;
  result.relative_residuals.assign(
      b.cols(), std::numeric_limits<double>::infinity());

  auto finish = [&](SolveStatus status, LadderRung rung) -> LadderResult& {
    result.status = status;
    result.rung = rung;
    span.arg("rung", static_cast<double>(rung));
    span.arg("status", static_cast<double>(status));
    OBS_COUNTER_ADD("ladder.solves", 1);
    // OBS_COUNTER_ADD caches its counter per call site, so the
    // recovered/failed split needs two distinct literal-name sites.
    if (rung != LadderRung::kBlockCg && solve_succeeded(status)) {
      OBS_COUNTER_ADD("ladder.recoveries", 1);
    }
    if (!solve_succeeded(status)) {
      OBS_COUNTER_ADD("ladder.failures", 1);
    }
    return result;
  };

  BlockCgOptions block_opts;
  static_cast<SolveControls&>(block_opts) = opts.controls;

  // Rung 0: the plain block solve.
  record_rung(LadderRung::kBlockCg);
  BlockCgResult first = block_conjugate_gradient(a, b, x, block_opts);
  result.iterations += first.iterations;
  result.breakdown_repairs += first.breakdown_repairs;
  result.relative_residuals = first.relative_residuals;
  if (first.converged()) return finish(first.status, LadderRung::kBlockCg);

  // Rung 1: scrub the iterate, boost the ridge, and restart the block
  // solve from the (finite) partial iterate. Restarting rebuilds the
  // Krylov space from the true residual, which discards whatever
  // near-dependence broke the Gram factorization.
  record_rung(LadderRung::kBlockRestart);
  const std::size_t scrubbed = scrub_nonfinite(x, initial_guess);
  if (scrubbed > 0) {
    OBS_COUNTER_ADD("ladder.scrubbed_columns", scrubbed);
  }
  BlockCgOptions restart_opts = block_opts;
  restart_opts.breakdown_ridge *= kRestartRidgeBoost;
  BlockCgResult second = block_conjugate_gradient(a, b, x, restart_opts);
  result.iterations += second.iterations;
  result.breakdown_repairs += second.breakdown_repairs;
  result.relative_residuals = second.relative_residuals;
  if (second.converged()) {
    return finish(SolveStatus::kRecovered, LadderRung::kBlockRestart);
  }

  // Rung 2: abandon the shared Krylov space; each remaining column gets
  // its own CG at the original tolerance.
  record_rung(LadderRung::kPerColumnCg);
  scrub_nonfinite(x, initial_guess);
  result.relative_residuals = true_residuals(a, b, x);
  if (all_below(result.relative_residuals, opts.controls.tol)) {
    // The block iterate was already good; only the bookkeeping broke.
    return finish(SolveStatus::kRecovered, LadderRung::kPerColumnCg);
  }
  if (per_column_sweep(a, b, x, opts.controls, opts.controls.tol, result)) {
    return finish(SolveStatus::kRecovered, LadderRung::kPerColumnCg);
  }

  // Rung 3: last resort — plain CG with a relaxed tolerance, accepting
  // a coarser iterate over no iterate at all.
  record_rung(LadderRung::kRelaxedCg);
  scrub_nonfinite(x, initial_guess);
  const double relaxed_tol = opts.controls.tol * opts.relaxed_tol_factor;
  if (per_column_sweep(a, b, x, opts.controls, relaxed_tol, result)) {
    return finish(SolveStatus::kRecovered, LadderRung::kRelaxedCg);
  }

  // Out of rungs: report the breakdown honestly with the best finite
  // iterate left in x.
  scrub_nonfinite(x, initial_guess);
  result.relative_residuals = true_residuals(a, b, x);
  return finish(SolveStatus::kBreakdown, LadderRung::kRelaxedCg);
}

void FaultInjectingOperator::apply(std::span<const double> x,
                                   std::span<double> y) const {
  inner_->apply(x, y);
  if (!plan_.block_only && should_inject()) corrupt(y);
}

void FaultInjectingOperator::apply_block(const sparse::MultiVector& x,
                                         sparse::MultiVector& y) const {
  inner_->apply_block(x, y);
  if (should_inject()) {
    corrupt({y.data(), y.rows() * y.cols()});
  }
}

bool FaultInjectingOperator::should_inject() const {
  const long call = matching_calls_++;
  if (call < plan_.clean_applications) return false;
  if (plan_.faulty_applications >= 0 &&
      call - plan_.clean_applications >= plan_.faulty_applications) {
    return false;
  }
  ++injected_;
  OBS_COUNTER_ADD("fault_injection.injected", 1);
  return true;
}

void FaultInjectingOperator::corrupt(std::span<double> y) const {
  if (y.empty()) return;
  if (plan_.mode == FaultInjection::Mode::kNan) {
    y[y.size() / 2] = std::numeric_limits<double>::quiet_NaN();
    return;
  }
  // Deterministic multiplicative noise from a splitmix64 stream keyed
  // by (seed, injection index) — reproducible regardless of call
  // interleaving elsewhere.
  std::uint64_t s = plan_.seed + 0x9e3779b97f4a7c15ULL *
                                     static_cast<std::uint64_t>(injected_);
  for (double& v : y) {
    s += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    const double u =
        static_cast<double>(z >> 11) * 0x1.0p-53;  // uniform [0, 1)
    v *= 1.0 + plan_.perturb_scale * (2.0 * u - 1.0);
  }
}

}  // namespace mrhs::solver
