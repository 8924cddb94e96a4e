#include "solver/block_cg.hpp"

#include <cmath>
#include <optional>
#include <stdexcept>

#include "dense/matrix.hpp"
#include "obs/obs.hpp"
#include "util/contracts.hpp"
#include "util/timer.hpp"

namespace mrhs::solver {

namespace {

/// Cholesky with a ridge retry: block CG's P^T A P can become
/// numerically singular when columns of P are nearly dependent.
/// Returns nullopt when even the strongest ridge fails (persistent
/// breakdown) — the caller reports SolveStatus::kBreakdown.
std::optional<dense::Cholesky> factor_with_repair(dense::Matrix g,
                                                  double rel_ridge,
                                                  std::size_t* repairs) {
  double trace = 0.0;
  for (std::size_t i = 0; i < g.rows(); ++i) trace += g(i, i);
  if (!std::isfinite(trace)) return std::nullopt;
  const double base =
      rel_ridge * (trace > 0.0 ? trace / static_cast<double>(g.rows()) : 1.0);
  double ridge = 0.0;
  for (int attempt = 0; attempt < 6; ++attempt) {
    try {
      if (ridge > 0.0) {
        for (std::size_t i = 0; i < g.rows(); ++i) g(i, i) += ridge;
        ++*repairs;
        OBS_COUNTER_ADD("block_cg.breakdown_repairs", 1);
        OBS_INSTANT("block_cg.breakdown_repair");
      }
      return dense::Cholesky(g);
    } catch (const std::runtime_error&) {
      ridge = (ridge == 0.0) ? base : ridge * 100.0;
    }
  }
  return std::nullopt;
}

}  // namespace

BlockCgResult block_conjugate_gradient(const LinearOperator& a,
                                       const sparse::MultiVector& b,
                                       sparse::MultiVector& x,
                                       const BlockCgOptions& opts) {
  const std::size_t n = a.size();
  const std::size_t m = b.cols();
  if (b.rows() != n || x.rows() != n || x.cols() != m || m == 0) {
    throw std::invalid_argument("block_cg: shape mismatch");
  }
  MRHS_REQUIRE(opts.tol > 0.0, "block_cg: tolerance must be positive");
  // No finite contract on b/x: non-finite operands must surface as
  // SolveStatus::kBreakdown (the fault-tolerance ladder escalates on
  // it), never as an abort.
  OBS_SPAN_VAR(span, "block_cg.solve");
  span.arg("m", static_cast<double>(m));
  const util::WallTimer solve_timer;
  // Per-iteration / per-column telemetry: the residual trajectory is
  // what distinguishes a healthy block solve from a degrading one.
  auto record_exit = [&](BlockCgResult& res) -> BlockCgResult& {
    span.arg("iterations", static_cast<double>(res.iterations));
    span.arg("converged", res.converged() ? 1.0 : 0.0);
    OBS_COUNTER_ADD("block_cg.solves", 1);
    OBS_COUNTER_ADD("block_cg.iterations", res.iterations);
    if (obs::metrics_enabled()) {
      // Roofline accumulators for obs::PerfLedger. Per iteration, four
      // row passes besides the operator apply: P^T Q (reads P, Q;
      // 2nm^2 flops), X += P alpha with R -= Q alpha (reads X, P, R, Q,
      // writes X, R; 4nm^2), R^T R (reads R; one triangle, nm(m+1))
      // and P = R + P beta (reads P, R, writes P; 2nm^2 + nm): 12nm
      // doubles. Setup: the B norms, R = B - A X, R^T R and P = R, 7nm
      // doubles. The m^3 Cholesky factors are negligible and uncounted.
      const double iters = static_cast<double>(res.iterations);
      const double applies = iters + 1.0;  // + initial residual
      const double nm = static_cast<double>(n) * static_cast<double>(m);
      const double md = static_cast<double>(m);
      OBS_COUNTER_ADD("block_cg.bytes",
                      applies * a.apply_bytes(m) +
                          (12.0 * iters + 7.0) * nm * 8.0);
      OBS_COUNTER_ADD("block_cg.flops",
                      applies * a.apply_flops(m) +
                          ((9.0 * md + 2.0) * iters + md + 6.0) * nm);
      OBS_COUNTER_ADD("block_cg.seconds", solve_timer.seconds());
    }
    if (res.status == SolveStatus::kBreakdown) {
      OBS_COUNTER_ADD("block_cg.breakdowns", 1);
      OBS_INSTANT("block_cg.breakdown");
    }
    OBS_HISTOGRAM_OBSERVE("block_cg.iterations_per_solve", res.iterations,
                          obs::exponential_buckets(1.0, 2.0, 11));
    for (const double rr : res.relative_residuals) {
      OBS_HISTOGRAM_OBSERVE("block_cg.exit_relative_residual", rr,
                            obs::exponential_buckets(1e-10, 10.0, 10));
    }
    return res;
  };
  // Converged with repairs counts as a recovery, not a clean converge.
  auto converged_status = [](const BlockCgResult& res) {
    return res.breakdown_repairs > 0 ? SolveStatus::kRecovered
                                     : SolveStatus::kConverged;
  };

  sparse::MultiVector r(n, m), p(n, m), q(n, m);
  std::vector<double> b_norms(m);
  b.col_norms(b_norms);

  // R = B - A X.
  a.apply_block(x, r);
  axpby(1.0, b, -1.0, r);

  BlockCgResult result;
  result.relative_residuals.assign(m, 0.0);

  // Classic rho-based block CG (O'Leary): per iteration one GSPMV and
  // two Gram matrices; residual norms come free from diag(rho).
  dense::Matrix rho = gram(r, r);
  bool saw_nonfinite = false;
  auto all_converged = [&]() {
    bool ok = true;
    for (std::size_t j = 0; j < m; ++j) {
      const double rho_jj = rho(j, j);
      if (!std::isfinite(rho_jj)) {
        // NaN would silently pass a `> tol` comparison; flag it as a
        // breakdown instead of reporting bogus convergence.
        saw_nonfinite = true;
        ok = false;
        result.relative_residuals[j] = rho_jj;
        continue;
      }
      const double denom = b_norms[j] > 0.0 ? b_norms[j] : 1.0;
      result.relative_residuals[j] =
          std::sqrt(std::max(rho_jj, 0.0)) / denom;
      OBS_HISTOGRAM_OBSERVE("block_cg.iter_relative_residual",
                            result.relative_residuals[j],
                            obs::exponential_buckets(1e-8, 10.0, 10));
      if (result.relative_residuals[j] > opts.tol) ok = false;
    }
    return ok;
  };

  if (all_converged()) {
    result.status = converged_status(result);
    return record_exit(result);
  }
  if (saw_nonfinite) {
    result.status = SolveStatus::kBreakdown;
    return record_exit(result);
  }

  p = r;
  for (std::size_t it = 0; it < opts.max_iters; ++it) {
    a.apply_block(p, q);                       // Q = A P
    dense::Matrix paq = gram(p, q);            // P^T A P
    const auto chol =
        factor_with_repair(std::move(paq), opts.breakdown_ridge,
                           &result.breakdown_repairs);
    if (!chol.has_value()) {
      result.status = SolveStatus::kBreakdown;
      return record_exit(result);
    }

    // alpha = (P^T A P)^{-1} R^T R  (P^T R = R^T R by construction).
    dense::Matrix alpha = rho;
    chol->solve_in_place(alpha);

    // X += P alpha and R -= Q alpha, one pass over the rows.
    dense::Matrix neg_alpha = alpha;
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < m; ++j) neg_alpha(i, j) = -alpha(i, j);
    }
    add_multiplied_pair(x, p, alpha, r, q, neg_alpha);

    dense::Matrix rho_next = gram(r, r);
    result.iterations = it + 1;
    dense::Matrix rho_prev = rho;
    rho = rho_next;
    if (all_converged()) {
      result.status = converged_status(result);
      break;
    }
    if (saw_nonfinite) {
      result.status = SolveStatus::kBreakdown;
      return record_exit(result);
    }

    // beta = rho_prev^{-1} rho_next.
    const auto chol_rho =
        factor_with_repair(std::move(rho_prev), opts.breakdown_ridge,
                           &result.breakdown_repairs);
    if (!chol_rho.has_value()) {
      result.status = SolveStatus::kBreakdown;
      return record_exit(result);
    }
    dense::Matrix beta = rho;
    chol_rho->solve_in_place(beta);
    // P = R + P beta, in place, one pass over the rows.
    multiply_right_add(p, beta, r);
  }
  return record_exit(result);
}

}  // namespace mrhs::solver
