// Fault-tolerance ladder for the MRHS block solve.
//
// Block Krylov methods are the numerically fragile part of the MRHS
// algorithm: near-dependent right-hand-side columns make the Gram
// matrix P^T A P singular, and a single non-finite value poisons every
// column of the shared Krylov space (Krasnopolsky, arXiv:1907.12874).
// Long production trajectories must survive that, so the block solve
// degrades through a ladder instead of crashing:
//
//   rung 0  block CG                      (the fast path)
//   rung 1  deflated block-CG restart     (drop converged columns —
//           the near-dependent directions that break the Gram factor —
//           scrub non-finite entries, boost the breakdown ridge, and
//           rebuild the Krylov space from the fresh residual)
//   rung 2  per-column CG                 (abandon the shared space)
//   rung 3  per-column CG, relaxed tol    (accept a coarser guess)
//
// Every rung emits OBS_* events so the metrics layer records which
// recovery path fired and how often.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "solver/operator.hpp"
#include "solver/solve_controls.hpp"
#include "sparse/multivector.hpp"

namespace mrhs::solver {

/// The rung of the ladder that produced the final iterate.
enum class LadderRung : std::uint8_t {
  kBlockCg = 0,
  kBlockRestart = 1,
  kPerColumnCg = 2,
  kRelaxedCg = 3,
};

[[nodiscard]] constexpr const char* to_string(LadderRung r) {
  switch (r) {
    case LadderRung::kBlockCg: return "block_cg";
    case LadderRung::kBlockRestart: return "block_restart";
    case LadderRung::kPerColumnCg: return "per_column_cg";
    case LadderRung::kRelaxedCg: return "relaxed_cg";
  }
  return "unknown";
}

/// Ridge multiplier applied on the block-restart rung.
inline constexpr double kRestartRidgeBoost = 1e4;

struct LadderOptions {
  SolveControls controls;
  /// Tolerance multiplier for the last rung.
  double relaxed_tol_factor = 100.0;
};

struct LadderResult {
  SolveStatus status = SolveStatus::kBreakdown;
  LadderRung rung = LadderRung::kBlockCg;
  /// Total iterations across all rungs (per-column rungs count the
  /// worst column per rung, matching the GSPMV cost model).
  std::size_t iterations = 0;
  std::size_t breakdown_repairs = 0;
  /// True per-column relative residuals of the returned iterate.
  std::vector<double> relative_residuals;

  [[nodiscard]] bool succeeded() const { return solve_succeeded(status); }
};

/// Solve A X = B with graceful degradation. X carries initial guesses
/// in; on every exit path X holds the best available finite iterate
/// (non-finite columns are reset to the initial guess, or zero if the
/// guess itself was poisoned).
[[nodiscard]] LadderResult block_solve_with_ladder(
    const LinearOperator& a, const sparse::MultiVector& b,
    sparse::MultiVector& x, const LadderOptions& opts = {});

/// Test-only operator wrapper that injects deterministic faults into a
/// healthy LinearOperator, so every ladder rung can be exercised on
/// demand: NaN poisoning (models a hard numerical breakdown) or a
/// small multiplicative perturbation (models a noisy/stagnating
/// operator that keeps CG above a tight tolerance).
struct FaultInjection {
  enum class Mode : std::uint8_t { kNan, kPerturb };
  Mode mode = Mode::kNan;
  /// Number of (matching) applications that run clean before faults
  /// start.
  long clean_applications = 0;
  /// Number of faulty applications after the trigger; < 0 means every
  /// application from the trigger on (a sticky fault).
  long faulty_applications = 1;
  /// Restrict injection to block applications (apply_block). The block
  /// path is exactly where production breakdowns live, and it lets the
  /// per-column rungs run clean.
  bool block_only = true;
  /// Relative amplitude for kPerturb.
  double perturb_scale = 1e-5;
  std::uint64_t seed = 0x5eed;
};

class FaultInjectingOperator final : public LinearOperator {
 public:
  FaultInjectingOperator(const LinearOperator& inner, FaultInjection plan)
      : inner_(&inner), plan_(plan) {}

  [[nodiscard]] std::size_t size() const override { return inner_->size(); }
  void apply(std::span<const double> x, std::span<double> y) const override;
  void apply_block(const sparse::MultiVector& x,
                   sparse::MultiVector& y) const override;

  [[nodiscard]] double apply_bytes(std::size_t m) const override {
    return inner_->apply_bytes(m);
  }
  [[nodiscard]] double apply_flops(std::size_t m) const override {
    return inner_->apply_flops(m);
  }

  /// Faults injected so far.
  [[nodiscard]] long injected() const { return injected_; }

 private:
  [[nodiscard]] bool should_inject() const;
  void corrupt(std::span<double> y) const;

  const LinearOperator* inner_;
  FaultInjection plan_;
  mutable long matching_calls_ = 0;
  mutable long injected_ = 0;
};

}  // namespace mrhs::solver
