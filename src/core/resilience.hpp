// Step-level resilience: rollback + bounded degradation.
//
// The ResilientRunner wraps the MRHS algorithm with the recovery loop
// a long unattended run needs: the post-step health monitor
// (core/health.hpp), in-memory rolling snapshots every K steps (the
// algorithms' bitwise export_state()/import_state() plus
// SdSimulation::State), and core::ContainmentPolicy deciding what a
// corrupt verdict leads to. Snapshot windows are the policy's epochs,
// steps its clean units, and its rungs reuse the paper's own knobs:
// (1) halve the MRHS chunk width m, (2) fall back to the original
// single-vector algorithm, (3) halve dt. Its terminal action parks the
// run at the snapshot and gives up (RunStats::resilience_gave_up). A
// degraded verdict never rolls back but restarts the clean streak.
// Every event lands in RunStats and the resilience.* counters.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>

#include "core/containment.hpp"
#include "core/health.hpp"
#include "core/sd_simulation.hpp"
#include "core/stepper.hpp"

namespace mrhs::core {

struct ResilienceOptions {
  /// Steps between in-memory snapshots (the rollback grain).
  std::size_t snapshot_every = 16;
  /// Rollbacks allowed over the runner's lifetime; the next strike
  /// gives up.
  std::size_t max_rollbacks = 8;
  /// Consecutive clean steps required to promote one ladder rung.
  std::size_t recovery_steps = 32;
  HealthConfig health{};
};

/// Degradation rungs, mildest first (ContainmentPolicy levels). kFull
/// runs the configured MRHS algorithm untouched.
enum class DegradationLevel : std::uint8_t {
  kFull = 0,
  kHalvedRhs,
  kScalarFallback,
  kShrunkDt,
};

[[nodiscard]] constexpr const char* to_string(DegradationLevel level) {
  switch (level) {
    case DegradationLevel::kFull: return "full";
    case DegradationLevel::kHalvedRhs: return "halved_rhs";
    case DegradationLevel::kScalarFallback: return "scalar_fallback";
    case DegradationLevel::kShrunkDt: return "shrunk_dt";
  }
  return "unknown";
}

class ResilientRunner {
 public:
  /// The runner drives `alg` one step at a time; `sim` must be the
  /// simulation `alg` was built on. Neither is owned.
  ResilientRunner(SdSimulation& sim, MrhsAlgorithm& alg,
                  ResilienceOptions options = {});

  /// Advance `count` steps with health checking, rollback, and the
  /// degradation ladder. May stop early only when containment gives
  /// up (stats.resilience_gave_up). Sets the algorithm's chunk horizon
  /// if the caller has not already pinned one.
  [[nodiscard]] RunStats run(std::size_t count);

  /// Test seam: invoked after every completed step, *before* the
  /// health check — the place to model silent state corruption that
  /// no fault-injection build is needed for.
  void set_post_step_hook(std::function<void(std::size_t step)> hook) {
    post_step_hook_ = std::move(hook);
  }

  [[nodiscard]] DegradationLevel level() const {
    return static_cast<DegradationLevel>(policy_.level());
  }
  [[nodiscard]] bool gave_up() const { return policy_.terminal(); }

 private:
  struct Snapshot {
    SdSimulation::State sim;
    MrhsState alg;  // alg.step is the rollback target
  };

  void take_snapshot();
  /// Set m and dt from the policy's level (step_once reads it too).
  void apply_level();
  /// One step at the current degradation level, merged into `stats`.
  void step_once(RunStats& stats);

  SdSimulation* sim_;
  MrhsAlgorithm* alg_;
  ResilienceOptions options_;
  StepHealthMonitor monitor_;
  ContainmentPolicy policy_;
  std::function<void(std::size_t)> post_step_hook_;

  std::optional<Snapshot> snapshot_;
  /// m and dt of full service.
  std::size_t base_rhs_;
  double base_dt_;
  /// Scalar-fallback engine, created on first use, kept in lockstep
  /// with the MRHS cursor while active.
  std::optional<OriginalAlgorithm> scalar_;
};

}  // namespace mrhs::core
