#include "core/resilience.hpp"

#include <algorithm>
#include <utility>

#include "obs/obs.hpp"
#include "util/timer.hpp"

namespace mrhs::core {

ResilientRunner::ResilientRunner(SdSimulation& sim, MrhsAlgorithm& alg,
                                 ResilienceOptions options)
    : sim_(&sim),
      alg_(&alg),
      options_(options),
      monitor_(sim, options.health),
      policy_(static_cast<std::size_t>(DegradationLevel::kShrunkDt),
              options.max_rollbacks, options.recovery_steps),
      base_rhs_(alg.rhs()),
      base_dt_(sim.dt()) {
  if (options_.snapshot_every == 0) options_.snapshot_every = 1;
}

void ResilientRunner::take_snapshot() {
  snapshot_ = Snapshot{sim_->export_state(), alg_->export_state()};
  policy_.begin_epoch();
  OBS_COUNTER_ADD("resilience.snapshots", 1);
}

void ResilientRunner::apply_level() {
  const DegradationLevel lvl = level();
  alg_->set_rhs(lvl == DegradationLevel::kFull
                    ? base_rhs_
                    : std::max<std::size_t>(1, base_rhs_ / 2));
  sim_->set_dt(lvl == DegradationLevel::kShrunkDt ? 0.5 * base_dt_
                                                  : base_dt_);
}

void ResilientRunner::step_once(RunStats& stats) {
  if (level() < DegradationLevel::kScalarFallback) {
    stats.merge(alg_->run(1));
    return;
  }
  if (!scalar_.has_value()) scalar_.emplace(*sim_);
  // Keep the scalar engine's cursor in lockstep with the trajectory
  // (its noise stream is keyed on the absolute step index).
  AlgorithmState cursor = scalar_->export_state();
  cursor.step = alg_->current_step();
  scalar_->import_state(cursor);
  stats.merge(scalar_->run(1));
  // Advance the MRHS cursor past the scalar step. Any in-flight chunk
  // is abandoned: its guesses were computed for a trajectory this step
  // just left.
  MrhsState state = alg_->export_state();
  state.step = scalar_->current_step();
  state.chunk_active = false;
  alg_->import_state(std::move(state));
}

RunStats ResilientRunner::run(std::size_t count) {
  RunStats stats;
  if (gave_up()) {
    stats.resilience_gave_up = true;
    return stats;
  }
  util::WallTimer total;
  if (!alg_->horizon_set()) alg_->set_horizon(count);
  const std::size_t target = alg_->current_step() + count;
  if (!snapshot_.has_value()) take_snapshot();

  while (alg_->current_step() < target) {
    if (alg_->current_step() - snapshot_->alg.step >=
        options_.snapshot_every) {
      take_snapshot();
    }

    step_once(stats);
    const std::size_t completed = alg_->current_step() - 1;
    if (post_step_hook_) post_step_hook_(completed);

    const solver::EigBounds& bounds = alg_->chunk_bounds();
    if (bounds.lambda_min > 0.0) monitor_.set_bounds(bounds);
    const HealthVerdict verdict = monitor_.check(stats.steps.back());

    if (verdict.corrupt()) {
      // Restore the trajectory; level and dt are policy, not
      // trajectory, and are left to apply_level().
      sim_->import_state(snapshot_->sim);
      alg_->import_state(MrhsState(snapshot_->alg));
      while (!stats.steps.empty() &&
             stats.steps.back().step >= snapshot_->alg.step) {
        stats.steps.pop_back();
      }
      monitor_.rebase();
      const ContainmentPolicy::Action action = policy_.strike();
      if (action == ContainmentPolicy::Action::kTerminal) {
        // Park at the last good snapshot rather than integrating a
        // corrupt state onward.
        stats.resilience_gave_up = true;
        OBS_COUNTER_ADD("resilience.gave_up", 1);
        break;
      }
      ++stats.rollbacks;
      OBS_COUNTER_ADD("resilience.rollbacks", 1);
      if (action == ContainmentPolicy::Action::kDescend) {
        apply_level();
        ++stats.degradations;
        OBS_COUNTER_ADD("resilience.degradations", 1);
      }
    } else if (verdict.state == HealthState::kDegraded) {
      policy_.hold();
    } else if (policy_.clean()) {
      apply_level();
      ++stats.recovery_promotions;
      OBS_COUNTER_ADD("resilience.promotions", 1);
    }
  }
  stats.seconds_total = total.seconds();
  return stats;
}

}  // namespace mrhs::core
