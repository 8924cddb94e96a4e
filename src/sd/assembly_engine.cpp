#include "sd/assembly_engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "obs/obs.hpp"
#include "sd/cell_list.hpp"
#include "sd/effective_viscosity.hpp"
#include "sd/lubrication.hpp"
#include "sd/pair_pattern.hpp"
#include "util/contracts.hpp"
#include "util/parallel.hpp"

namespace mrhs::sd {

namespace {

constexpr double kDerivedSkinFactor = 6.0;

}  // namespace

AssemblyEngine::AssemblyEngine(ResistanceParams params,
                               AssemblyOptions options)
    : params_(params),
      tolerance_(options.tolerance > 0.0 ? options.tolerance : 0.0),
      skin_(options.skin > 0.0 ? options.skin
                               : kDerivedSkinFactor * tolerance_),
      full_(params) {}

AssemblyResult AssemblyEngine::assemble_full(const ParticleSystem& system) {
  AssemblyResult result;
  result.matrix = full_.assemble_full(system, &result.stats);
  // Whatever pattern was cached no longer reflects the last assembly;
  // force the next incremental call to start from a rebuild.
  has_pattern_ = false;
  pairs_.clear();
  ++epoch_;
  ++rebuilds_total_;
  examined_total_ += result.stats.pairs_examined;
  in_cutoff_total_ += result.stats.pairs_in_cutoff;
  dirty_total_ += result.stats.pairs_dirty;
  result.stats.pattern_epoch = epoch_;
  OBS_COUNTER_ADD("assembly.pattern_rebuilds", 1);
  OBS_COUNTER_ADD("assembly.pairs_examined",
                  static_cast<std::int64_t>(result.stats.pairs_examined));
  OBS_COUNTER_ADD("assembly.pairs_dirty",
                  static_cast<std::int64_t>(result.stats.pairs_dirty));
  return result;
}

AssemblyResult AssemblyEngine::assemble_incremental(
    const ParticleSystem& system) {
  // tolerance = 0 is the bitwise reference: reuse would still be
  // numerically exact pair-by-pair, but the skin-widened pattern
  // stores extra zero blocks and changes the diagonal accumulation
  // order, which perturbs the last bits. Route to the full path.
  if (tolerance_ <= 0.0) return assemble_full(system);

  AssemblyResult result;
  if (!has_pattern_ || pattern_expired(system)) {
    rebuild_pattern(system, result.stats);
    OBS_COUNTER_ADD("assembly.pattern_rebuilds", 1);
    OBS_COUNTER_ADD("assembly.pairs_examined",
                    static_cast<std::int64_t>(result.stats.pairs_examined));
  } else {
    refresh_dirty_pairs(system, result.stats);
  }
  result.stats.pattern_epoch = epoch_;
  dirty_total_ += result.stats.pairs_dirty;
  reused_total_ += result.stats.blocks_reused;
  OBS_COUNTER_ADD("assembly.pairs_dirty",
                  static_cast<std::int64_t>(result.stats.pairs_dirty));
  OBS_COUNTER_ADD("assembly.blocks_reused",
                  static_cast<std::int64_t>(result.stats.blocks_reused));

  fill_values(system);
  result.matrix = cached_;
  return result;
}

bool AssemblyEngine::pattern_expired(const ParticleSystem& system) const {
  if (pattern_refs_.size() != system.size()) return true;
  const auto pos = system.positions();
  const auto& box = system.box();
  const double budget2 = 0.25 * skin_ * skin_;
  for (std::size_t i = 0; i < pattern_refs_.size(); ++i) {
    if (box.min_image(pos[i], pattern_refs_[i]).norm2() > budget2) {
      return true;
    }
  }
  return false;
}

void AssemblyEngine::recompute_pair(PairSlot& p,
                                    const ParticleSystem& system) {
  const auto radii = system.radii();
  const std::size_t i = static_cast<std::size_t>(p.i);
  const std::size_t j = static_cast<std::size_t>(p.j);
  const Vec3 d = system.box().min_image(p.ref_i, p.ref_j);
  const double dist2 = d.norm2();
  p.active = false;
  p.scaled_gap = std::numeric_limits<double>::infinity();
  std::fill(std::begin(p.tensor), std::end(p.tensor), 0.0);
  if (dist2 == 0.0) return;
  const double distance = std::sqrt(dist2);
  const double gap = distance - radii[i] - radii[j];
  if (!lubrication_active(gap, radii[i], radii[j], params_.lubrication)) {
    return;
  }
  p.active = true;
  const Vec3 unit = (1.0 / distance) * d;
  lubrication_pair_tensor(unit, radii[i], radii[j], gap,
                          params_.lubrication,
                          std::span<double, 9>(p.tensor));
  const double mean_radius = 0.5 * (radii[i] + radii[j]);
  p.scaled_gap =
      std::max(gap / mean_radius, params_.lubrication.min_gap_scaled);
}

void AssemblyEngine::rebuild_pattern(const ParticleSystem& system,
                                     AssemblyStats& stats) {
  const std::size_t n = system.size();
  const auto pos = system.positions();

  // Pass 1: enumerate pairs with the skin-widened reach, compute each
  // tensor at the current (= reference) configuration.
  const double cutoff =
      lubrication_cutoff_distance(system.max_radius(), params_.lubrication) +
      skin_;
  const CellList cells(system, cutoff);
  pairs_.clear();
  stats.pairs_examined = cells.for_each_interacting_pair(
      params_.lubrication.max_gap_scaled, skin_, [&](const Pair& p) {
        PairSlot rec{};
        rec.i = static_cast<std::int32_t>(p.i);
        rec.j = static_cast<std::int32_t>(p.j);
        rec.ref_i = pos[p.i];
        rec.ref_j = pos[p.j];
        pairs_.push_back(rec);
      });
  double min_gap = std::numeric_limits<double>::infinity();
  for (PairSlot& p : pairs_) {
    recompute_pair(p, system);
    if (p.active) {
      ++stats.pairs_active;
      min_gap = std::min(min_gap, p.scaled_gap);
    }
  }
  stats.pairs_in_cutoff = pairs_.size();
  stats.pairs_dirty = stats.pairs_active;
  stats.min_scaled_gap = stats.pairs_active > 0 ? min_gap : 0.0;
  stats.pattern_rebuilt = true;

  // Pass 2: BCRS layout. Every row holds its diagonal block plus one
  // block per incident pattern pair; rows are column-sorted, and each
  // pair records where its two off-diagonal blocks landed so value
  // refills never search.
  PairPattern layout;
  layout.build(n, pairs_);
  layout.for_each_pair_slots(
      pairs_, [&](std::size_t k, std::int64_t slot_ij, std::int64_t slot_ji) {
        pairs_[k].slot_ij = slot_ij;
        pairs_[k].slot_ji = slot_ji;
      });
  diag_slot_ = std::move(layout.diag_slot);
  const std::size_t nnzb = layout.col_idx.size();

  pattern_refs_.assign(pos.begin(), pos.end());
  util::NoInitAlignedVector<double> fresh_values(nnzb * sparse::kBlockSize);
  util::first_touch_zero(fresh_values.data(), fresh_values.size());
  cached_ = sparse::BcrsMatrix(n, n, std::move(layout.row_ptr),
                               std::move(layout.col_idx),
                               std::move(fresh_values));
  has_pattern_ = true;
  ++epoch_;
  ++rebuilds_total_;
  examined_total_ += stats.pairs_examined;
  in_cutoff_total_ += stats.pairs_in_cutoff;
}

void AssemblyEngine::refresh_dirty_pairs(const ParticleSystem& system,
                                         AssemblyStats& stats) {
  const auto pos = system.positions();
  const auto& box = system.box();
  double min_gap = std::numeric_limits<double>::infinity();
  for (PairSlot& p : pairs_) {
    const std::size_t i = static_cast<std::size_t>(p.i);
    const std::size_t j = static_cast<std::size_t>(p.j);
    // Monotone per-pair drift accumulator: references only move when
    // the tensor is recomputed, so the drift below keeps growing
    // until it crosses the tolerance — a dirty pair can never be
    // "forgotten" by intermediate assemblies.
    const double drift = box.min_image(pos[i], p.ref_i).norm() +
                         box.min_image(pos[j], p.ref_j).norm();
    if (drift > tolerance_) {
      p.ref_i = pos[i];
      p.ref_j = pos[j];
      recompute_pair(p, system);
      ++stats.pairs_dirty;
    } else {
      stats.blocks_reused += 2;
    }
    if (p.active) {
      ++stats.pairs_active;
      min_gap = std::min(min_gap, p.scaled_gap);
    }
  }
  stats.pairs_in_cutoff = pairs_.size();
  stats.min_scaled_gap = stats.pairs_active > 0 ? min_gap : 0.0;
  stats.pattern_rebuilt = false;
}

void AssemblyEngine::fill_values(const ParticleSystem& system) {
  const auto radii = system.radii();
  const double phi = params_.phi_override >= 0.0 ? params_.phi_override
                                                 : system.volume_fraction();
  MRHS_ASSERT_MSG(diag_slot_.size() == system.size(),
                  "assembly pattern does not match the system");
  cached_.zero_values();
  for (std::size_t i = 0; i < system.size(); ++i) {
    double* blk = cached_.block(static_cast<std::size_t>(diag_slot_[i]));
    const double drag =
        params_.include_far_field
            ? far_field_drag(radii[i], params_.viscosity, phi)
            : 0.0;
    blk[0] = blk[4] = blk[8] = drag;
  }
  // Fixed pattern order keeps the diagonal accumulation bitwise
  // stable across calls for as long as the pattern lives.
  for (const PairSlot& p : pairs_) {
    if (!p.active) continue;
    double* diag_i = cached_.block(static_cast<std::size_t>(diag_slot_[p.i]));
    double* diag_j = cached_.block(static_cast<std::size_t>(diag_slot_[p.j]));
    double* off_ij = cached_.block(static_cast<std::size_t>(p.slot_ij));
    double* off_ji = cached_.block(static_cast<std::size_t>(p.slot_ji));
    for (int k = 0; k < 9; ++k) {
      diag_i[k] += p.tensor[k];
      diag_j[k] += p.tensor[k];
      off_ij[k] = -p.tensor[k];
      off_ji[k] = -p.tensor[k];
    }
  }
}

AssemblyEngineState AssemblyEngine::export_state() const {
  AssemblyEngineState state;
  state.tolerance = tolerance_;
  state.skin = skin_;
  state.pattern_epoch = epoch_;
  state.has_pattern = has_pattern_;
  if (has_pattern_) {
    state.pattern_refs = pattern_refs_;
    state.pair_refs.reserve(2 * pairs_.size());
    for (const PairSlot& p : pairs_) {
      state.pair_refs.push_back(p.ref_i);
      state.pair_refs.push_back(p.ref_j);
    }
  }
  return state;
}

void AssemblyEngine::import_state(const AssemblyEngineState& state,
                                  const ParticleSystem& system) {
  tolerance_ = state.tolerance;
  skin_ = state.skin;
  epoch_ = state.pattern_epoch;
  has_pattern_ = false;
  pairs_.clear();
  pattern_refs_.clear();
  if (!state.has_pattern || state.pattern_refs.size() != system.size()) {
    return;  // no pattern to restore; next incremental call rebuilds
  }

  // Re-enumerate the pattern at the stored build positions: cell-list
  // enumeration is deterministic in positions, so slot layout and
  // pair order come back exactly as exported.
  sd::ParticleSystem ref_system(
      state.pattern_refs,
      std::vector<double>(system.radii().begin(), system.radii().end()),
      system.box());
  AssemblyStats scratch{};
  rebuild_pattern(ref_system, scratch);
  epoch_ = state.pattern_epoch;  // rebuild bumped it; restore
  pattern_refs_ = state.pattern_refs;
  if (state.pair_refs.size() != 2 * pairs_.size()) {
    // State does not match this system (corrupt or foreign): degrade
    // to "no pattern" rather than resuming with wrong tensors.
    has_pattern_ = false;
    pairs_.clear();
    pattern_refs_.clear();
    return;
  }
  for (std::size_t k = 0; k < pairs_.size(); ++k) {
    pairs_[k].ref_i = state.pair_refs[2 * k];
    pairs_[k].ref_j = state.pair_refs[2 * k + 1];
    // Tensors are pure functions of the references; recomputing them
    // reproduces the exported cache bitwise.
    recompute_pair(pairs_[k], system);
  }
}

}  // namespace mrhs::sd
