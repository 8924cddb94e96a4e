#include "sd/resistance.hpp"

#include <algorithm>
#include <limits>

#include "sd/effective_viscosity.hpp"
#include "util/parallel.hpp"

namespace mrhs::sd {

sparse::BcrsMatrix ResistanceAssembler::assemble_full(
    const ParticleSystem& system, AssemblyStats* stats) {
  const std::size_t n = system.size();
  const auto radii = system.radii();
  const double phi = params_.phi_override >= 0.0 ? params_.phi_override
                                                 : system.volume_fraction();

  AssemblyStats local{};
  local.min_scaled_gap = std::numeric_limits<double>::infinity();

  // Pass 1: gather the active pairs in emission order.
  const double cutoff =
      lubrication_cutoff_distance(system.max_radius(), params_.lubrication);
  const CellList cells(system, cutoff);

  pairs_.clear();
  local.pairs_examined = cells.for_each_interacting_pair(
      params_.lubrication.max_gap_scaled, [&](const Pair& p) {
        ++local.pairs_in_cutoff;
        if (!lubrication_active(p.gap, radii[p.i], radii[p.j],
                                params_.lubrication)) {
          return;
        }
        ++local.pairs_active;
        const double mean_radius = 0.5 * (radii[p.i] + radii[p.j]);
        local.min_scaled_gap =
            std::min(local.min_scaled_gap,
                     std::max(p.gap / mean_radius,
                              params_.lubrication.min_gap_scaled));
        pairs_.push_back({static_cast<std::int32_t>(p.i),
                          static_cast<std::int32_t>(p.j), p.unit, p.gap});
      });
  if (local.pairs_active == 0) local.min_scaled_gap = 0.0;

  // Pass 2: column-sorted rows, then every block written once, into
  // its final slot.
  pattern_.build(n, pairs_);
  const std::size_t nnzb = pattern_.col_idx.size();
  // No-init storage + first-touch zero: the diagonal blocks are only
  // partly written before they accumulate, so zero pages must exist,
  // and placing them here puts them where the GSPMV workers will
  // stream them.
  util::NoInitAlignedVector<double> values(nnzb * sparse::kBlockSize);
  util::first_touch_zero(values.data(), values.size());
  for (std::size_t i = 0; i < n; ++i) {
    double* blk = values.data() + pattern_.diag_slot[i] * 9;
    const double drag =
        params_.include_far_field
            ? far_field_drag(radii[i], params_.viscosity, phi)
            : 0.0;
    blk[0] = blk[4] = blk[8] = drag;
  }
  // Relative-motion projection [+T, -T; -T, +T], accumulated into the
  // diagonal in emission order.
  pattern_.for_each_pair_slots(
      pairs_, [&](std::size_t k, std::int64_t slot_ij, std::int64_t slot_ji) {
        const PairRecord& rec = pairs_[k];
        double tensor[9];
        lubrication_pair_tensor(rec.unit, radii[rec.i], radii[rec.j], rec.gap,
                                params_.lubrication,
                                std::span<double, 9>(tensor));
        double* diag_i = values.data() + pattern_.diag_slot[rec.i] * 9;
        double* diag_j = values.data() + pattern_.diag_slot[rec.j] * 9;
        double* off_ij = values.data() + slot_ij * 9;
        double* off_ji = values.data() + slot_ji * 9;
        for (int c = 0; c < 9; ++c) {
          diag_i[c] += tensor[c];
          diag_j[c] += tensor[c];
          off_ij[c] = -tensor[c];
          off_ji[c] = -tensor[c];
        }
      });

  // A full rebuild recomputes every active pair tensor and reuses
  // nothing; epoch stamping is the engine's job.
  local.pairs_dirty = local.pairs_active;
  local.blocks_reused = 0;
  local.pattern_rebuilt = true;

  if (stats != nullptr) *stats = local;
  return sparse::BcrsMatrix(n, n, std::move(pattern_.row_ptr),
                            std::move(pattern_.col_idx), std::move(values));
}

}  // namespace mrhs::sd
