// BCRS layout of a symmetric pair matrix: one diagonal block per row
// plus blocks (i, j) and (j, i) for every pair. Shared by the full
// resistance assembler and the assembly engine's pattern rebuild.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace mrhs::sd {

/// Column-sorted rows for `pairs`, a range of elements with integer
/// members i < j, no pair twice.
///
/// Each row's diagonal goes after its lower partners, so a row whose
/// pairs arrive in (i, j) order (ascending partners on both sides of
/// the diagonal, as the all-pairs neighbour search emits them) is
/// filled column-sorted as is. Only rows filled out of order, as from
/// a cell-list walk, are sorted, and their slots looked up afterwards.
///
/// An owner may keep one PairPattern across calls: build() allocates
/// row_ptr and col_idx afresh (they move into the matrix) and reuses
/// the per-row work array.
class PairPattern {
 public:
  template <class PairRange>
  void build(std::size_t n, const PairRange& pairs);

  /// Calls `place(k, slot_ij, slot_ji)` with the final slots of
  /// blocks (i, j) and (j, i) of pair k, for every k in input order.
  /// `pairs` must be the range the pattern was built from.
  template <class PairRange, class Place>
  void for_each_pair_slots(const PairRange& pairs, Place&& place);

  std::vector<std::int64_t> row_ptr;
  std::vector<std::int32_t> col_idx;
  std::vector<std::int64_t> diag_slot;  // per row

 private:
  /// Per-row work arrays, n entries each, in one allocation: the
  /// cursors (lower partners fill [row_ptr[r], diag_slot[r]), upper
  /// partners the slots after diag_slot[r], in arrival order), then a
  /// flag for each row that had to be sorted.
  std::int64_t* lower() { return work_.data(); }
  std::int64_t* upper() { return work_.data() + diag_slot.size(); }
  std::int64_t* unsorted() { return work_.data() + 2 * diag_slot.size(); }
  void reset_cursors();

  std::vector<std::int64_t> work_;
};

template <class PairRange>
void PairPattern::build(std::size_t n, const PairRange& pairs) {
  row_ptr.assign(n + 1, 0);  // first row r's block count at r + 1
  for (const auto& p : pairs) {
    ++row_ptr[static_cast<std::size_t>(p.i) + 1];
    ++row_ptr[static_cast<std::size_t>(p.j) + 1];
  }
  for (std::size_t r = 0; r < n; ++r) row_ptr[r + 1] += 1 + row_ptr[r];
  col_idx.assign(static_cast<std::size_t>(row_ptr[n]), 0);
  diag_slot.assign(row_ptr.begin(), row_ptr.end() - 1);
  for (const auto& p : pairs) ++diag_slot[static_cast<std::size_t>(p.j)];
  for (std::size_t r = 0; r < n; ++r) {
    col_idx[static_cast<std::size_t>(diag_slot[r])] =
        static_cast<std::int32_t>(r);
  }

  work_.assign(3 * n, 0);
  reset_cursors();
  std::int64_t* const lo = lower();
  std::int64_t* const up = upper();
  std::int64_t* const unsorted_row = unsorted();
  for (const auto& p : pairs) {
    const auto i = static_cast<std::size_t>(p.i);
    const auto j = static_cast<std::size_t>(p.j);
    const auto s_ij = static_cast<std::size_t>(up[i]++);
    const auto s_ji = static_cast<std::size_t>(lo[j]++);
    // A column below its predecessor in the same half-row means the
    // row did not arrive sorted. The first upper partner follows the
    // diagonal (i < j); the first lower partner follows the previous
    // row's last column, which says nothing.
    if (col_idx[s_ij - 1] > p.j) unsorted_row[i] = 1;
    if (s_ji > static_cast<std::size_t>(row_ptr[j]) &&
        col_idx[s_ji - 1] > p.i) {
      unsorted_row[j] = 1;
    }
    col_idx[s_ij] = static_cast<std::int32_t>(j);
    col_idx[s_ji] = static_cast<std::int32_t>(i);
  }
  // Columns are unique per row, so the sorted order is unique too; the
  // diagonal already sits between the two halves.
  for (std::size_t r = 0; r < n; ++r) {
    if (unsorted_row[r] == 0) continue;
    std::sort(col_idx.begin() + row_ptr[r], col_idx.begin() + row_ptr[r + 1]);
  }
}

inline void PairPattern::reset_cursors() {
  const std::size_t n = diag_slot.size();
  for (std::size_t r = 0; r < n; ++r) {
    lower()[r] = row_ptr[r];
    upper()[r] = diag_slot[r] + 1;
  }
}

template <class PairRange, class Place>
void PairPattern::for_each_pair_slots(const PairRange& pairs, Place&& place) {
  reset_cursors();
  const std::int64_t* const unsorted_row = unsorted();
  auto slot_of = [&](std::size_t row, std::int32_t col,
                     std::int64_t* cursor) {
    if (unsorted_row[row] == 0) return cursor[row]++;
    const auto it = std::lower_bound(col_idx.begin() + row_ptr[row],
                                     col_idx.begin() + row_ptr[row + 1], col);
    return static_cast<std::int64_t>(it - col_idx.begin());
  };
  std::size_t k = 0;
  for (const auto& p : pairs) {
    const auto i = static_cast<std::size_t>(p.i);
    const auto j = static_cast<std::size_t>(p.j);
    const std::int64_t s_ij =
        slot_of(i, static_cast<std::int32_t>(j), upper());
    const std::int64_t s_ji =
        slot_of(j, static_cast<std::int32_t>(i), lower());
    place(k++, s_ij, s_ji);
  }
}

}  // namespace mrhs::sd
