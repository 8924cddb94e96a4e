// One containment decision for step-level recovery.
//
// A runner that rolls back on corruption has to decide, per corrupt
// verdict ("strike"), whether to replay, to replay one rung lower on
// its degradation ladder, or to stop. ContainmentPolicy owns that
// decision and the counts behind it; the runner owns only what each
// rung means (core::ResilientRunner: halve m, scalar fallback, halve
// dt; ensemble::EnsembleRunner: halve the member's dt). The rule:
//
//   * the first strike in a snapshot epoch replays (a transient fault
//     is gone on replay, which is then bitwise the fault-free run);
//   * each further strike in the epoch drops one rung and replays;
//   * a strike with no lower rung left, or one past the lifetime
//     budget, is terminal;
//   * `promote_after` consecutive clean units (steps or rounds, the
//     runner's choice) climb one rung back; a strike resets the count.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace mrhs::core {

class ContainmentPolicy {
 public:
  enum class Action : std::uint8_t { kReplay, kDescend, kTerminal };

  /// `rungs` degraded levels below level 0 (full service); `budget`
  /// strikes may replay over the policy's lifetime.
  ContainmentPolicy(std::size_t rungs, std::size_t budget,
                    std::size_t promote_after)
      : rungs_(narrow(rungs)),
        budget_(narrow(budget)),
        promote_after_(narrow(promote_after)) {}

  /// A new snapshot epoch: earlier strikes no longer count as repeats.
  void begin_epoch() { epoch_strikes_ = 0; }

  /// Record a corrupt verdict and decide what follows it.
  [[nodiscard]] Action strike() {
    ++strikes_;
    ++epoch_strikes_;
    clean_streak_ = 0;
    if (strikes_ > budget_ || (epoch_strikes_ > 1 && level_ == rungs_)) {
      terminal_ = true;
      return Action::kTerminal;
    }
    if (epoch_strikes_ == 1) return Action::kReplay;
    ++level_;
    return Action::kDescend;
  }

  /// Record one clean unit; true when it promoted one rung.
  [[nodiscard]] bool clean() {
    if (++clean_streak_ < promote_after_ || level_ == 0) return false;
    --level_;
    clean_streak_ = 0;
    return true;
  }

  /// A usable but suspicious unit: no strike, but no clean credit.
  void hold() { clean_streak_ = 0; }

  /// 0 is full service; `rungs` is the bottom rung.
  [[nodiscard]] std::size_t level() const { return level_; }
  [[nodiscard]] std::size_t epoch_strikes() const { return epoch_strikes_; }
  [[nodiscard]] bool terminal() const { return terminal_; }

 private:
  [[nodiscard]] static std::uint32_t narrow(std::size_t v) {
    return static_cast<std::uint32_t>(
        std::min<std::size_t>(v, std::numeric_limits<std::uint32_t>::max()));
  }

  // 32-bit counts keep the policy as small as the per-member fields it
  // replaced (EnsembleRunner holds one per member).
  std::uint32_t rungs_;
  std::uint32_t budget_;
  std::uint32_t promote_after_;
  std::uint32_t level_ = 0;
  std::uint32_t strikes_ = 0;
  std::uint32_t epoch_strikes_ = 0;
  std::uint32_t clean_streak_ = 0;
  bool terminal_ = false;
};

}  // namespace mrhs::core
