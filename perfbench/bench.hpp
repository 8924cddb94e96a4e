// Shared pieces of the repository benchmark: the span tracer, the
// traced operator decorator, result bookkeeping and the two workload
// families (stepping trajectories, ensemble serving).
//
// Spans are recorded only from this directory's code, around calls
// into the library's public entry points; the library itself carries
// no benchmark instrumentation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/sd_simulation.hpp"
#include "core/stepper.hpp"
#include "sd/particle_system.hpp"
#include "solver/lanczos.hpp"
#include "solver/operator.hpp"
#include "sparse/bcrs.hpp"
#include "sparse/multivector.hpp"

namespace perfbench {

[[nodiscard]] double now_seconds();

/// One timed interval at a layer boundary. `parent` indexes the
/// enclosing span (-1 for a root); `run` groups the spans of one
/// trajectory repetition; `cols` is the vector count of an operator
/// apply (0 for other spans).
struct Span {
  const char* name = "";
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  int run = 0;
  std::size_t cols = 0;
  [[nodiscard]] double seconds() const { return end - start; }
};

/// In-memory span recorder. Single-threaded by design: spans open and
/// close on the benchmark's thread around library calls, and the
/// library's worker threads never call back into it.
class Tracer {
 public:
  static Tracer& instance();

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_run(int run) { run_ = run; }

  [[nodiscard]] int open(const char* name, std::size_t cols = 0);
  void close(int index);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  void clear() { spans_.clear(); stack_.clear(); }

  /// Write every span as JSON (name, start, end, parent, run, cols).
  [[nodiscard]] bool write_json(const std::string& path) const;

 private:
  bool enabled_ = false;
  int run_ = 0;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a no-op while the tracer is disabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::size_t cols = 0)
      : index_(Tracer::instance().enabled()
                   ? Tracer::instance().open(name, cols)
                   : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) Tracer::instance().close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int index_;
};

/// Span names (the layer is the prefix before the dot).
namespace span {
inline constexpr const char* kStep = "core.step";
inline constexpr const char* kAdvance = "core.advance";
inline constexpr const char* kNoise = "core.noise";
inline constexpr const char* kAssemble = "sd.assemble";
inline constexpr const char* kLanczos = "solver.lanczos";
inline constexpr const char* kChebBlock = "solver.cheb_block";
inline constexpr const char* kBlockSolve = "solver.block_solve";
inline constexpr const char* kChebSingle = "solver.cheb_single";
inline constexpr const char* kCgFirst = "solver.cg_first";
inline constexpr const char* kCgSecond = "solver.cg_second";
inline constexpr const char* kSpmv = "sparse.spmv";
inline constexpr const char* kGspmv = "sparse.gspmv";
inline constexpr const char* kRound = "ensemble.round";
inline constexpr const char* kRefSetup = "ensemble.ref_setup";
}  // namespace span

/// LinearOperator decorator: forwards to a BcrsOperator and records a
/// sparse.spmv / sparse.gspmv span per apply, so every solver call is
/// attributed without touching the solver.
class TracedOperator final : public mrhs::solver::LinearOperator {
 public:
  TracedOperator(const mrhs::sparse::BcrsMatrix& a, int threads)
      : inner_(a, threads) {}

  [[nodiscard]] std::size_t size() const override { return inner_.size(); }
  void apply(std::span<const double> x, std::span<double> y) const override {
    ScopedSpan s(span::kSpmv, 1);
    inner_.apply(x, y);
  }
  void apply_block(const mrhs::sparse::MultiVector& x,
                   mrhs::sparse::MultiVector& y) const override {
    ScopedSpan s(span::kGspmv, x.cols());
    inner_.apply_block(x, y);
  }
  [[nodiscard]] double apply_bytes(std::size_t m) const override {
    return inner_.apply_bytes(m);
  }
  [[nodiscard]] double apply_flops(std::size_t m) const override {
    return inner_.apply_flops(m);
  }

 private:
  mrhs::solver::BcrsOperator inner_;
};

/// Solver and assembly outcomes of recomposed steps, gathered where the
/// library returns them (counts the spans cannot carry).
struct StepCounters {
  std::size_t steps = 0;
  std::size_t chunks = 0;
  std::size_t assemble_calls = 0;
  std::size_t pairs_recomputed = 0;
  std::size_t blocks_reused = 0;
  std::size_t pattern_rebuilds = 0;
  std::size_t block_iterations = 0;
  std::size_t cg_first_iterations = 0;
  std::size_t cg_second_iterations = 0;
  /// Solves that did not end kConverged (or ladder rescues).
  std::size_t unconverged = 0;
  /// Operator shapes for the traffic model.
  double matrix_bytes = 0.0;
  double gspmv_bytes = 0.0;  // apply_bytes(m) at the workload's m
  double gspmv_flops = 0.0;  // apply_flops(m) at the workload's m
};

/// Recomposition of MrhsAlgorithm / OriginalAlgorithm from public
/// calls, bitwise equal to their run(). Each step is one core.step
/// span with the layer calls inside it.
class MrhsRecomposition {
 public:
  MrhsRecomposition(mrhs::core::SdSimulation& sim, std::size_t rhs,
                    std::size_t horizon, StepCounters& counters);
  /// Advance one step (a chunk-start step runs the block phases).
  void step();

 private:
  mrhs::core::SdSimulation* sim_;
  std::size_t rhs_;
  std::size_t horizon_end_;
  std::size_t step_ = 0;
  std::size_t chunk_len_ = 0;
  std::size_t chunk_pos_ = 0;
  bool guesses_ok_ = false;
  mrhs::solver::EigBounds bounds_{};
  mrhs::sparse::MultiVector guesses_;
  StepCounters* counters_;
};

class OriginalRecomposition {
 public:
  OriginalRecomposition(mrhs::core::SdSimulation& sim, StepCounters& counters)
      : sim_(&sim), counters_(&counters) {}
  void step();

 private:
  mrhs::core::SdSimulation* sim_;
  std::size_t step_ = 0;
  mrhs::solver::EigBounds bounds_{};
  bool have_bounds_ = false;
  StepCounters* counters_;
};

/// One member of a recomposed ensemble batch.
struct RecomposedMember {
  std::uint32_t positions_crc = 0;
  bool healthy = true;
  std::optional<mrhs::core::SdSimulation> sim;
};

/// Recompose one EnsembleRunner batch (shared reference operator,
/// packed block Chebyshev, per-member guess solves, guided steps) for
/// the given noise seeds, from the pristine base system.
std::vector<RecomposedMember> recompose_ensemble_batch(
    const mrhs::core::SdSimulation& base, std::span<const std::uint64_t> seeds,
    std::size_t steps, std::size_t rhs, StepCounters& counters);

/// CRC-32 of the particle positions (same fingerprint as the ensemble's
/// positions_crc).
[[nodiscard]] std::uint32_t positions_crc(const mrhs::sd::ParticleSystem& s);

/// True when every coordinate is finite.
[[nodiscard]] bool positions_finite(const mrhs::sd::ParticleSystem& s);

/// Sum over particles of the squared minimum-image distance to the
/// reference, and of the reference's squared displacement from start.
struct Deviation {
  double dist2 = 0.0;
  double disp2 = 0.0;
  [[nodiscard]] double relative() const;
};
void accumulate_deviation(const mrhs::sd::ParticleSystem& run,
                          const mrhs::sd::ParticleSystem& reference,
                          Deviation& dev);

/// The converged reference trajectory every traj_dev_rel is measured
/// against: Algorithm 1 with exact assembly (tolerance 0) and a solver
/// tolerance four orders tighter than production, from `start`.
[[nodiscard]] mrhs::sd::ParticleSystem reference_trajectory(
    const mrhs::core::SdConfig& config, const mrhs::sd::ParticleSystem& start,
    double dt, double mean_radius, std::size_t steps);

[[nodiscard]] double median(std::vector<double> v);

/// Peak resident memory of this program so far, in MB (VmHWM).
[[nodiscard]] double peak_rss_mb();

/// The highest percentile with at least ten samples beyond it (the
/// median when there are too few samples for any tail).
struct Tail {
  double value = 0.0;
  double percentile = 50.0;
  std::size_t samples = 0;
};
[[nodiscard]] Tail tail_of(const std::vector<double>& v);

/// Everything one benchmark run reports.
struct Report {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  std::vector<std::string> failed_checks;
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void check(bool ok, const std::string& what);
};

/// Per-layer metrics from the spans and counters of a traced phase.
/// `m` is the workload's block width, `threads` the kernel thread
/// count, `untraced_steps_per_s` the matching untraced rate (for
/// bench.trace_overhead_frac).
void layer_metrics(const StepCounters& counters, std::size_t m, int threads,
                   double untraced_steps_per_s, Report& report);

/// Roofline inputs and cache-residency labels.
void residency_metrics(const StepCounters& counters, std::size_t n_dof,
                       std::size_t m, Report& report);

/// Zero-valued entries for the ensemble per-layer metrics on workloads
/// that do not exercise that layer (every traced run reports every
/// per-layer name; 0 means "not exercised here").
void fill_unexercised(Report& report);

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string state_dir;  // cross-run records, journals, trace files
  std::string record_key;  // identifies the binary for cross-run records
};

/// Compare `values` with the record kept for this workload, seed and
/// binary, or create it on first use. False on mismatch.
[[nodiscard]] bool check_cross_run_record(const RunOptions& opts,
                                          const std::string& values);

void run_stepping(const RunOptions& opts, Report& report);
void run_serving(const RunOptions& opts, Report& report);

}  // namespace perfbench
