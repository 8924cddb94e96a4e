// The three single-trajectory workloads: mrhs_exact, original_exact and
// mrhs_incremental. Each packs one fixed system, then replays one
// trajectory segment, driven by the seed's noise, from that packed
// start until the measurement budget is spent. Timed replays run the
// kernels on one thread; every replay, at one thread or four, must end
// bitwise identical. Rates and latencies are medians over the replays.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/health.hpp"
#include "core/stepper.hpp"

namespace perfbench {

namespace {

using mrhs::core::SdConfig;
using mrhs::core::SdSimulation;

// 500 particles at the paper's 50 % occupancy: large enough that
// assembly, the solvers and GSPMV all matter in a step, small enough
// that packing three times fits a run (packing costs about 5 ms per
// particle here, which rules out the paper's 3000).
constexpr std::size_t kParticles = 500;
constexpr double kPhi = 0.5;
// Packing time and the packed system's conditioning vary with the
// packing seed (packing took 2.2 to 3.2 s over seeds 1 to 16), which
// would add to every timing's spread, so the packed system is fixed
// and the benchmark seed drives the Brownian noise of the trajectory.
// Seed 12 packs in the median time of seeds 1 to 16; SdConfig's
// default seed 42 is an outlier at 4.2 s.
constexpr std::uint64_t kPackSeed = 12;
constexpr std::size_t kRhs = 16;  // the paper's Table VI m
// Four MRHS chunks: the segment's solver work depends on its noise, and
// a longer segment averages more of it.
constexpr std::size_t kSegmentSteps = 4 * kRhs;
// Timed replays run the kernels on one thread: on a host whose few
// cores are shared, a four-thread kernel waits at every barrier for
// its slowest thread and its rate swings by half from run to run. The
// four-thread replays check determinism and give core.thread_speedup
// in the traced run.
constexpr int kTimedThreads = 1;
constexpr int kParallelThreads = 4;
constexpr int kSetupRepeats = 3;
constexpr std::size_t kMinReplays = 8;

struct Spec {
  bool mrhs = true;
  double tolerance = 0.0;
};

Spec spec_for(const std::string& workload) {
  if (workload == "mrhs_exact") return {true, 0.0};
  if (workload == "original_exact") return {false, 0.0};
  if (workload == "mrhs_incremental") return {true, 0.05};
  throw std::invalid_argument("unknown workload " + workload);
}

struct Start {
  SdConfig config;
  mrhs::sd::ParticleSystem system;
  double dt = 0.0;
  double mean_radius = 0.0;
};

struct Segment {
  double seconds = 0.0;
  std::vector<double> step_seconds;
  std::uint32_t crc = 0;
  std::size_t failed_steps = 0;
  std::optional<mrhs::sd::ParticleSystem> final_system;
};

/// One untraced replay of the segment through the library's own
/// algorithm, one run(1) call per step. With `check_health` the health
/// monitor and the finiteness check run between the timed calls.
Segment run_segment(const Start& start, const Spec& spec, int threads,
                    bool check_health) {
  SdConfig config = start.config;
  config.threads = threads;
  SdSimulation sim(config, start.system, start.dt, start.mean_radius);
  mrhs::core::StepHealthMonitor monitor(sim);
  std::optional<mrhs::core::MrhsAlgorithm> mrhs_alg;
  std::optional<mrhs::core::OriginalAlgorithm> original_alg;
  if (spec.mrhs) {
    mrhs_alg.emplace(sim, mrhs::core::AlgorithmConfig{.rhs = kRhs});
    mrhs_alg->set_horizon(kSegmentSteps);
  } else {
    original_alg.emplace(sim);
  }
  Segment seg;
  for (std::size_t k = 0; k < kSegmentSteps; ++k) {
    const double t0 = now_seconds();
    const mrhs::core::RunStats stats =
        spec.mrhs ? mrhs_alg->run(1) : original_alg->run(1);
    const double dt = now_seconds() - t0;
    seg.seconds += dt;
    seg.step_seconds.push_back(dt);
    bool ok = stats.solver_status == mrhs::solver::SolveStatus::kConverged &&
              stats.ladder_recoveries == 0 && stats.ladder_failures == 0;
    if (!ok) {
      std::fprintf(stderr, "step %zu at %d threads: solve %s, %zu ladder "
                   "recoveries, %zu ladder failures\n", k, threads,
                   mrhs::solver::to_string(stats.solver_status),
                   stats.ladder_recoveries, stats.ladder_failures);
    }
    if (check_health) {
      monitor.set_bounds(spec.mrhs ? mrhs_alg->chunk_bounds()
                                   : original_alg->export_state().bounds);
      // Like the library's own runners, only a corrupt verdict fails a
      // step; a degraded one (finite and usable, e.g. a 6-sigma
      // thermal displacement) is reported.
      const mrhs::core::HealthVerdict verdict =
          monitor.check(stats.steps.back());
      if (!verdict.ok()) {
        std::fprintf(stderr, "step %zu at %d threads: health %s (%s) %s\n",
                     k, threads, mrhs::core::to_string(verdict.state),
                     mrhs::core::to_string(verdict.check),
                     verdict.detail.c_str());
      }
      ok = ok && !verdict.corrupt() && positions_finite(sim.system());
    }
    if (!ok) ++seg.failed_steps;
  }
  seg.crc = positions_crc(sim.system());
  seg.final_system = sim.system();
  return seg;
}

/// Timed replays at one kernel thread count.
struct Replays {
  int threads = 1;
  std::vector<Segment> reps;

  [[nodiscard]] double seconds() const {
    double total = 0.0;
    for (const Segment& s : reps) total += s.seconds;
    return total;
  }
  /// Steps per wall second of the median replay: a slow spell of the
  /// shared host moves a few replays, not the median.
  [[nodiscard]] double steps_per_s() const {
    std::vector<double> v;
    for (const Segment& s : reps) v.push_back(s.seconds);
    return static_cast<double>(kSegmentSteps) / median(v);
  }
};

/// One health-checked warm-up replay, then timed replays until
/// `budget` seconds of replay time are spent, with at least
/// kMinReplays. Checks that every replay ends on the warm-up's bits;
/// that makes its per-step health checks hold for all.
Replays replay(const Start& start, const Spec& spec, double budget,
               Report& report) {
  const Segment warm_up = run_segment(start, spec, kTimedThreads, true);
  report.attempted += kSegmentSteps;
  report.failed += warm_up.failed_steps;
  Replays out{kTimedThreads, {}};
  bool same = true;
  while (out.seconds() < budget || out.reps.size() < kMinReplays) {
    out.reps.push_back(run_segment(start, spec, kTimedThreads, false));
    report.attempted += kSegmentSteps;
    report.failed += out.reps.back().failed_steps;
    same = same && out.reps.back().crc == warm_up.crc;
    // Only the first replay's positions are used (traj_dev_rel); the
    // number of replays varies with the host's speed, so keeping every
    // copy would make peak_rss_mb vary with it.
    if (out.reps.size() > 1) out.reps.back().final_system.reset();
  }
  report.check(same, "timed replays end bitwise identical");
  return out;
}

Start pack(const RunOptions& opts, const Spec& spec, int repeats,
           std::vector<double>& seconds, Report& report) {
  SdConfig config;
  config.particles = kParticles;
  config.phi = kPhi;
  config.seed = kPackSeed;
  config.threads = kTimedThreads;
  config.assembly_tolerance = spec.tolerance;
  std::optional<SdSimulation> sim;
  std::vector<std::uint32_t> crcs;
  for (int i = 0; i < repeats; ++i) {
    sim.reset();
    const double t0 = now_seconds();
    sim.emplace(config);
    seconds.push_back(now_seconds() - t0);
    crcs.push_back(positions_crc(sim->system()));
  }
  bool same = true;
  for (std::uint32_t crc : crcs) same = same && crc == crcs.front();
  report.check(same, "packing repeats bitwise");
  report.check(positions_finite(sim->system()), "packed positions finite");
  config.seed = opts.seed;  // the noise stream of every replay
  return {config, sim->system(), sim->dt(), sim->mean_radius()};
}

void untraced(const RunOptions& opts, const Spec& spec, Report& report) {
  std::vector<double> setup;
  const Start start = pack(opts, spec, kSetupRepeats, setup, report);
  const Replays reps = replay(start, spec, opts.seconds, report);

  const auto reference =
      reference_trajectory(start.config, start.system, start.dt,
                           start.mean_radius, kSegmentSteps);
  Deviation dev;
  accumulate_deviation(*reps.reps.front().final_system, reference, dev);

  // p50: every timed step. Tail: the slowest step of each replay (on
  // the MRHS workloads a chunk-start step, which carries the block
  // phases), median over the replays.
  std::vector<double> step_seconds;
  std::vector<double> slowest;
  for (const Segment& seg : reps.reps) {
    step_seconds.insert(step_seconds.end(), seg.step_seconds.begin(),
                        seg.step_seconds.end());
    slowest.push_back(
        *std::max_element(seg.step_seconds.begin(), seg.step_seconds.end()));
  }
  std::fprintf(stderr, "%zu timed replays of %zu steps on %d thread(s)\n",
               reps.reps.size(), kSegmentSteps, kTimedThreads);

  report.set("setup_s", median(setup), "s");
  report.set("steps_per_s", reps.steps_per_s(), "1/s");
  report.set("traj_dev_rel", dev.relative(), "ratio");
  report.set("latency_p50_s", median(step_seconds), "s");
  report.set("latency_tail_s", median(slowest), "s");

  // Peak memory of the measured one-thread work, taken before the
  // four-thread replay adds its workers' stacks and malloc arenas.
  report.set("peak_rss_mb", peak_rss_mb(), "MB");
  const Segment parallel = run_segment(start, spec, kParallelThreads, true);
  report.attempted += kSegmentSteps;
  report.failed += parallel.failed_steps;
  report.check(parallel.crc == reps.reps.front().crc,
               "replays at " + std::to_string(kTimedThreads) + " and " +
                   std::to_string(kParallelThreads) +
                   " threads end bitwise identical");

  const std::string record = std::to_string(positions_crc(start.system)) +
                             " " + std::to_string(reps.reps.front().crc);
  report.check(check_cross_run_record(opts, record),
               "packing and trajectory match earlier runs at this seed");
}

/// One traced replay through the recomposition; returns its final
/// positions' CRC and adds its wall time to `seconds`.
std::uint32_t traced_segment(const Start& start, const Spec& spec,
                             StepCounters& counters, double& seconds) {
  SdSimulation sim(start.config, start.system, start.dt, start.mean_radius);
  std::optional<MrhsRecomposition> mrhs_rec;
  std::optional<OriginalRecomposition> original_rec;
  if (spec.mrhs) {
    mrhs_rec.emplace(sim, kRhs, kSegmentSteps, counters);
  } else {
    original_rec.emplace(sim, counters);
  }
  const double t0 = now_seconds();
  for (std::size_t k = 0; k < kSegmentSteps; ++k) {
    if (spec.mrhs) {
      mrhs_rec->step();
    } else {
      original_rec->step();
    }
  }
  seconds += now_seconds() - t0;
  return positions_crc(sim.system());
}

/// Untraced and traced replays on kTimedThreads take turns (after one
/// health-checked warm-up replay), so the tracing overhead is measured
/// under the same host conditions, and an untraced kParallelThreads
/// replay joins each turn for core.thread_speedup. Every replay must
/// end on the warm-up's bits.
void traced(const RunOptions& opts, const Spec& spec, Report& report) {
  std::vector<double> setup;
  const Start start = pack(opts, spec, 1, setup, report);
  const Segment warm_up = run_segment(start, spec, kTimedThreads, true);
  report.attempted += kSegmentSteps;
  report.failed += warm_up.failed_steps;

  Tracer& tracer = Tracer::instance();
  tracer.clear();
  StepCounters counters;
  Replays untraced_reps{kTimedThreads, {}};
  Replays parallel_reps{kParallelThreads, {}};
  double traced_seconds = 0.0;
  bool same = true;
  bool faithful = true;
  const auto untraced_once = [&](Replays& reps) {
    reps.reps.push_back(run_segment(start, spec, reps.threads, false));
    report.attempted += kSegmentSteps;
    report.failed += reps.reps.back().failed_steps;
    same = same && reps.reps.back().crc == warm_up.crc;
  };
  for (int run = 0;
       run < 2 || untraced_reps.seconds() + parallel_reps.seconds() +
                          traced_seconds < opts.seconds;
       ++run) {
    untraced_once(untraced_reps);
    untraced_once(parallel_reps);
    tracer.set_enabled(true);
    tracer.set_run(run);
    faithful = faithful && traced_segment(start, spec, counters,
                                          traced_seconds) == warm_up.crc;
    tracer.set_enabled(false);
  }
  report.check(same, "untraced replays end bitwise identical");
  report.check(faithful, "traced recomposition ends on the run() bits");
  report.check(counters.unconverged == 0, "traced solves all converged");
  report.attempted += counters.steps;

  report.set("sd.pack_s", setup.front(), "s");
  // The traced rate is total steps over total time; so is this one.
  layer_metrics(counters, kRhs, kTimedThreads,
                static_cast<double>(untraced_reps.reps.size() * kSegmentSteps) /
                    untraced_reps.seconds(),
                report);
  residency_metrics(counters, 3 * kParticles, spec.mrhs ? kRhs : 1, report);
  report.set("core.thread_speedup",
             parallel_reps.steps_per_s() / untraced_reps.steps_per_s(),
             "ratio");
  fill_unexercised(report);
}

}  // namespace

void run_stepping(const RunOptions& opts, Report& report) {
  const Spec spec = spec_for(opts.workload);
  if (opts.trace) {
    traced(opts, spec, report);
  } else {
    untraced(opts, spec, report);
  }
}

}  // namespace perfbench
