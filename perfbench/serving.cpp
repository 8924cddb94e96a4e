// The ensemble_serve workload: a closed loop of clients in front of
// ensemble::JobQueue with its fsync'd journal on. Each client submits
// its next job as soon as its previous result is visible.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "ensemble/ensemble_runner.hpp"
#include "ensemble/job_queue.hpp"

namespace perfbench {

namespace {

using mrhs::core::SdConfig;
using mrhs::core::SdSimulation;
namespace ens = mrhs::ensemble;

// A 200-particle, 50 % occupancy base: every batch re-packs it, so the
// base must pack in well under a second for a run to see tens of jobs.
// Packing time at this size varies fivefold between packing seeds, so
// the served system is fixed (SdConfig's default seed, like a deployed
// model) and the benchmark seed drives the traffic: the jobs' noise
// seeds.
constexpr std::size_t kParticles = 200;
constexpr double kPhi = 0.5;
constexpr std::uint64_t kBaseSeed = SdConfig{}.seed;
constexpr std::size_t kBatch = 4;     // K jobs per batch
constexpr std::size_t kMemberRhs = 8;  // member m
constexpr std::size_t kJobSteps = 16;
constexpr std::size_t kClients = 8;
// The queue serves with one kernel thread, as the stepping workloads
// time theirs (see stepping.cpp); one EnsembleRunner batch on four
// threads checks that the served bits do not depend on the count.
constexpr int kTimedThreads = 1;
constexpr int kParallelThreads = 4;
constexpr int kSetupRepeats = 3;
constexpr int kTracedTurns = 3;
// Jobs whose trajectories are recomposed for traj_dev_rel: 24
// batches, 96 noise streams. One job's deviation ranges over 6e-6 to
// 6.7e-5 with how its solves happen to stop (coefficient of variation
// 0.64), so fewer jobs leave the mean to chance.
constexpr std::uint64_t kDeviationBatches = 24;

SdConfig base_config(int threads) {
  SdConfig config;
  config.particles = kParticles;
  config.phi = kPhi;
  config.seed = kBaseSeed;
  config.threads = threads;
  return config;
}

/// Noise seed of the `index`-th job of a run (splitmix64 of the
/// benchmark seed and the index; never 0).
std::uint64_t job_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + index + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  return z == 0 ? 1 : z;
}

ens::JobQueueOptions queue_options(const std::string& journal) {
  ens::JobQueueOptions options;
  options.batch_size = kBatch;
  options.ensemble.rhs = kMemberRhs;
  options.journal_path = journal;
  return options;
}

struct Loop {
  std::size_t submitted = 0;
  std::size_t failed = 0;
  std::size_t rollbacks = 0;
  std::vector<double> latency;
  std::vector<double> submit_seconds;
  std::vector<double> batch_seconds;
  std::vector<double> batch_steps_per_s;  // completed member-steps
  std::vector<double> queue_wait;
  std::map<std::uint64_t, std::uint32_t> crc_by_index;
  /// Member-steps per wall second of the median batch: a slow spell of
  /// the shared host moves a few batches, not the median. Submits
  /// between batches cost about 0.1 ms each against 0.5 s batches.
  [[nodiscard]] double steps_per_s() const {
    return median(batch_steps_per_s);
  }
};

/// Serve for `budget` seconds, and at least until every job the
/// deviation check recomposes was submitted: clients then stop
/// submitting and the queue drains, so every submitted job reaches a
/// terminal state.
Loop closed_loop(const RunOptions& opts, double budget, Report& report) {
  const std::string journal = opts.state_dir + "/serve.jrnl";
  unlink(journal.c_str());
  ens::JobQueue queue(base_config(kTimedThreads), queue_options(journal));
  report.check(queue.open().is_ok(), "journal opens");

  struct Pending {
    std::uint64_t index = 0;
    double submitted_at = 0.0;
  };
  std::map<std::uint64_t, Pending> pending;
  Loop loop;
  std::uint64_t next_index = 0;
  bool journal_ok = true;
  const auto submit = [&]() {
    ens::JobSpec spec;
    spec.noise_seed = job_seed(opts.seed, next_index);
    spec.steps = kJobSteps;
    ens::Admission admission;
    const double t0 = now_seconds();
    journal_ok = queue.submit(spec, admission).is_ok() && journal_ok;
    loop.submit_seconds.push_back(now_seconds() - t0);
    ++loop.submitted;
    if (admission.accepted) {
      pending[admission.id] = {next_index, t0};
    } else {
      ++loop.failed;  // rejected
    }
    ++next_index;
  };

  const double start = now_seconds();
  for (std::size_t c = 0; c < kClients; ++c) submit();
  std::size_t seen = 0;
  while (queue.outstanding() > 0) {
    const double batch_start = now_seconds();
    journal_ok = queue.run_batch().is_ok() && journal_ok;
    const double visible = now_seconds();
    loop.batch_seconds.push_back(visible - batch_start);
    std::size_t batch_steps = 0;
    const auto& results = queue.results();
    for (; seen < results.size(); ++seen) {
      const ens::JobResult& r = results[seen];
      const Pending job = pending.at(r.id);
      pending.erase(r.id);
      loop.latency.push_back(visible - job.submitted_at);
      loop.queue_wait.push_back(batch_start - job.submitted_at);
      loop.rollbacks += r.rollbacks;
      if (r.state == ens::JobState::kCompleted) {
        batch_steps += r.steps_done;
        loop.crc_by_index[job.index] = r.positions_crc;
      } else {
        ++loop.failed;
      }
      if (visible - start < budget || next_index < kDeviationBatches * kBatch) {
        submit();
      }
    }
    loop.batch_steps_per_s.push_back(static_cast<double>(batch_steps) /
                                     loop.batch_seconds.back());
  }
  report.check(journal_ok, "journal appends succeed");
  unlink(journal.c_str());
  report.attempted += loop.submitted;
  report.failed += loop.failed;
  return loop;
}

/// Recompose the batch of jobs `first`..`first`+K-1 and check each
/// ends on the bits the queue reported for it (a job's trajectory does
/// not depend on which batch or neighbours it was served with).
std::vector<RecomposedMember> recompose_batch(
    const RunOptions& opts, const SdSimulation& base, std::uint64_t first,
    const std::map<std::uint64_t, std::uint32_t>& crc_by_index,
    StepCounters& counters, Report& report) {
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t i = first; i < first + kBatch; ++i) {
    seeds.push_back(job_seed(opts.seed, i));
  }
  auto members = recompose_ensemble_batch(base, seeds, kJobSteps, kMemberRhs,
                                          counters);
  bool faithful = true;
  bool healthy = true;
  for (std::size_t i = 0; i < members.size(); ++i) {
    const auto it = crc_by_index.find(first + i);
    faithful = faithful && it != crc_by_index.end() &&
               it->second == members[i].positions_crc;
    healthy = healthy && members[i].healthy;
  }
  report.check(faithful, "recomposed batch ends on the served jobs' bits");
  report.check(healthy, "recomposed members never reach a corrupt state");
  return members;
}

/// One EnsembleRunner batch with the first K jobs' scenarios, timed as
/// runner set-up (packing + reference operator) and run.
struct RunnerBatch {
  double setup_seconds = 0.0;
  double run_seconds = 0.0;
  std::size_t steps = 0;
  std::size_t rounds = 0;
  std::map<std::uint64_t, std::uint32_t> crc_by_index;
};

RunnerBatch runner_batch(const RunOptions& opts, int threads) {
  RunnerBatch out;
  const double t0 = now_seconds();
  ens::EnsembleRunner runner(base_config(threads),
                             ens::EnsembleOptions{.rhs = kMemberRhs});
  const double t1 = now_seconds();
  for (std::uint64_t i = 0; i < kBatch; ++i) {
    static_cast<void>(runner.add_member(
        ens::Scenario{.id = i + 1,
                      .noise_seed = job_seed(opts.seed, i),
                      .steps = kJobSteps}));
  }
  const auto reports = runner.run();
  const double t2 = now_seconds();
  out.setup_seconds = t1 - t0;
  out.run_seconds = t2 - t1;
  out.rounds = runner.rounds();
  for (const auto& r : reports) {
    out.steps += r.steps_done;
    out.crc_by_index[r.id - 1] = r.positions_crc;
  }
  return out;
}

/// True when every job of `batch` was served with the same bits.
bool same_bits(const RunnerBatch& batch, const Loop& loop) {
  bool same = batch.crc_by_index.size() == kBatch;
  for (const auto& [index, crc] : batch.crc_by_index) {
    const auto it = loop.crc_by_index.find(index);
    same = same && it != loop.crc_by_index.end() && it->second == crc;
  }
  return same;
}

void untraced(const RunOptions& opts, Report& report) {
  // Set-up: the queue with its journal opened, plus the served base
  // system packed (every batch packs it again today; the benchmark
  // keeps this one as the start of its reference trajectories).
  std::vector<double> setup;
  std::optional<SdSimulation> base;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const std::string journal = opts.state_dir + "/setup.jrnl";
    unlink(journal.c_str());
    base.reset();
    const double t0 = now_seconds();
    ens::JobQueue queue(base_config(kTimedThreads), queue_options(journal));
    const bool opened = queue.open().is_ok();
    base.emplace(base_config(kTimedThreads));
    setup.push_back(now_seconds() - t0);
    report.check(opened, "journal opens");
    unlink(journal.c_str());
  }

  const Loop loop = closed_loop(opts, opts.seconds, report);

  // traj_dev_rel: the mean over the jobs of the first
  // kDeviationBatches batches.
  StepCounters counters;
  std::vector<double> deviations;
  for (std::uint64_t b = 0; b < kDeviationBatches; ++b) {
    for (const RecomposedMember& m :
         recompose_batch(opts, *base, b * kBatch, loop.crc_by_index, counters,
                         report)) {
      const auto reference =
          reference_trajectory(m.sim->config(), base->system(), base->dt(),
                               base->mean_radius(), kJobSteps);
      Deviation dev;
      accumulate_deviation(m.sim->system(), reference, dev);
      deviations.push_back(dev.relative());
    }
  }
  // Peak memory of the measured one-thread work, taken before the
  // four-thread batch adds its workers' stacks and malloc arenas.
  report.set("peak_rss_mb", peak_rss_mb(), "MB");
  report.check(same_bits(runner_batch(opts, kParallelThreads), loop),
               "4-thread runner batch matches the served jobs bitwise");

  // Latency over a fixed sample, the first jobs every run serves, so
  // the tail's percentile does not move with the host's speed.
  const std::vector<double> latency(
      loop.latency.begin(),
      loop.latency.begin() + kDeviationBatches * kBatch);
  const Tail tail = tail_of(latency);
  std::fprintf(stderr,
               "latency_tail_s is p%.2f of %zu jobs; %zu jobs served\n",
               tail.percentile, tail.samples, loop.submitted);
  report.set("setup_s", median(setup), "s");
  report.set("steps_per_s", loop.steps_per_s(), "1/s");
  double mean_deviation = 0.0;
  for (double d : deviations) mean_deviation += d;
  mean_deviation /= static_cast<double>(deviations.size());
  report.set("traj_dev_rel", mean_deviation, "ratio");
  report.set("latency_p50_s", median(latency), "s");
  report.set("latency_tail_s", tail.value, "s");

  std::string record = std::to_string(positions_crc(base->system()));
  for (std::uint64_t i = 0; i < kClients; ++i) {
    const auto it = loop.crc_by_index.find(i);
    record += ' ';
    record += it == loop.crc_by_index.end() ? std::string("missing")
                                            : std::to_string(it->second);
  }
  report.check(check_cross_run_record(opts, record),
               "job fingerprints match earlier runs at this seed");
}

void traced(const RunOptions& opts, Report& report) {
  const Loop loop = closed_loop(opts, 0.5 * opts.seconds, report);

  // The first batch's scenarios, kTracedTurns times: a runner batch
  // split into set-up and run on one thread, the same on four threads,
  // and the traced recomposition, taking turns so a slow spell of the
  // host hits all three alike. A single batch's timings swing by a
  // third between runs.
  const double p0 = now_seconds();
  const SdSimulation base(base_config(kTimedThreads));
  const double pack_seconds = now_seconds() - p0;
  Tracer& tracer = Tracer::instance();
  tracer.clear();
  StepCounters counters;
  std::vector<RunnerBatch> batches;
  std::vector<RunnerBatch> parallel;
  bool same = true;
  for (int turn = 0; turn < kTracedTurns; ++turn) {
    batches.push_back(runner_batch(opts, kTimedThreads));
    parallel.push_back(runner_batch(opts, kParallelThreads));
    same = same && same_bits(batches.back(), loop) &&
           same_bits(parallel.back(), loop);
    tracer.set_enabled(true);
    tracer.set_run(turn);
    static_cast<void>(recompose_batch(opts, base, 0, batches.back().crc_by_index,
                                      counters, report));
    tracer.set_enabled(false);
  }
  report.check(same, "runner batches match the served jobs bitwise");
  report.check(counters.unconverged == 0, "traced solves all converged");
  report.attempted += counters.steps;

  std::vector<double> setup_seconds;
  std::vector<double> run_seconds;
  std::vector<double> parallel_run_seconds;
  double total_steps = 0.0;
  for (std::size_t i = 0; i < batches.size(); ++i) {
    setup_seconds.push_back(batches[i].setup_seconds);
    run_seconds.push_back(batches[i].run_seconds);
    parallel_run_seconds.push_back(parallel[i].run_seconds);
    total_steps += static_cast<double>(batches[i].steps);
  }
  const RunnerBatch& batch = batches.front();
  report.set("sd.pack_s", pack_seconds, "s");
  // The traced rate is total steps over total time; so is this one.
  double total_run_seconds = 0.0;
  for (double t : run_seconds) total_run_seconds += t;
  layer_metrics(counters, kMemberRhs, kTimedThreads,
                total_steps / total_run_seconds, report);
  residency_metrics(counters, 3 * kParticles, kBatch * kMemberRhs, report);
  report.set("core.thread_speedup",
             median(run_seconds) / median(parallel_run_seconds), "ratio");
  report.set("ensemble.submit_s_p50", median(loop.submit_seconds), "s");
  report.set("ensemble.batch_s_p50", median(loop.batch_seconds), "s");
  report.set("ensemble.batch_setup_s", median(setup_seconds), "s");
  report.set("ensemble.batch_run_s", median(run_seconds), "s");
  report.set("ensemble.queue_wait_s_p50", median(loop.queue_wait), "s");
  report.set("ensemble.rounds_per_batch", static_cast<double>(batch.rounds),
             "count");
  // Every round packs one column per remaining member step.
  report.set("ensemble.pack_width_mean",
             static_cast<double>(batch.steps) /
                 static_cast<double>(std::max<std::size_t>(batch.rounds, 1)),
             "count");
  report.set("ensemble.rollbacks", static_cast<double>(loop.rollbacks),
             "count");
}

}  // namespace

void run_serving(const RunOptions& opts, Report& report) {
  if (opts.trace) {
    traced(opts, report);
  } else {
    untraced(opts, report);
  }
}

}  // namespace perfbench
