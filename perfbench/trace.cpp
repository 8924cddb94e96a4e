// Span recording, statistics helpers, per-layer metric derivation and
// the cross-run determinism record.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <sys/resource.h>
#include <unistd.h>

#include "bench.hpp"
#include "core/stepper.hpp"
#include "perf/machine.hpp"
#include "util/checksum.hpp"

namespace perfbench {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

int Tracer::open(const char* name, std::size_t cols) {
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.run = run_;
  s.cols = cols;
  s.start = now_seconds();
  spans_.push_back(s);
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void Tracer::close(int index) {
  spans_[static_cast<std::size_t>(index)].end = now_seconds();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

bool Tracer::write_json(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"name\": \"%s\", \"start\": %.9f, \"end\": %.9f, "
                 "\"parent\": %d, \"run\": %d, \"cols\": %zu}%s\n",
                 s.name, s.start, s.end, s.parent, s.run, s.cols,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(out, "]\n");
  return std::fclose(out) == 0;
}

std::uint32_t positions_crc(const mrhs::sd::ParticleSystem& s) {
  const auto p = s.positions();
  return mrhs::util::crc32(p.data(), p.size() * sizeof(mrhs::sd::Vec3));
}

bool positions_finite(const mrhs::sd::ParticleSystem& s) {
  for (const auto& p : s.positions()) {
    if (!std::isfinite(p.x) || !std::isfinite(p.y) || !std::isfinite(p.z)) {
      return false;
    }
  }
  return true;
}

double Deviation::relative() const {
  return disp2 > 0.0 ? std::sqrt(dist2 / disp2) : 0.0;
}

void accumulate_deviation(const mrhs::sd::ParticleSystem& run,
                          const mrhs::sd::ParticleSystem& reference,
                          Deviation& dev) {
  // Both trajectories start from one packed configuration with zero
  // accumulated displacement, so the reference's unwrapped
  // displacement is its distance travelled.
  for (std::size_t i = 0; i < run.size(); ++i) {
    dev.dist2 += reference.box()
                     .min_image(run.positions()[i], reference.positions()[i])
                     .norm2();
    dev.disp2 += reference.unwrapped_displacement(i).norm2();
  }
}

mrhs::sd::ParticleSystem reference_trajectory(
    const mrhs::core::SdConfig& config, const mrhs::sd::ParticleSystem& start,
    double dt, double mean_radius, std::size_t steps) {
  mrhs::core::SdConfig exact = config;
  exact.assembly_tolerance = 0.0;
  exact.solver_tol = config.solver_tol * 1e-4;
  mrhs::core::SdSimulation sim(exact, start, dt, mean_radius);
  mrhs::core::OriginalAlgorithm alg(sim);
  static_cast<void>(alg.run(steps));
  return sim.system();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double peak_rss_mb() {
  // VmHWM is the high-water mark of this program's own address space.
  // getrusage's ru_maxrss is not: it keeps the launching process's
  // resident size from before the exec (a Python launcher's ~14 MB
  // hid the benchmark's own ~7 MB).
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

Tail tail_of(const std::vector<double>& v) {
  Tail t;
  t.samples = v.size();
  if (v.size() < 20) {
    t.value = median(v);
    return t;
  }
  // Ten samples strictly above the reported one.
  const auto n = static_cast<double>(v.size());
  t.percentile = 100.0 * (n - 10.0) / n;
  std::vector<double> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  t.value = sorted[v.size() - 11];
  return t;
}

void Report::check(bool ok, const std::string& what) {
  std::fprintf(stderr, "check %-52s %s\n", what.c_str(), ok ? "ok" : "FAILED");
  if (!ok) failed_checks.push_back(what);
}

namespace {

struct SpanTotals {
  double seconds = 0.0;
  double self = 0.0;
  std::size_t calls = 0;
};

}  // namespace

void layer_metrics(const StepCounters& c, std::size_t m, int threads,
                   double untraced_steps_per_s, Report& r) {
  const auto& spans = Tracer::instance().spans();
  std::vector<double> child_seconds(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_seconds[static_cast<std::size_t>(s.parent)] += s.seconds();
    }
  }
  std::map<std::string, SpanTotals> totals;
  std::vector<double> step_seconds;
  double gspmv_m_seconds = 0.0;
  std::size_t gspmv_m_calls = 0;
  // Root spans partition the traced work: their self time is what no
  // layer span covers, and the step and round roots are the timed
  // trajectory (the ensemble's reference set-up is not).
  double untraced_seconds = 0.0;
  double traced_seconds = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    SpanTotals& t = totals[s.name];
    t.seconds += s.seconds();
    t.self += s.seconds() - child_seconds[i];
    ++t.calls;
    if (std::string_view(s.name) == span::kStep) {
      step_seconds.push_back(s.seconds());
    }
    if (s.parent < 0) {
      untraced_seconds += s.seconds() - child_seconds[i];
      if (std::string_view(s.name) != span::kRefSetup) {
        traced_seconds += s.seconds();
      }
    }
    if (std::string_view(s.name) == span::kGspmv && s.cols == m) {
      gspmv_m_seconds += s.seconds();
      ++gspmv_m_calls;
    }
  }
  const double steps = static_cast<double>(std::max<std::size_t>(c.steps, 1));
  const auto per_step = [&](const char* name) {
    return totals[name].seconds / steps;
  };
  const auto per_call = [&](const char* name) {
    const SpanTotals& t = totals[name];
    return t.calls > 0 ? t.seconds / static_cast<double>(t.calls) : 0.0;
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };

  r.set("sd.assemble_s_per_step", per_step(span::kAssemble), "s");
  r.set("sd.assemble_calls_per_step",
        static_cast<double>(c.assemble_calls) / steps, "count");
  r.set("sd.pairs_recomputed_per_step",
        static_cast<double>(c.pairs_recomputed) / steps, "count");
  // Blocks: every recomputed pair rewrites its two off-diagonal blocks.
  const double reused = static_cast<double>(c.blocks_reused);
  r.set("sd.blocks_reused_frac",
        ratio(reused, reused + 2.0 * static_cast<double>(c.pairs_recomputed)),
        "ratio");
  r.set("sd.pattern_rebuilds_per_step",
        static_cast<double>(c.pattern_rebuilds) / steps, "count");

  r.set("solver.lanczos_s_per_step", per_step(span::kLanczos), "s");
  r.set("solver.cheb_block_s_per_step", per_step(span::kChebBlock), "s");
  r.set("solver.block_solve_s_per_step", per_step(span::kBlockSolve), "s");
  r.set("solver.block_solve_self_s_per_step",
        totals[span::kBlockSolve].self / steps, "s");
  r.set("solver.block_iters_per_chunk",
        ratio(static_cast<double>(c.block_iterations),
              static_cast<double>(c.chunks)),
        "count");
  const double cg_seconds =
      totals[span::kCgFirst].seconds + totals[span::kCgSecond].seconds;
  const double cg_iters =
      static_cast<double>(c.cg_first_iterations + c.cg_second_iterations);
  r.set("solver.block_iter_cost_ratio",
        ratio(ratio(totals[span::kBlockSolve].seconds,
                    static_cast<double>(c.block_iterations)),
              ratio(cg_seconds, cg_iters)),
        "ratio");
  r.set("solver.cheb_single_s_per_step", per_step(span::kChebSingle), "s");
  r.set("solver.cg_first_s_per_step", per_step(span::kCgFirst), "s");
  r.set("solver.cg_second_s_per_step", per_step(span::kCgSecond), "s");
  r.set("solver.cg_self_s_per_step",
        (totals[span::kCgFirst].self + totals[span::kCgSecond].self) / steps,
        "s");
  r.set("solver.cg_first_iters_mean",
        static_cast<double>(c.cg_first_iterations) / steps, "count");
  r.set("solver.cg_second_iters_mean",
        static_cast<double>(c.cg_second_iterations) / steps, "count");

  r.set("sparse.gspmv_s_per_call", per_call(span::kGspmv), "s");
  r.set("sparse.gspmv_calls_per_step",
        static_cast<double>(totals[span::kGspmv].calls) / steps, "count");
  r.set("sparse.spmv_s_per_call", per_call(span::kSpmv), "s");
  r.set("sparse.spmv_calls_per_step",
        static_cast<double>(totals[span::kSpmv].calls) / steps, "count");
  const double gspmv_m_per_call =
      ratio(gspmv_m_seconds, static_cast<double>(gspmv_m_calls));
  r.set("sparse.gspmv_rm", ratio(gspmv_m_per_call, per_call(span::kSpmv)),
        "ratio");
  // Computed traffic (the operator's minimum-bytes model), not
  // measured DRAM traffic: the working set is cache resident.
  const double gbps = ratio(c.gspmv_bytes, gspmv_m_per_call) * 1e-9;
  const double flops_per_byte = ratio(c.gspmv_flops, c.gspmv_bytes);
  r.set("sparse.gspmv_gbps_computed", gbps, "GB/s");
  r.set("sparse.gspmv_flops_per_byte", flops_per_byte, "flop/B");
  // The quick probe's flop rate is one core's (its kernel runs on one
  // thread); its bandwidth is the whole socket's.
  const mrhs::perf::MachineParams machine = mrhs::perf::measure_machine_quick();
  const double roof = std::min(machine.flops * threads,
                               machine.bandwidth * flops_per_byte);
  r.set("sparse.gspmv_roofline_frac",
        ratio(ratio(c.gspmv_flops, gspmv_m_per_call), roof), "ratio");
  r.set("sparse.probe_bandwidth_gbps", machine.bandwidth * 1e-9, "GB/s");
  r.set("sparse.probe_gflops_per_core", machine.flops * 1e-9, "GFLOP/s");

  r.set("core.step_s_p50", median(step_seconds), "s");
  r.set("core.step_s_tail", tail_of(step_seconds).value, "s");
  r.set("core.advance_s_per_step", per_step(span::kAdvance), "s");
  r.set("core.noise_s_per_step", per_step(span::kNoise), "s");
  r.set("core.untraced_s_per_step", untraced_seconds / steps, "s");

  const double traced_steps_per_s = ratio(steps, traced_seconds);
  r.set("bench.trace_overhead_frac",
        1.0 - ratio(traced_steps_per_s, untraced_steps_per_s), "ratio");
  r.set("bench.traced_steps", steps, "count");
}

void residency_metrics(const StepCounters& c, std::size_t n_dof, std::size_t m,
                       Report& r) {
  r.set("sparse.matrix_mb", c.matrix_bytes * 1e-6, "MB");
  r.set("sparse.multivector_mb",
        static_cast<double>(n_dof * m * sizeof(double)) * 1e-6, "MB");
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  r.set("sparse.llc_mb", llc > 0 ? static_cast<double>(llc) * 1e-6 : 0.0,
        "MB");
}

void fill_unexercised(Report& r) {
  static const std::pair<const char*, const char*> kNames[] = {
      {"ensemble.submit_s_p50", "s"},
      {"ensemble.batch_s_p50", "s"},
      {"ensemble.batch_setup_s", "s"},
      {"ensemble.batch_run_s", "s"},
      {"ensemble.queue_wait_s_p50", "s"},
      {"ensemble.rounds_per_batch", "count"},
      {"ensemble.pack_width_mean", "count"},
      {"ensemble.rollbacks", "count"},
  };
  for (const auto& [name, unit] : kNames) {
    if (!r.metrics.contains(name)) r.set(name, 0.0, unit);
  }
}

bool check_cross_run_record(const RunOptions& opts, const std::string& values) {
  const std::string path = opts.state_dir + "/record-" + opts.workload + "-" +
                           std::to_string(opts.seed) + ".txt";
  const std::string expected = opts.record_key + "\n" + values;
  {
    std::ifstream in(path);
    if (in) {
      std::stringstream buf;
      buf << in.rdbuf();
      const std::string kept = buf.str();
      // A record from another build of the program is replaced, not
      // compared: the fingerprints legitimately change with the code.
      if (kept.rfind(opts.record_key + "\n", 0) == 0) return kept == expected;
    }
  }
  std::ofstream out(path, std::ios::trunc);
  out << expected;
  return static_cast<bool>(out);
}

}  // namespace perfbench
