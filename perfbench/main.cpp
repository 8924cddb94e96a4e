// The repository benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --state-dir <dir> [--record-key <key>]
//
// Workloads: mrhs_exact, original_exact, mrhs_incremental,
// ensemble_serve. With --trace 0 it prints the end-to-end metrics,
// with --trace 1 the per-layer metrics of a traced run. Progress and
// check lines go to stderr; the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. The exit code is 0
// only when every correctness, faithfulness and determinism check
// passed.
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

using perfbench::Report;
using perfbench::RunOptions;

bool parse(int argc, char** argv, RunOptions& opts) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opts.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      opts.seed = std::stoull(value);
    } else if (key == "--seconds") {
      opts.seconds = std::stod(value);
    } else if (key == "--trace") {
      opts.trace = value == "1";
    } else if (key == "--state-dir") {
      opts.state_dir = value;
    } else if (key == "--record-key") {
      opts.record_key = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && !opts.state_dir.empty() &&
         opts.seconds > 0.0;
}

void print_json(const Report& report) {
  const bool correct = report.failed_checks.empty() && report.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", report.attempted, report.failed);
  bool first = true;
  for (const auto& [name, metric] : report.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), metric.value,
                metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  // Pin glibc's mmap threshold at its initial 128 KiB, which turns off
  // its dynamic adjustment: with it on, whether freed large blocks go
  // back to the system depends on the order of earlier frees, and
  // peak_rss_mb jumped between 14.8 and 16.4 MB from one seed to the
  // next. Pinned, it tracks the program's live memory (6.7 to 6.9 MB on
  // the same runs) and the rates did not move.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  RunOptions opts;
  try {
    if (!parse(argc, argv, opts)) {
      std::fprintf(stderr,
                   "usage: perfbench --workload <name> --seed <n> --seconds "
                   "<s> --trace <0|1> --state-dir <dir> [--record-key <k>]\n");
      return 2;
    }
    Report report;
    if (opts.workload == "ensemble_serve") {
      perfbench::run_serving(opts, report);
    } else {
      perfbench::run_stepping(opts, report);
    }
    if (opts.trace) {
      const std::string path = opts.state_dir + "/trace-" + opts.workload +
                               "-" + std::to_string(opts.seed) + ".json";
      report.check(perfbench::Tracer::instance().write_json(path),
                   "spans written to " + path);
    }
    bool finite = true;
    for (auto& [name, metric] : report.metrics) {
      if (!std::isfinite(metric.value)) {
        finite = false;
        metric.value = 0.0;
      }
      std::fprintf(stderr, "%-36s %.6g %s\n", name.c_str(), metric.value,
                   metric.unit.c_str());
    }
    report.check(finite, "every metric is finite");
    std::fprintf(stderr, "failed_frac = %zu / %zu\n", report.failed,
                 report.attempted);
    std::fflush(stderr);
    print_json(report);
    return report.failed_checks.empty() && report.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
