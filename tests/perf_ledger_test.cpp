// Tests for the performance-attribution layer: byte/flop accounting of
// the instrumented kernels against their hand-computed traffic models,
// the roofline math in obs::attribute, kernel-family discovery (calls
// fallbacks), the LinearOperator traffic model, and the BenchReport
// JSON schema.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "json_validator.hpp"
#include "obs/bench_report.hpp"
#include "obs/obs.hpp"
#include "obs/perf_ledger.hpp"
#include "solver/block_cg.hpp"
#include "solver/cg.hpp"
#include "solver/chebyshev.hpp"
#include "solver/operator.hpp"
#include "sparse/bcrs.hpp"
#include "sparse/gspmv.hpp"
#include "sparse/multivector.hpp"
#include "util/rng.hpp"

namespace {

using namespace mrhs;

class PerfLedgerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::MetricsRegistry::instance().reset();
    obs::MetricsRegistry::instance().enable();
  }
  void TearDown() override {
    obs::MetricsRegistry::instance().disable();
    obs::MetricsRegistry::instance().reset();
  }

  static const obs::KernelAttribution* find(
      const obs::LedgerReport& report, const std::string& name) {
    for (const auto& k : report.kernels) {
      if (k.name == name) return &k;
    }
    return nullptr;
  }
};

TEST_F(PerfLedgerTest, GspmvTrafficMatchesHandComputedModel) {
  const auto a = sparse::make_random_bcrs(200, 8.0, 42);
  const sparse::GspmvEngine engine(a, 1);
  const std::size_t m = 4;
  sparse::MultiVector x(a.cols(), m), y(a.rows(), m);
  util::StreamRng rng(1);
  x.fill_normal(rng);

  obs::PerfLedger ledger;
  ledger.begin();
  engine.apply(x, y);
  engine.apply(x, y);
  const auto report = ledger.collect();

  const auto* gspmv = find(report, "gspmv");
  ASSERT_NE(gspmv, nullptr);
  // Two applies with m vectors each: the family delta must equal the
  // closed-form model (flops = 18 nnzb m, bytes = Mtr with k(m) = 0).
  EXPECT_DOUBLE_EQ(gspmv->flops, 2.0 * engine.flops(m));
  EXPECT_DOUBLE_EQ(gspmv->flops,
                   2.0 * 18.0 * static_cast<double>(a.nnzb()) *
                       static_cast<double>(m));
  EXPECT_DOUBLE_EQ(gspmv->bytes, 2.0 * engine.min_bytes(m));
  EXPECT_DOUBLE_EQ(gspmv->calls, 2.0);
  EXPECT_GT(gspmv->seconds, 0.0);
}

TEST_F(PerfLedgerTest, BcrsOperatorTrafficModelMatchesEngine) {
  const auto a = sparse::make_random_bcrs(100, 6.0, 7);
  const solver::BcrsOperator op(a, 1);
  const sparse::GspmvEngine engine(a, 1);
  for (std::size_t m : {std::size_t{1}, std::size_t{8}}) {
    EXPECT_DOUBLE_EQ(op.apply_bytes(m), engine.min_bytes(m));
    EXPECT_DOUBLE_EQ(op.apply_flops(m), engine.flops(m));
  }
  // The base class default means "no model".
  class Opaque final : public solver::LinearOperator {
   public:
    [[nodiscard]] std::size_t size() const override { return 3; }
    void apply(std::span<const double>, std::span<double> y) const override {
      for (auto& v : y) v = 0.0;
    }
    void apply_block(const sparse::MultiVector&,
                     sparse::MultiVector& y) const override {
      std::fill(y.data(), y.data() + y.rows() * y.cols(), 0.0);
    }
  };
  const Opaque opaque;
  EXPECT_DOUBLE_EQ(opaque.apply_bytes(4), 0.0);
  EXPECT_DOUBLE_EQ(opaque.apply_flops(4), 0.0);
}

TEST_F(PerfLedgerTest, CgFamilyMatchesDocumentedFormula) {
  const auto a = sparse::make_random_bcrs(60, 8.0, 3);
  const solver::BcrsOperator op(a, 1);
  std::vector<double> b(op.size(), 1.0), x(op.size(), 0.0);

  obs::PerfLedger ledger;
  ledger.begin();
  const auto res = solver::conjugate_gradient(op, b, x);
  const auto report = ledger.collect();

  const auto* cg = find(report, "cg");
  ASSERT_NE(cg, nullptr);
  const double iters = static_cast<double>(res.iterations);
  const double applies = iters + 1.0;
  const double nd = static_cast<double>(op.size());
  EXPECT_DOUBLE_EQ(cg->bytes,
                   applies * op.apply_bytes(1) + (14.0 * iters + 6.0) * nd * 8.0);
  EXPECT_DOUBLE_EQ(cg->flops,
                   applies * op.apply_flops(1) + (10.0 * iters + 4.0) * nd);
  EXPECT_EQ(cg->calls, 1.0);  // falls back to cg.solves
  EXPECT_GT(cg->seconds, 0.0);
}

TEST_F(PerfLedgerTest, BlockCgFamilyMatchesFusedPassModel) {
  // Per iteration: P^T Q, the fused X += P alpha / R -= Q alpha pass,
  // one triangle of R^T R and P = R + P beta (12nm doubles); setup 7nm.
  const auto a = sparse::make_random_bcrs(60, 8.0, 3);
  const solver::BcrsOperator op(a, 1);
  const std::size_t m = 4;
  sparse::MultiVector b(op.size(), m), x(op.size(), m);
  util::StreamRng rng(8);
  b.fill_normal(rng);

  obs::PerfLedger ledger;
  ledger.begin();
  const auto res = solver::block_conjugate_gradient(op, b, x);
  const auto report = ledger.collect();

  const auto* bcg = find(report, "block_cg");
  ASSERT_NE(bcg, nullptr);
  ASSERT_GT(res.iterations, 0u);
  const double iters = static_cast<double>(res.iterations);
  const double applies = iters + 1.0;
  const double md = static_cast<double>(m);
  const double nm = static_cast<double>(op.size()) * md;
  EXPECT_DOUBLE_EQ(bcg->bytes, applies * op.apply_bytes(m) +
                                   (12.0 * iters + 7.0) * nm * 8.0);
  EXPECT_DOUBLE_EQ(bcg->flops,
                   applies * op.apply_flops(m) +
                       ((9.0 * md + 2.0) * iters + md + 6.0) * nm);
}

TEST_F(PerfLedgerTest, BlockChebyshevMatchesFusedPassModel) {
  // One fused pass per degree step: 6nm doubles of block algebra.
  const auto a = sparse::make_random_bcrs(60, 8.0, 3);
  const solver::BcrsOperator op(a, 1);
  const std::size_t m = 4;
  const std::size_t order = 12;
  sparse::MultiVector z(op.size(), m), y(op.size(), m);
  util::StreamRng rng(9);
  z.fill_normal(rng);
  const solver::ChebyshevSqrt cheb({0.5, 40.0}, order);

  obs::PerfLedger ledger;
  ledger.begin();
  cheb.apply_block(op, z, y);
  const auto report = ledger.collect();

  const auto* ch = find(report, "chebyshev");
  ASSERT_NE(ch, nullptr);
  const double od = static_cast<double>(order);
  const double nm = static_cast<double>(op.size()) * static_cast<double>(m);
  EXPECT_DOUBLE_EQ(ch->bytes, od * op.apply_bytes(m) + 6.0 * od * nm * 8.0);
  EXPECT_DOUBLE_EQ(ch->flops, od * op.apply_flops(m) + (8.0 * od + 2.0) * nm);
}

TEST_F(PerfLedgerTest, RooflineAttributionBandwidthBound) {
  perf::MachineParams machine;
  machine.bandwidth = 100e9;
  machine.flops = 50e9;

  obs::KernelAttribution k;
  k.bytes = 100e9;  // t_bw = 1.0 s
  k.flops = 10e9;   // t_comp = 0.2 s
  k.seconds = 2.0;
  obs::attribute(k, machine);

  EXPECT_DOUBLE_EQ(k.gbytes_per_sec, 50.0);
  EXPECT_DOUBLE_EQ(k.gflops_per_sec, 5.0);
  EXPECT_DOUBLE_EQ(k.pct_of_bandwidth, 0.5);
  EXPECT_DOUBLE_EQ(k.pct_of_flops, 0.1);
  EXPECT_DOUBLE_EQ(k.roofline_seconds, 1.0);
  EXPECT_DOUBLE_EQ(k.pct_of_roofline, 0.5);
  EXPECT_EQ(k.bound, "bandwidth");
}

TEST_F(PerfLedgerTest, RooflineAttributionComputeBound) {
  perf::MachineParams machine;
  machine.bandwidth = 100e9;
  machine.flops = 50e9;

  obs::KernelAttribution k;
  k.bytes = 10e9;   // t_bw = 0.1 s
  k.flops = 100e9;  // t_comp = 2.0 s
  k.seconds = 4.0;
  obs::attribute(k, machine);

  EXPECT_DOUBLE_EQ(k.roofline_seconds, 2.0);
  EXPECT_DOUBLE_EQ(k.pct_of_roofline, 0.5);
  EXPECT_EQ(k.bound, "compute");
}

TEST_F(PerfLedgerTest, RooflineAttributionDegenerateInputs) {
  // Zero seconds: no rates. Zero machine: no roofline.
  perf::MachineParams machine;
  obs::KernelAttribution k;
  k.bytes = 1e9;
  k.flops = 1e9;
  obs::attribute(k, machine);
  EXPECT_DOUBLE_EQ(k.gbytes_per_sec, 0.0);
  EXPECT_DOUBLE_EQ(k.pct_of_roofline, 0.0);
  EXPECT_TRUE(k.bound.empty());
}

TEST_F(PerfLedgerTest, KernelFamilyCallsFallbacks) {
  obs::PerfLedger ledger;
  ledger.begin();
  OBS_COUNTER_ADD("solverx.bytes", 1000.0);
  OBS_COUNTER_ADD("solverx.flops", 2000.0);
  OBS_COUNTER_ADD("solverx.seconds", 0.5);
  OBS_COUNTER_ADD("solverx.solves", 3);
  OBS_COUNTER_ADD("cheby.bytes", 100.0);
  OBS_COUNTER_ADD("cheby.flops", 200.0);
  OBS_COUNTER_ADD("cheby.seconds", 0.1);
  OBS_COUNTER_ADD("cheby.applies", 2);
  OBS_COUNTER_ADD("cheby.block_applies", 5);
  const auto report = ledger.collect();

  const auto* sx = find(report, "solverx");
  ASSERT_NE(sx, nullptr);
  EXPECT_DOUBLE_EQ(sx->calls, 3.0);
  const auto* ch = find(report, "cheby");
  ASSERT_NE(ch, nullptr);
  EXPECT_DOUBLE_EQ(ch->calls, 7.0);
}

TEST_F(PerfLedgerTest, WindowDeltaExcludesPriorTraffic) {
  OBS_COUNTER_ADD("gspmv.bytes", 12345.0);
  OBS_COUNTER_ADD("gspmv.flops", 999.0);
  OBS_COUNTER_ADD("gspmv.seconds", 1.0);
  obs::PerfLedger ledger;
  ledger.begin();  // baseline after the traffic above
  const auto report = ledger.collect();
  EXPECT_EQ(find(report, "gspmv"), nullptr);
  EXPECT_TRUE(report.counters.empty());
}

TEST_F(PerfLedgerTest, ExplicitSamplesAndPhasesSurvive) {
  obs::PerfLedger ledger;
  ledger.begin();
  perf::MachineParams machine;
  machine.bandwidth = 10e9;
  machine.flops = 10e9;
  ledger.set_machine(machine);
  ledger.add_phase("1st solve", 1.5, 16);
  ledger.add_kernel_sample("gspmv@m=8", 8e9, 2e9, 1.0);
  const auto report = ledger.collect();

  ASSERT_EQ(report.phases.size(), 1u);
  EXPECT_EQ(report.phases[0].name, "1st solve");
  EXPECT_DOUBLE_EQ(report.phases[0].seconds, 1.5);
  EXPECT_EQ(report.phases[0].calls, 16u);

  const auto* sample = find(report, "gspmv@m=8");
  ASSERT_NE(sample, nullptr);
  // t_bw = 0.8 s vs t_comp = 0.2 s on this machine.
  EXPECT_EQ(sample->bound, "bandwidth");
  EXPECT_DOUBLE_EQ(sample->pct_of_roofline, 0.8);
}

TEST_F(PerfLedgerTest, BenchReportJsonSchemaRoundTrip) {
  obs::PerfLedger ledger;
  ledger.begin();
  perf::MachineParams machine;
  machine.bandwidth = 25e9;
  machine.flops = 40e9;
  ledger.set_machine(machine);
  ledger.add_phase("1st solve", 0.25, 4);
  ledger.add_kernel_sample("gspmv@m=1", 1e9, 1e8, 0.05);
  OBS_HISTOGRAM_OBSERVE("roundtrip.iters", 12.0,
                        obs::linear_buckets(5.0, 5.0, 10));

  obs::BenchReport report("unit_test_bench");
  report.set_title("Unit test \"quoted\" title");
  report.set_git_sha("deadbeef");
  report.set_threads(4);
  report.set_info("build", "release");
  report.set_value("speedup", 1.75);
  report.set_ledger(ledger.collect());
  report.capture_histograms();

  std::ostringstream os;
  report.write_json(os);
  const std::string text = os.str();

  EXPECT_TRUE(mrhs::testing::JsonValidator::valid(text)) << text;
  // Schema header: versioned so perf_compare.py can hard-fail on
  // incompatible files.
  EXPECT_NE(text.find("\"schema\": \"mrhs-bench-report\""),
            std::string::npos);
  EXPECT_NE(text.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(text.find("\"bench\": \"unit_test_bench\""), std::string::npos);
  EXPECT_NE(text.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(text.find("\"git_sha\": \"deadbeef\""), std::string::npos);
  // Ledger sections.
  EXPECT_NE(text.find("\"bandwidth_gbps\": 25"), std::string::npos);
  EXPECT_NE(text.find("\"1st solve\""), std::string::npos);
  EXPECT_NE(text.find("\"gspmv@m=1\""), std::string::npos);
  EXPECT_NE(text.find("\"pct_of_roofline\""), std::string::npos);
  EXPECT_NE(text.find("\"bound\": \"bandwidth\""), std::string::npos);
  // Histogram percentiles and published values.
  EXPECT_NE(text.find("\"roundtrip.iters\""), std::string::npos);
  EXPECT_NE(text.find("\"p95\""), std::string::npos);
  EXPECT_NE(text.find("\"speedup\": 1.75"), std::string::npos);

  // Histogram summary is captured numerically too.
  const auto it = report.histograms().find("roundtrip.iters");
  ASSERT_NE(it, report.histograms().end());
  EXPECT_EQ(it->second.count, 1u);
  EXPECT_DOUBLE_EQ(it->second.mean, 12.0);
}

TEST_F(PerfLedgerTest, DisabledRegistryYieldsNoFamilies) {
  obs::MetricsRegistry::instance().disable();
  const auto a = sparse::make_random_bcrs(50, 4.0, 9);
  const sparse::GspmvEngine engine(a, 1);
  sparse::MultiVector x(a.cols(), 2), y(a.rows(), 2);
  util::StreamRng rng(2);
  x.fill_normal(rng);

  obs::PerfLedger ledger;
  ledger.begin();
  engine.apply(x, y);
  const auto report = ledger.collect();
  EXPECT_EQ(find(report, "gspmv"), nullptr);
}

}  // namespace
