#include "perf/measure.hpp"

#include "sparse/gspmv.hpp"
#include "sparse/multivector.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace mrhs::perf {

double measure_gspmv_seconds(const sparse::BcrsMatrix& a, std::size_t m,
                             int threads, double min_seconds) {
  sparse::MultiVector x(a.cols(), m), y(a.rows(), m);
  util::StreamRng rng(11);
  x.fill_normal(rng);
  const sparse::GspmvEngine engine(a, threads);
  return util::time_per_call(
      [&]() { engine.apply(x, y, sparse::GspmvKernel::kAuto); }, min_seconds);
}

std::vector<RelativeTimePoint> measure_relative_time(
    const sparse::BcrsMatrix& a, std::span<const std::size_t> m_values,
    int threads, double min_seconds) {
  // The m = 1 baseline is timed before the first m > 1 timing and
  // again after each one (at least three times); the median sets every
  // ratio, so one slow window on a shared host cannot.
  const auto time_base = [&] {
    return measure_gspmv_seconds(a, 1, threads, min_seconds);
  };
  std::vector<double> base_samples{time_base()};
  std::vector<RelativeTimePoint> out;
  out.reserve(m_values.size());
  for (std::size_t m : m_values) {
    RelativeTimePoint pt;
    pt.m = m;
    if (m != 1) {
      pt.seconds = measure_gspmv_seconds(a, m, threads, min_seconds);
      base_samples.push_back(time_base());
    }
    out.push_back(pt);
  }
  while (base_samples.size() < 3) base_samples.push_back(time_base());
  const double base = util::median(base_samples);
  for (RelativeTimePoint& pt : out) {
    if (pt.m == 1) pt.seconds = base;
    pt.relative = pt.seconds / base;
  }
  return out;
}

SpmvThroughput measure_spmv_throughput(const sparse::BcrsMatrix& a,
                                       int threads, double min_seconds) {
  SpmvThroughput out;
  out.seconds = measure_gspmv_seconds(a, 1, threads, min_seconds);
  const sparse::GspmvEngine engine(a, threads);
  out.gbytes_per_sec = engine.min_bytes(1) / out.seconds * 1e-9;
  out.gflops = engine.flops(1) / out.seconds * 1e-9;
  return out;
}

}  // namespace mrhs::perf
