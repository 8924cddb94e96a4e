#include "sparse/multivector.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "dense/matrix.hpp"

namespace mrhs::sparse {

void MultiVector::copy_col_out(std::size_t j, std::span<double> out) const {
  if (j >= cols_ || out.size() != rows_) {
    throw std::invalid_argument("copy_col_out: shape mismatch");
  }
  for (std::size_t i = 0; i < rows_; ++i) out[i] = data_[i * cols_ + j];
}

void MultiVector::copy_col_in(std::size_t j, std::span<const double> in) {
  if (j >= cols_ || in.size() != rows_) {
    throw std::invalid_argument("copy_col_in: shape mismatch");
  }
  for (std::size_t i = 0; i < rows_; ++i) data_[i * cols_ + j] = in[i];
}

void MultiVector::fill_normal(util::StreamRng& rng) {
  rng.fill_normal({data_.data(), data_.size()});
}

void MultiVector::axpy(double alpha, const MultiVector& x) {
  if (x.rows_ != rows_ || x.cols_ != cols_) {
    throw std::invalid_argument("axpy: shape mismatch");
  }
  const std::size_t total = rows_ * cols_;
  const double* xv = x.data_.data();
  double* yv = data_.data();
#pragma omp simd
  for (std::size_t i = 0; i < total; ++i) yv[i] += alpha * xv[i];
}

void MultiVector::scale(double alpha) {
  for (double& v : data_) v *= alpha;
}

void MultiVector::col_norms(std::span<double> out) const {
  if (out.size() != cols_) {
    throw std::invalid_argument("col_norms: bad output size");
  }
  std::fill(out.begin(), out.end(), 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    const double* r = data_.data() + i * cols_;
    for (std::size_t j = 0; j < cols_; ++j) out[j] += r[j] * r[j];
  }
  for (double& v : out) v = std::sqrt(v);
}

void MultiVector::col_dots(const MultiVector& other,
                           std::span<double> out) const {
  if (other.rows_ != rows_ || other.cols_ != cols_ || out.size() != cols_) {
    throw std::invalid_argument("col_dots: shape mismatch");
  }
  std::fill(out.begin(), out.end(), 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    const double* a = data_.data() + i * cols_;
    const double* b = other.data_.data() + i * cols_;
    for (std::size_t j = 0; j < cols_; ++j) out[j] += a[j] * b[j];
  }
}

namespace {

// The widest vector of doubles this build targets and its register
// count (32 with AVX-512, 16 below it). A Gram tile keeps up to
// kMaxAcc accumulators live, leaving the rest for loaded operands.
#if defined(__AVX512F__)
constexpr std::size_t kLanes = 8;
constexpr std::size_t kVecRegs = 32;
#elif defined(__AVX__)
constexpr std::size_t kLanes = 4;
constexpr std::size_t kVecRegs = 16;
#else
constexpr std::size_t kLanes = 2;
constexpr std::size_t kVecRegs = 16;
#endif
constexpr std::size_t kMaxAcc = kVecRegs * 3 / 4;

template <std::size_t V>
struct VecOf;
template <>
struct VecOf<2> {
  typedef double type __attribute__((vector_size(2 * sizeof(double))));
};
template <>
struct VecOf<4> {
  typedef double type __attribute__((vector_size(4 * sizeof(double))));
};
template <>
struct VecOf<8> {
  typedef double type __attribute__((vector_size(8 * sizeof(double))));
};
template <std::size_t V>
using Vec = typename VecOf<V>::type;

template <std::size_t V>
inline Vec<V> load(const double* p) {
  Vec<V> v;
  std::memcpy(&v, p, sizeof v);
  return v;
}
template <std::size_t V>
inline void store(double* p, const Vec<V>& v) {
  std::memcpy(p, &v, sizeof v);
}

/// Lanes per vector for a width-m kernel: the widest vector that tiles
/// a row of m doubles exactly.
constexpr std::size_t lanes_for(std::size_t m) {
  std::size_t v = kLanes;
  while (m % v != 0) v /= 2;
  return v;
}

template <std::size_t I>
using Index = std::integral_constant<std::size_t, I>;

/// f(Index<0>{}), ..., f(Index<N - 1>{}): a loop unrolled in the source,
/// so accumulator arrays indexed by it live in registers.
template <std::size_t N, class F>
inline void unroll(F&& f) {
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    (f(Index<I>{}), ...);
  }(std::make_index_sequence<N>{});
}

/// f(begin, size) over [0, N) in near-equal chunks of at most Chunk.
template <std::size_t N, std::size_t Chunk, std::size_t Begin = 0, class F>
inline void for_chunks(F&& f) {
  if constexpr (Begin < N) {
    constexpr std::size_t parts = (N - Begin + Chunk - 1) / Chunk;
    constexpr std::size_t size = (N - Begin + parts - 1) / parts;
    f(Index<Begin>{}, Index<size>{});
    for_chunks<N, Chunk, Begin + size>(f);
  }
}

/// The m values with a compile-time kernel: perf::MTuner's grid points
/// from 4 to 32 (the ladder's halvings of 16 land on them too). Calls
/// f(Index<m>{}) and returns true when m is one of them.
template <class F>
bool with_fixed_m(std::size_t m, F&& f) {
  return [&]<std::size_t... Ms>(std::index_sequence<Ms...>) {
    return ((m == Ms ? (f(Index<Ms>{}), true) : false) || ...);
  }(std::index_sequence<4, 8, 12, 16, 24, 32>{});
}

/// NP rows x V columns of G from the columns at `a` and `b` (row
/// stride M): NP vector accumulators held across the whole pass over
/// the n rows.
template <std::size_t M, std::size_t V, std::size_t NP>
void gram_tile(const double* a, const double* b, std::size_t n, double* g) {
  Vec<V> acc[NP] = {};
  for (std::size_t i = 0; i < n; ++i) {
    const double* ar = a + i * M;
    const Vec<V> bv = load<V>(b + i * M);
    unroll<NP>([&](auto p) { acc[p] += ar[p] * bv; });
  }
  unroll<NP>([&](auto p) { store<V>(g + p * M, acc[p]); });
}

/// Column window by column window; with kSymmetric (a == b) only the
/// rows p < q0 + V that reach the upper triangle, then the mirror.
template <std::size_t M, bool kSymmetric>
void gram_fixed(const double* a, const double* b, std::size_t n, double* g) {
  constexpr std::size_t V = lanes_for(M);
  unroll<M / V>([&](auto w) {
    constexpr std::size_t q0 = decltype(w)::value * V;
    constexpr std::size_t rows = kSymmetric ? q0 + V : M;
    for_chunks<rows, kMaxAcc>([&](auto p0, auto np) {
      gram_tile<M, V, decltype(np)::value>(a + p0, b + q0, n,
                                           g + p0 * M + q0);
    });
  });
  if constexpr (kSymmetric) {
    for (std::size_t p = 1; p < M; ++p) {
      for (std::size_t q = 0; q < p; ++q) g[p * M + q] = g[q * M + p];
    }
  }
}

struct Update {
  double* y;
  const double* x;
  const double* s;
};

/// Register plan of a row-blocked X * S kernel with K updates over NWT
/// output windows: windows go in chunks of at most `windows` per row
/// pass, and `rows` rows share every load of S. Per chunk that is
/// rows * K * windows accumulators plus K * windows rows of S, within
/// the register file less two for the broadcasts.
template <std::size_t K, std::size_t NWT>
struct BlockPlan {
  static constexpr std::size_t budget = kVecRegs - 2;
  static constexpr std::size_t parts =
      (NWT + budget / (2 * K) - 1) / (budget / (2 * K));
  static constexpr std::size_t windows = (NWT + parts - 1) / parts;
  static constexpr std::size_t rows =
      std::min<std::size_t>(8, budget / (K * windows) - 1);
};

/// Rows [i0, i0 + RB) of K updates. Each output entry runs its chain
/// over p in order: from Y_k, or, for the in-place X = X S + R (K = 1),
/// from zero with R added at the end, reading X from a copy of the rows
/// so no chunk sees another's stores.
template <std::size_t M, std::size_t K, bool kInPlace, std::size_t RB>
inline void times_s_rows(std::size_t i0, const std::array<Update, K>& u,
                         const double* r) {
  constexpr std::size_t V = lanes_for(M);
  using Plan = BlockPlan<K, M / V>;
  static_assert(!kInPlace || K == 1);
  std::array<const double*, K> xs{};
  double copy[kInPlace ? RB * M : 1];
  if constexpr (kInPlace) {
    std::memcpy(copy, u[0].y + i0 * M, sizeof copy);
    xs[0] = copy;
  } else {
    for (std::size_t k = 0; k < K; ++k) xs[k] = u[k].x + i0 * M;
  }
  for_chunks<M / V, Plan::windows>([&](auto w0, auto nw) {
    constexpr std::size_t q0 = decltype(w0)::value * V;
    constexpr std::size_t NW = decltype(nw)::value;
    Vec<V> acc[RB][K][NW];
    unroll<RB>([&](auto b) {
      unroll<K>([&](auto k) {
        unroll<NW>([&](auto w) {
          if constexpr (kInPlace) {
            acc[b][k][w] = Vec<V>{};
          } else {
            acc[b][k][w] = load<V>(u[k].y + (i0 + b) * M + q0 + w * V);
          }
        });
      });
    });
    for (std::size_t p = 0; p < M; ++p) {
      Vec<V> sv[K][NW];
      unroll<K>([&](auto k) {
        unroll<NW>([&](auto w) {
          sv[k][w] = load<V>(u[k].s + p * M + q0 + w * V);
        });
      });
      unroll<RB>([&](auto b) {
        unroll<K>([&](auto k) {
          const double xp = xs[k][b * M + p];
          unroll<NW>([&](auto w) { acc[b][k][w] += xp * sv[k][w]; });
        });
      });
    }
    unroll<RB>([&](auto b) {
      unroll<K>([&](auto k) {
        unroll<NW>([&](auto w) {
          const std::size_t at = (i0 + b) * M + q0 + w * V;
          if constexpr (kInPlace) {
            store<V>(u[k].y + at, acc[b][k][w] + load<V>(r + at));
          } else {
            store<V>(u[k].y + at, acc[b][k][w]);
          }
        });
      });
    });
  });
}

/// Y_k += X_k S_k for K updates in one pass over the rows, or the
/// in-place X = X S + R; blocks of Plan::rows rows, then single rows.
template <std::size_t M, std::size_t K, bool kInPlace>
void times_s_fixed(std::size_t n, const std::array<Update, K>& u,
                   const double* r) {
  constexpr std::size_t RB = BlockPlan<K, M / lanes_for(M)>::rows;
  std::size_t i = 0;
  for (; i + RB <= n; i += RB) times_s_rows<M, K, kInPlace, RB>(i, u, r);
  for (; i < n; ++i) times_s_rows<M, K, kInPlace, 1>(i, u, r);
}

void check_add_multiplied(const MultiVector& y, const MultiVector& x,
                          const dense::Matrix& s) {
  const std::size_t m = x.cols();
  if (y.rows() != x.rows() || y.cols() != m || s.rows() != m ||
      s.cols() != m) {
    throw std::invalid_argument("add_multiplied: shape mismatch");
  }
}

void check_multiply_right_add(const MultiVector& x, const dense::Matrix& s,
                              const MultiVector& r) {
  const std::size_t m = x.cols();
  if (s.rows() != m || s.cols() != m || r.rows() != x.rows() ||
      r.cols() != m) {
    throw std::invalid_argument("multiply_right_add: shape mismatch");
  }
}

}  // namespace

namespace generic {

dense::Matrix gram(const MultiVector& a, const MultiVector& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    throw std::invalid_argument("gram: shape mismatch");
  }
  const std::size_t n = a.rows();
  const std::size_t m = a.cols();
  dense::Matrix g(m, m);
  // Rank-1 row outer products, single pass.
  for (std::size_t i = 0; i < n; ++i) {
    const double* ar = a.data() + i * m;
    const double* br = b.data() + i * m;
    for (std::size_t p = 0; p < m; ++p) {
      const double ap = ar[p];
      double* gp = g.data() + p * m;
#pragma omp simd
      for (std::size_t q = 0; q < m; ++q) gp[q] += ap * br[q];
    }
  }
  return g;
}

void add_multiplied(MultiVector& y, const MultiVector& x,
                    const dense::Matrix& s) {
  check_add_multiplied(y, x, s);
  const std::size_t m = x.cols();
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const double* xr = x.data() + i * m;
    double* yr = y.data() + i * m;
    for (std::size_t p = 0; p < m; ++p) {
      const double xp = xr[p];
      const double* sp = s.data() + p * m;
#pragma omp simd
      for (std::size_t q = 0; q < m; ++q) yr[q] += xp * sp[q];
    }
  }
}

void multiply_right_add(MultiVector& x, const dense::Matrix& s,
                        const MultiVector& r) {
  check_multiply_right_add(x, s, r);
  const std::size_t m = x.cols();
  std::vector<double> tmp(m);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    double* xr = x.data() + i * m;
    const double* rr = r.data() + i * m;
    std::fill(tmp.begin(), tmp.end(), 0.0);
    for (std::size_t p = 0; p < m; ++p) {
      const double xp = xr[p];
      const double* sp = s.data() + p * m;
      for (std::size_t q = 0; q < m; ++q) tmp[q] += xp * sp[q];
    }
    for (std::size_t q = 0; q < m; ++q) xr[q] = tmp[q] + rr[q];
  }
}

}  // namespace generic

dense::Matrix gram(const MultiVector& a, const MultiVector& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    throw std::invalid_argument("gram: shape mismatch");
  }
  const std::size_t n = a.rows();
  dense::Matrix g(a.cols(), a.cols());
  const bool fixed = with_fixed_m(a.cols(), [&](auto m) {
    constexpr std::size_t M = decltype(m)::value;
    if (&a == &b) {
      gram_fixed<M, true>(a.data(), b.data(), n, g.data());
    } else {
      gram_fixed<M, false>(a.data(), b.data(), n, g.data());
    }
  });
  if (!fixed) return generic::gram(a, b);
  return g;
}

void add_multiplied(MultiVector& y, const MultiVector& x,
                    const dense::Matrix& s) {
  check_add_multiplied(y, x, s);
  const bool fixed = with_fixed_m(x.cols(), [&](auto m) {
    times_s_fixed<decltype(m)::value, 1, false>(
        x.rows(), {{{y.data(), x.data(), s.data()}}}, nullptr);
  });
  if (!fixed) generic::add_multiplied(y, x, s);
}

void add_multiplied_pair(MultiVector& y1, const MultiVector& x1,
                         const dense::Matrix& s1, MultiVector& y2,
                         const MultiVector& x2, const dense::Matrix& s2) {
  check_add_multiplied(y1, x1, s1);
  check_add_multiplied(y2, x2, s2);
  if (x1.rows() != x2.rows() || x1.cols() != x2.cols()) {
    throw std::invalid_argument("add_multiplied_pair: shape mismatch");
  }
  const bool fixed = with_fixed_m(x1.cols(), [&](auto m) {
    times_s_fixed<decltype(m)::value, 2, false>(
        x1.rows(),
        {{{y1.data(), x1.data(), s1.data()},
          {y2.data(), x2.data(), s2.data()}}},
        nullptr);
  });
  if (!fixed) {
    generic::add_multiplied(y1, x1, s1);
    generic::add_multiplied(y2, x2, s2);
  }
}

void multiply_right_add(MultiVector& x, const dense::Matrix& s,
                        const MultiVector& r) {
  check_multiply_right_add(x, s, r);
  const bool fixed = with_fixed_m(x.cols(), [&](auto m) {
    times_s_fixed<decltype(m)::value, 1, true>(
        x.rows(), {{{x.data(), x.data(), s.data()}}}, r.data());
  });
  if (!fixed) generic::multiply_right_add(x, s, r);
}

void axpby(double alpha, const MultiVector& x, double beta, MultiVector& y) {
  if (x.rows() != y.rows() || x.cols() != y.cols()) {
    throw std::invalid_argument("axpby: shape mismatch");
  }
  const std::size_t total = x.rows() * x.cols();
  const double* xv = x.data();
  double* yv = y.data();
#pragma omp simd
  for (std::size_t i = 0; i < total; ++i) yv[i] = beta * yv[i] + alpha * xv[i];
}

}  // namespace mrhs::sparse
