#include "la/blas.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "util/contracts.hpp"

namespace extdict::la {

namespace {

// The one transposed-product kernel. Lane k (k < 8) gathers the products at
// positions ≡ k (mod 8) of the full 8-element chunks; the lanes live in
// vectors of the target's register width, chosen at compile time. The width
// decides how many vectors hold the eight lanes, never the order of any
// output's additions.
#if defined(__AVX512F__)
constexpr std::size_t kVectorBytes = 64;
#elif defined(__AVX__)
constexpr std::size_t kVectorBytes = 32;
#else
constexpr std::size_t kVectorBytes = 16;
#endif
constexpr std::size_t kLanes = 8;
constexpr std::size_t kPerVector = kVectorBytes / sizeof(Real);
constexpr std::size_t kVectorsPerChunk = kLanes / kPerVector;
typedef Real Lanes __attribute__((vector_size(kVectorBytes)));
// Loads go through this view: any Real array, any 8-byte alignment.
typedef Real LanesView
    __attribute__((vector_size(kVectorBytes), may_alias, aligned(8)));

[[gnu::always_inline]] inline Lanes load(const Real* p) noexcept {
  return *reinterpret_cast<const LanesView*>(p);
}

// out[s] = <col, xs[s]> for s < S, each summed in la::dot's order: the lane
// accumulators, the fold ((a0+a4)+(a1+a5))+((a2+a6)+(a3+a7)), then the tail
// in sequence. One load of each chunk of `col` serves all S signals, and the
// S·8 lane accumulators stay in registers.
template <std::size_t S>
[[gnu::always_inline]] inline void lane_dots(const Real* col,
                                             const Real* const* xs,
                                             std::size_t n, Real* out) noexcept {
  const std::size_t body = n - n % kLanes;
  Lanes acc[S][kVectorsPerChunk] = {};
  for (std::size_t i = 0; i < body; i += kLanes) {
#pragma GCC unroll 8
    for (std::size_t v = 0; v < kVectorsPerChunk; ++v) {
      const Lanes c = load(col + i + v * kPerVector);
#pragma GCC unroll 8
      for (std::size_t s = 0; s < S; ++s) {
        acc[s][v] += c * load(xs[s] + i + v * kPerVector);
      }
    }
  }
  for (std::size_t s = 0; s < S; ++s) {
    Real a[kLanes] = {};
    for (std::size_t k = 0; k < kLanes; ++k) {
      a[k] = acc[s][k / kPerVector][k % kPerVector];
    }
    Real sum = ((a[0] + a[4]) + (a[1] + a[5])) + ((a[2] + a[6]) + (a[3] + a[7]));
    for (std::size_t i = body; i < n; ++i) sum += col[i] * xs[s][i];
    out[s] = sum;
  }
}

// store(j, s, <a.col(j), xs[s]>) for every column j in [j0, j1): one pass
// over those columns of `a` for all S signals.
template <std::size_t S, typename Store>
void project_columns(const Matrix& a, Index j0, Index j1,
                     const Real* const* xs, Store& store) {
  const Real* x[S] = {};
  std::copy(xs, xs + S, x);
  const auto n = static_cast<std::size_t>(a.rows());
  for (Index j = j0; j < j1; ++j) {
    Real d[S] = {};
    lane_dots<S>(a.col(j).data(), x, n, d);
    for (std::size_t s = 0; s < S; ++s) store(j, s, d[s]);
  }
}

// project_columns for up to kSignalsPerPass signals, dispatched on their
// count once for the whole column range.
template <typename Store>
void project(const Matrix& a, Index j0, Index j1,
             std::span<const Real* const> xs, Store store) {
  EXTDICT_ASSERT(!xs.empty() && xs.size() <= kSignalsPerPass,
                 "project: " + std::to_string(xs.size()) + " signals");
  [&]<std::size_t... S>(std::index_sequence<S...>) {
    ((xs.size() == S + 1 ? project_columns<S + 1>(a, j0, j1, xs.data(), store)
                         : void()),
     ...);
  }(std::make_index_sequence<kSignalsPerPass>{});
}

}  // namespace

// extdict-lint: allow(missing-shape-contract) BLAS-1, noexcept: EXTDICT_ASSERT terminates instead of throwing (docs/CORRECTNESS.md)
void axpy(Real alpha, std::span<const Real> x, std::span<Real> y) noexcept {
  EXTDICT_ASSERT(x.size() == y.size(),
                 "axpy: |x|=" + std::to_string(x.size()) +
                     " |y|=" + std::to_string(y.size()));
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

// extdict-lint: allow(missing-shape-contract) any length is valid
void scal(Real alpha, std::span<Real> x) noexcept {
  for (Real& v : x) v *= alpha;
}

// extdict-lint: allow(missing-shape-contract) BLAS-1, noexcept: EXTDICT_ASSERT terminates instead of throwing (docs/CORRECTNESS.md)
Real dot(std::span<const Real> x, std::span<const Real> y) noexcept {
  EXTDICT_ASSERT(x.size() == y.size(),
                 "dot: |x|=" + std::to_string(x.size()) +
                     " |y|=" + std::to_string(y.size()));
  const Real* const ys[] = {y.data()};
  Real d = 0;
  lane_dots<1>(x.data(), ys, x.size(), &d);
  return d;
}

// extdict-lint: allow(missing-shape-contract) any length is valid
Real nrm2(std::span<const Real> x) noexcept {
  Real scale = 0, ssq = 1;
  for (Real v : x) {
    if (v == Real{0}) continue;
    const Real a = std::abs(v);
    if (scale < a) {
      ssq = 1 + ssq * (scale / a) * (scale / a);
      scale = a;
    } else {
      ssq += (a / scale) * (a / scale);
    }
  }
  return scale * std::sqrt(ssq);
}

// extdict-lint: allow(missing-shape-contract) any length is valid (empty -> -1)
Index iamax(std::span<const Real> x) noexcept {
  if (x.empty()) return -1;
  Index best = 0;
  Real best_val = std::abs(x[0]);
  for (std::size_t i = 1; i < x.size(); ++i) {
    const Real a = std::abs(x[i]);
    if (a > best_val) {
      best_val = a;
      best = static_cast<Index>(i);
    }
  }
  return best;
}

void gemv(Real alpha, const Matrix& a, std::span<const Real> x, Real beta,
          std::span<Real> y) {
  EXTDICT_REQUIRE_SHAPE(
      static_cast<Index>(x.size()) == a.cols() &&
          static_cast<Index>(y.size()) == a.rows(),
      "gemv: A is " + util::shape_string(a.rows(), a.cols()) + ", |x|=" +
          std::to_string(x.size()) + ", |y|=" + std::to_string(y.size()));
  EXTDICT_CHECK_FINITE(x, "gemv: x");
  if (beta == Real{0}) {
    std::fill(y.begin(), y.end(), Real{0});
  } else if (beta != Real{1}) {
    scal(beta, y);
  }
  // Column-major: accumulate alpha * x_j * A(:,j) into y. Sequential over
  // columns (races on y otherwise); columns themselves are contiguous.
  for (Index j = 0; j < a.cols(); ++j) {
    const Real axj = alpha * x[static_cast<std::size_t>(j)];
    if (axj == Real{0}) continue;
    axpy(axj, a.col(j), y);
  }
}

void gemv_t(Real alpha, const Matrix& a, std::span<const Real> x, Real beta,
            std::span<Real> y) {
  EXTDICT_REQUIRE_SHAPE(
      static_cast<Index>(x.size()) == a.rows() &&
          static_cast<Index>(y.size()) == a.cols(),
      "gemv_t: A is " + util::shape_string(a.rows(), a.cols()) + ", |x|=" +
          std::to_string(x.size()) + ", |y|=" + std::to_string(y.size()));
  EXTDICT_CHECK_FINITE(x, "gemv_t: x");
  const Index cols = a.cols();
#pragma omp parallel for schedule(static) default(none) \
    shared(a, x, y, alpha, beta, cols) if (cols > 256)
  for (Index j = 0; j < cols; ++j) {
    const Real d = dot(a.col(j), x);
    auto& yj = y[static_cast<std::size_t>(j)];
    yj = beta == Real{0} ? alpha * d : alpha * d + beta * yj;
  }
}

void gemv_t_many(const Matrix& a, std::span<const std::span<const Real>> xs,
                 Matrix& y) {
  EXTDICT_REQUIRE_SHAPE(
      y.rows() == a.cols() && y.cols() >= static_cast<Index>(xs.size()),
      "gemv_t_many: A is " + util::shape_string(a.rows(), a.cols()) + ", " +
          std::to_string(xs.size()) + " signals, Y is " +
          util::shape_string(y.rows(), y.cols()));
  const auto ld = static_cast<std::size_t>(y.rows());
  for (std::size_t first = 0; first < xs.size(); first += kSignalsPerPass) {
    const std::size_t count = std::min(kSignalsPerPass, xs.size() - first);
    const Real* ptrs[kSignalsPerPass] = {};
    for (std::size_t s = 0; s < count; ++s) {
      const std::span<const Real> x = xs[first + s];
      EXTDICT_REQUIRE_SHAPE(static_cast<Index>(x.size()) == a.rows(),
                            "gemv_t_many: A is " +
                                util::shape_string(a.rows(), a.cols()) +
                                ", |x" + std::to_string(first + s) +
                                "|=" + std::to_string(x.size()));
      EXTDICT_CHECK_FINITE(x, "gemv_t_many: x");
      ptrs[s] = x.data();
    }
    Real* const out = y.col(static_cast<Index>(first)).data();
    project(a, 0, a.cols(), std::span(ptrs, count),
            [out, ld](Index j, std::size_t s, Real d) {
              out[s * ld + static_cast<std::size_t>(j)] = d;
            });
  }
}

namespace {

constexpr auto kPass = static_cast<Index>(kSignalsPerPass);

// Resolves op(A) dimensions.
Index op_rows(const Matrix& a, Trans t) { return t == Trans::kNo ? a.rows() : a.cols(); }
Index op_cols(const Matrix& a, Trans t) { return t == Trans::kNo ? a.cols() : a.rows(); }

}  // namespace

void gemm(Real alpha, const Matrix& a, Trans ta, const Matrix& b, Trans tb,
          Real beta, Matrix& c) {
  const Index m = op_rows(a, ta);
  const Index k = op_cols(a, ta);
  const Index n = op_cols(b, tb);
  EXTDICT_REQUIRE_SHAPE(
      op_rows(b, tb) == k && c.rows() == m && c.cols() == n,
      "gemm: op(A) is " + util::shape_string(m, k) + ", op(B) is " +
          util::shape_string(op_rows(b, tb), op_cols(b, tb)) + ", C is " +
          util::shape_string(c.rows(), c.cols()));

  // op(B) = Bᵀ: materialize it once, so every product takes one of the two
  // contiguous-column paths below.
  if (tb == Trans::kYes) {
    gemm(alpha, a, ta, b.transposed(), Trans::kNo, beta, c);
    return;
  }

  // Fast path: no transposes. Accumulate rank-1 style per column of C, which
  // streams contiguous columns of A — this is the shape ExtDict hits in the
  // hot loop (D * V, etc.).
  if (ta == Trans::kNo) {
#pragma omp parallel for schedule(static) default(none) \
    shared(a, b, c, alpha, beta, n, k) if (n > 1)
    for (Index j = 0; j < n; ++j) {
      auto cj = c.col(j);
      if (beta == Real{0}) {
        std::fill(cj.begin(), cj.end(), Real{0});
      } else if (beta != Real{1}) {
        scal(beta, cj);
      }
      for (Index l = 0; l < k; ++l) {
        const Real ab = alpha * b(l, j);
        if (ab == Real{0}) continue;
        axpy(ab, a.col(l), cj);
      }
    }
    return;
  }

  // Aᵀ·B in tiles: a pass of kSignalsPerPass columns of B against a run of
  // kTileColumns columns of A, streamed once. Every C(i,j) is the lane dot
  // of two contiguous columns.
  constexpr Index kTileColumns = 256;
  const Index passes = (n + kPass - 1) / kPass;
  const Index runs = (m + kTileColumns - 1) / kTileColumns;
#pragma omp parallel for schedule(static) default(none) \
    shared(a, b, c, alpha, beta, n, m, passes, runs) if (passes * runs > 1)
  for (Index t = 0; t < passes * runs; ++t) {
    const Index j0 = t / runs * kPass;
    const Index i0 = t % runs * kTileColumns;
    const Real* xs[kSignalsPerPass] = {};
    const Index count = std::min(Index{kPass}, n - j0);
    for (Index s = 0; s < count; ++s) xs[s] = b.col(j0 + s).data();
    project(a, i0, std::min(m, i0 + Index{kTileColumns}),
            std::span(xs, static_cast<std::size_t>(count)),
            [&c, j0, alpha, beta](Index i, std::size_t s, Real d) {
              Real& cij = c(i, j0 + static_cast<Index>(s));
              cij = beta == Real{0} ? alpha * d : alpha * d + beta * cij;
            });
  }
}

// extdict-lint: allow(missing-shape-contract) shape-checked by gemm
Matrix matmul(const Matrix& a, const Matrix& b, Trans ta, Trans tb) {
  Matrix c(op_rows(a, ta), op_cols(b, tb));
  gemm(Real{1}, a, ta, b, tb, Real{0}, c);
  return c;
}

// extdict-lint: allow(missing-shape-contract) any matrix has a Gram matrix
Matrix gram(const Matrix& a) {
  const Index n = a.cols();
  Matrix g(n, n);
  // The upper triangle in column blocks of kSignalsPerPass: block p streams
  // columns 0..j0+count of A once. The mirror below overwrites the diagonal
  // block's few below-diagonal entries.
  const Index passes = (n + kPass - 1) / kPass;
#pragma omp parallel for schedule(dynamic, 1) default(none) \
    shared(a, g, n, passes) if (passes > 1)
  for (Index p = 0; p < passes; ++p) {
    const Index j0 = p * kPass;
    const Real* xs[kSignalsPerPass] = {};
    const Index count = std::min(Index{kPass}, n - j0);
    for (Index s = 0; s < count; ++s) xs[s] = a.col(j0 + s).data();
    project(a, 0, j0 + count, std::span(xs, static_cast<std::size_t>(count)),
            [&g, j0](Index i, std::size_t s, Real d) {
              g(i, j0 + static_cast<Index>(s)) = d;
            });
  }
  for (Index j = 0; j < n; ++j) {
    for (Index i = j + 1; i < n; ++i) g(i, j) = g(j, i);
  }
  return g;
}

}  // namespace extdict::la
