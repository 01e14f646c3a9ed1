#include "la/blas.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/contracts.hpp"

namespace extdict::la {

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
  // Summation order as documented in blas.hpp: independent lanes let the
  // compiler vectorize without reassociating, and the order depends on n only.
  constexpr std::size_t kLanes = 8;
  const std::size_t n = x.size(), body = n - n % kLanes;
  Real a[kLanes] = {};
  for (std::size_t i = 0; i < body; i += kLanes) {
    for (std::size_t k = 0; k < kLanes; ++k) a[k] += x[i + k] * y[i + k];
  }
  Real s = ((a[0] + a[4]) + (a[1] + a[5])) + ((a[2] + a[6]) + (a[3] + a[7]));
  for (std::size_t i = body; i < n; ++i) s += x[i] * y[i];
  return s;
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
    yj = alpha * d + (beta == Real{0} ? Real{0} : beta * yj);
  }
}

namespace {

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

  // A^T * B: each C(i,j) is a dot of two contiguous columns.
#pragma omp parallel for schedule(static) default(none) \
    shared(a, b, c, alpha, beta, n, m) if (n > 1)
  for (Index j = 0; j < n; ++j) {
    for (Index i = 0; i < m; ++i) {
      const Real d = dot(a.col(i), b.col(j));
      Real& cij = c(i, j);
      cij = alpha * d + (beta == Real{0} ? Real{0} : beta * cij);
    }
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
#pragma omp parallel for schedule(dynamic, 8) default(none) shared(a, g, n) \
    if (n > 1)
  for (Index j = 0; j < n; ++j) {
    for (Index i = 0; i <= j; ++i) {
      g(i, j) = dot(a.col(i), a.col(j));
    }
  }
  for (Index j = 0; j < n; ++j) {
    for (Index i = j + 1; i < n; ++i) g(i, j) = g(j, i);
  }
  return g;
}

}  // namespace extdict::la
