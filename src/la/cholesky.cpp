#include "la/cholesky.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

#include "util/contracts.hpp"

namespace extdict::la {

Cholesky::Cholesky(const Matrix& a) : l_(a.rows(), a.cols()) {
  EXTDICT_REQUIRE_SHAPE(a.rows() == a.cols(),
                        "Cholesky: matrix must be square, got " +
                            std::to_string(a.rows()) + "x" +
                            std::to_string(a.cols()));
  EXTDICT_CHECK_FINITE(std::span<const Real>(a.data(),
                                             static_cast<std::size_t>(a.size())),
                       "Cholesky: input matrix");
  const Index n = a.rows();
  for (Index j = 0; j < n; ++j) {
    Real d = a(j, j);
    for (Index k = 0; k < j; ++k) d -= l_(j, k) * l_(j, k);
    if (d <= Real{0}) {
      throw std::domain_error("Cholesky: matrix is not positive definite");
    }
    l_(j, j) = std::sqrt(d);
    for (Index i = j + 1; i < n; ++i) {
      Real s = a(i, j);
      for (Index k = 0; k < j; ++k) s -= l_(i, k) * l_(j, k);
      l_(i, j) = s / l_(j, j);
    }
  }
}

void Cholesky::solve_in_place(std::span<Real> b) const {
  const Index n = l_.rows();
  EXTDICT_REQUIRE_SHAPE(static_cast<Index>(b.size()) == n,
                        "Cholesky::solve: |b|=" + std::to_string(b.size()) +
                            " but L is " + std::to_string(n) + "x" +
                            std::to_string(n));
  // L w = b
  for (Index i = 0; i < n; ++i) {
    Real s = b[static_cast<std::size_t>(i)];
    for (Index k = 0; k < i; ++k) s -= l_(i, k) * b[static_cast<std::size_t>(k)];
    b[static_cast<std::size_t>(i)] = s / l_(i, i);
  }
  // L^T x = w
  for (Index i = n - 1; i >= 0; --i) {
    Real s = b[static_cast<std::size_t>(i)];
    for (Index k = i + 1; k < n; ++k) s -= l_(k, i) * b[static_cast<std::size_t>(k)];
    b[static_cast<std::size_t>(i)] = s / l_(i, i);
  }
}

// extdict-lint: allow(missing-shape-contract) shape-checked by solve_in_place
Vector Cholesky::solve(std::span<const Real> b) const {
  Vector x(b.begin(), b.end());
  solve_in_place(x);
  return x;
}

ProgressiveCholesky::ProgressiveCholesky(Index capacity) { reset(capacity); }

void ProgressiveCholesky::reset(Index capacity) {
  EXTDICT_REQUIRE_SHAPE(capacity > 0,
                        "ProgressiveCholesky: capacity must be > 0, got " +
                            std::to_string(capacity));
  capacity_ = capacity;
  n_ = 0;
}

bool ProgressiveCholesky::append(std::span<const Real> g_new, Real g_diag) {
  EXTDICT_REQUIRE_SHAPE(static_cast<Index>(g_new.size()) == n_,
                        "ProgressiveCholesky::append: |g_new|=" +
                            std::to_string(g_new.size()) + " but factor has " +
                            std::to_string(n_) + " columns");
  EXTDICT_CHECK_FINITE(g_new, "ProgressiveCholesky::append: Gram column");
  EXTDICT_ASSERT(std::isfinite(g_diag),
                 "ProgressiveCholesky::append: non-finite diagonal entry");
  if (n_ >= capacity_) {
    throw std::logic_error("ProgressiveCholesky::append: capacity exceeded");
  }
  // Solve L w = g_new; the new row of L is [w^T, sqrt(g_diag - ||w||^2)].
  const Index i = n_;
  l_.resize(static_cast<std::size_t>((i + 1) * (i + 2) / 2));
  Real ssq = 0;
  for (Index j = 0; j < i; ++j) {
    Real s = g_new[static_cast<std::size_t>(j)];
    for (Index k = 0; k < j; ++k) s -= at(j, k) * at(i, k);
    const Real w = s / at(j, j);
    at(i, j) = w;
    ssq += w * w;
  }
  const Real d = g_diag - ssq;
  constexpr Real kMinPivot = 1e-12;
  if (d <= kMinPivot) return false;
  at(i, i) = std::sqrt(d);
  ++n_;
  return true;
}

// extdict-lint: allow(missing-shape-contract) internal helper, caller-validated
void ProgressiveCholesky::solve_lower(std::span<Real> b) const {
  for (Index i = 0; i < n_; ++i) {
    Real s = b[static_cast<std::size_t>(i)];
    for (Index k = 0; k < i; ++k) s -= at(i, k) * b[static_cast<std::size_t>(k)];
    b[static_cast<std::size_t>(i)] = s / at(i, i);
  }
}

// extdict-lint: allow(missing-shape-contract) internal helper, caller-validated
void ProgressiveCholesky::solve_lower_t(std::span<Real> b) const {
  for (Index i = n_ - 1; i >= 0; --i) {
    Real s = b[static_cast<std::size_t>(i)];
    for (Index k = i + 1; k < n_; ++k) s -= at(k, i) * b[static_cast<std::size_t>(k)];
    b[static_cast<std::size_t>(i)] = s / at(i, i);
  }
}

void ProgressiveCholesky::solve_in_place(std::span<Real> b) const {
  EXTDICT_REQUIRE_SHAPE(static_cast<Index>(b.size()) == n_,
                        "ProgressiveCholesky::solve: |b|=" +
                            std::to_string(b.size()) + " but factor is " +
                            std::to_string(n_) + "x" + std::to_string(n_));
  solve_lower(b);
  solve_lower_t(b);
}

}  // namespace extdict::la
