#pragma once

#include <span>

#include "la/matrix.hpp"
#include "la/types.hpp"

namespace extdict::la {

/// Dense Cholesky factorisation A = L * L^T for symmetric positive-definite A.
///
/// Besides the one-shot factor/solve, `ProgressiveCholesky` supports growing
/// the factor one row/column at a time — the key primitive of Batch-OMP
/// (Rubinstein et al., 2008), where each greedy iteration enlarges the
/// selected-atom Gram matrix by one.
class Cholesky {
 public:
  /// Factors `a` (must be square SPD). Throws std::domain_error if a pivot
  /// is not strictly positive.
  explicit Cholesky(const Matrix& a);

  /// Solves A x = b in place.
  void solve_in_place(std::span<Real> b) const;

  [[nodiscard]] Vector solve(std::span<const Real> b) const;

  [[nodiscard]] const Matrix& factor() const noexcept { return l_; }

 private:
  Matrix l_;  // lower triangular
};

/// Incrementally grown Cholesky factor of a Gram submatrix.
///
/// Maintains L such that G_S = L L^T for the currently selected index set S.
/// `append` adds one index given the new column of G_S (i.e. the inner
/// products of the new atom against the already-selected ones plus itself).
class ProgressiveCholesky {
 public:
  /// `capacity` is the maximum number of atoms ever selected. The packed
  /// factor grows with `append` and keeps its storage across `reset`, so a
  /// reused factor stops allocating once it has held its largest selection.
  explicit ProgressiveCholesky(Index capacity);

  /// Current size of the factor.
  [[nodiscard]] Index size() const noexcept { return n_; }

  /// Grows the factor with a new atom. `g_new` holds the inner products of
  /// the new atom with the `size()` already-selected atoms; `g_diag` is the
  /// atom's self inner product. Returns false (leaving the factor unchanged)
  /// if the Schur complement is numerically non-positive, which signals that
  /// the new atom is linearly dependent on the selection.
  bool append(std::span<const Real> g_new, Real g_diag);

  /// Solves (L L^T) x = b for the current size; b.size() == size().
  void solve_in_place(std::span<Real> b) const;

  /// Forward-substitution only: L w = b.
  void solve_lower(std::span<Real> b) const;

  /// Back-substitution only: L^T x = w.
  void solve_lower_t(std::span<Real> b) const;

  void reset() noexcept { n_ = 0; }

  /// Empties the factor and sets a new capacity (> 0).
  void reset(Index capacity);

 private:
  Index capacity_ = 0;
  Index n_ = 0;
  // Row-major packed lower triangle: row i occupies l_[i*(i+1)/2 .. +i].
  std::vector<Real> l_;

  [[nodiscard]] Real at(Index i, Index j) const noexcept {
    return l_[static_cast<std::size_t>(i * (i + 1) / 2 + j)];
  }
  Real& at(Index i, Index j) noexcept {
    return l_[static_cast<std::size_t>(i * (i + 1) / 2 + j)];
  }
};

}  // namespace extdict::la
