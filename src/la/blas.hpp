#pragma once

#include <span>

#include "la/matrix.hpp"
#include "la/types.hpp"

namespace extdict::la {

// ---------------------------------------------------------------------------
// BLAS level 1
// ---------------------------------------------------------------------------

/// y += alpha * x
void axpy(Real alpha, std::span<const Real> x, std::span<Real> y) noexcept;

/// x *= alpha
void scal(Real alpha, std::span<Real> x) noexcept;

/// Inner product <x, y>, summed in an order fixed by |x| alone: eight lane
/// accumulators over full 8-element chunks, the pairwise fold
/// ((a0+a4)+(a1+a5))+((a2+a6)+(a3+a7)), then the tail in sequence. It is
/// the one-signal case of the block kernel behind every transposed product
/// (gemv_t, gemv_t_many, gemm with op(A) = Aᵀ, gram), so each of their
/// outputs is bitwise this dot.
[[nodiscard]] Real dot(std::span<const Real> x, std::span<const Real> y) noexcept;

/// Euclidean norm ||x||_2 (overflow-safe scaled accumulation).
[[nodiscard]] Real nrm2(std::span<const Real> x) noexcept;

/// Index of max |x_i|; returns -1 for an empty span.
[[nodiscard]] Index iamax(std::span<const Real> x) noexcept;

// ---------------------------------------------------------------------------
// BLAS level 2
// ---------------------------------------------------------------------------

/// y = alpha * A * x + beta * y   (A is rows x cols, x sized cols, y rows).
void gemv(Real alpha, const Matrix& a, std::span<const Real> x, Real beta,
          std::span<Real> y);

/// y = alpha * A^T * x + beta * y  (x sized rows, y sized cols).
/// Column-major makes the transposed product the cache-friendly one: each
/// output element is a contiguous column dot product; parallelised over
/// columns with OpenMP.
void gemv_t(Real alpha, const Matrix& a, std::span<const Real> x, Real beta,
            std::span<Real> y);

/// Signals per pass of the block kernel: one load of a column of A serves
/// this many signals.
inline constexpr std::size_t kSignalsPerPass = 8;

/// Y(:, s) = Aᵀ · xs[s] for every signal (each sized rows; Y is cols x at
/// least |xs|, later columns untouched). Streams A once per kSignalsPerPass
/// signals, in the calling thread; Y(j, s) equals dot(A.col(j), xs[s]).
void gemv_t_many(const Matrix& a, std::span<const std::span<const Real>> xs,
                 Matrix& y);

// ---------------------------------------------------------------------------
// BLAS level 3
// ---------------------------------------------------------------------------

enum class Trans { kNo, kYes };

/// C = alpha * op(A) * op(B) + beta * C with op in {identity, transpose}.
/// Parallel over columns of C; op(B) = Bᵀ is materialized first, and
/// op(A) = Aᵀ runs the block kernel over passes of kSignalsPerPass columns
/// of op(B), so every entry is one lane dot of two contiguous columns.
void gemm(Real alpha, const Matrix& a, Trans ta, const Matrix& b, Trans tb,
          Real beta, Matrix& c);

/// Convenience: returns op(A) * op(B).
[[nodiscard]] Matrix matmul(const Matrix& a, const Matrix& b,
                            Trans ta = Trans::kNo, Trans tb = Trans::kNo);

/// Gram matrix A^T A (exploits symmetry: computes the upper triangle in
/// column blocks of kSignalsPerPass on the block kernel and mirrors it).
[[nodiscard]] Matrix gram(const Matrix& a);

/// FLOP counters for the kernels above (multiply+add pairs counted as 2
/// FLOPs, matching the paper's accounting).
[[nodiscard]] constexpr std::uint64_t gemv_flops(Index rows, Index cols) noexcept {
  return 2ull * static_cast<std::uint64_t>(rows) * static_cast<std::uint64_t>(cols);
}
[[nodiscard]] constexpr std::uint64_t gemm_flops(Index m, Index n, Index k) noexcept {
  return 2ull * static_cast<std::uint64_t>(m) * static_cast<std::uint64_t>(n) *
         static_cast<std::uint64_t>(k);
}

}  // namespace extdict::la
