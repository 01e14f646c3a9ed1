#include "la/cholesky.hpp"

#include <gtest/gtest.h>

#include "la/blas.hpp"
#include "la/random.hpp"

namespace extdict::la {
namespace {

// Random SPD matrix B = Xᵀ X + d I.
Matrix random_spd(Index n, Rng& rng, Real ridge = 0.5) {
  Matrix x = rng.gaussian_matrix(n + 3, n);
  Matrix g = gram(x);
  for (Index i = 0; i < n; ++i) g(i, i) += ridge;
  return g;
}

TEST(Cholesky, FactorReconstructs) {
  Rng rng(1);
  Matrix a = random_spd(6, rng);
  Cholesky chol(a);
  const Matrix& l = chol.factor();
  Matrix llt = matmul(l, l, Trans::kNo, Trans::kYes);
  EXPECT_LT(max_abs_diff(a, llt), 1e-10);
}

TEST(Cholesky, SolveMatchesDirect) {
  Rng rng(2);
  Matrix a = random_spd(8, rng);
  Vector b(8);
  rng.fill_gaussian(b);
  Vector x = Cholesky(a).solve(b);
  Vector ax(8);
  gemv(1, a, x, 0, ax);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_NEAR(ax[i], b[i], 1e-9);
}

TEST(Cholesky, RejectsNonSquare) {
  Matrix a(3, 4);
  EXPECT_THROW(Cholesky{a}, std::invalid_argument);
}

TEST(Cholesky, RejectsIndefinite) {
  Matrix a = Matrix::from_rows({{1, 2}, {2, 1}});  // eigenvalues 3, -1
  EXPECT_THROW(Cholesky{a}, std::domain_error);
}

TEST(ProgressiveCholesky, MatchesBatchFactorAtEveryStep) {
  Rng rng(3);
  const Index n = 7;
  Matrix g = random_spd(n, rng);
  ProgressiveCholesky prog(n);
  for (Index k = 0; k < n; ++k) {
    Vector g_new(static_cast<std::size_t>(k));
    for (Index i = 0; i < k; ++i) g_new[static_cast<std::size_t>(i)] = g(i, k);
    ASSERT_TRUE(prog.append(g_new, g(k, k)));
    // Cross-check the solve against the batch factorisation of the leading
    // principal submatrix.
    Matrix sub(k + 1, k + 1);
    for (Index i = 0; i <= k; ++i) {
      for (Index j = 0; j <= k; ++j) sub(i, j) = g(i, j);
    }
    Vector rhs(static_cast<std::size_t>(k + 1));
    rng.fill_gaussian(rhs);
    Vector x_prog = rhs;
    prog.solve_in_place(x_prog);
    Vector x_batch = Cholesky(sub).solve(rhs);
    for (std::size_t i = 0; i < x_prog.size(); ++i) {
      EXPECT_NEAR(x_prog[i], x_batch[i], 1e-8);
    }
  }
}

TEST(ProgressiveCholesky, DetectsDependentAtom) {
  // Gram of two identical unit atoms: second append must fail.
  ProgressiveCholesky prog(2);
  ASSERT_TRUE(prog.append({}, 1.0));
  Vector g_new = {1.0};  // perfectly correlated
  EXPECT_FALSE(prog.append(g_new, 1.0));
  EXPECT_EQ(prog.size(), 1);
}

TEST(ProgressiveCholesky, CapacityEnforced) {
  ProgressiveCholesky prog(1);
  ASSERT_TRUE(prog.append({}, 2.0));
  Vector g_new = {0.1};
  EXPECT_THROW(prog.append(g_new, 1.0), std::logic_error);
}

TEST(ProgressiveCholesky, ResetToANewCapacityReusesTheFactor) {
  ProgressiveCholesky prog(1);
  ASSERT_TRUE(prog.append({}, 4.0));
  prog.reset(2);
  EXPECT_EQ(prog.size(), 0);
  ASSERT_TRUE(prog.append({}, 4.0));
  Vector g_new = {1.0};
  ASSERT_TRUE(prog.append(g_new, 5.0));  // [[4,1],[1,5]] = L Lᵀ
  Vector b = {5.0, 6.0};
  prog.solve_in_place(b);
  EXPECT_NEAR(b[0], 1.0, 1e-14);
  EXPECT_NEAR(b[1], 1.0, 1e-14);
  EXPECT_THROW(prog.append(b, 9.0), std::logic_error);
  EXPECT_THROW(prog.reset(0), std::invalid_argument);
}

TEST(ProgressiveCholesky, ResetAllowsReuse) {
  ProgressiveCholesky prog(2);
  ASSERT_TRUE(prog.append({}, 4.0));
  prog.reset();
  EXPECT_EQ(prog.size(), 0);
  ASSERT_TRUE(prog.append({}, 9.0));
  Vector b = {3.0};
  prog.solve_in_place(b);
  EXPECT_NEAR(b[0], 3.0 / 9.0, 1e-14);
}

TEST(ProgressiveCholesky, SizeMismatchThrows) {
  ProgressiveCholesky prog(3);
  ASSERT_TRUE(prog.append({}, 1.0));
  Vector too_long = {0.1, 0.2};
  EXPECT_THROW(prog.append(too_long, 1.0), std::invalid_argument);
  Vector b = {1.0, 2.0};
  EXPECT_THROW(prog.solve_in_place(b), std::invalid_argument);
}

}  // namespace
}  // namespace extdict::la
