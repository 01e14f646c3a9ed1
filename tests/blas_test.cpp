#include "la/blas.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <tuple>
#include <vector>

#include "la/random.hpp"

namespace extdict::la {
namespace {

// Naive reference products for cross-checking the optimised kernels.
Matrix reference_matmul(const Matrix& a, const Matrix& b, Trans ta, Trans tb) {
  const Index m = ta == Trans::kNo ? a.rows() : a.cols();
  const Index k = ta == Trans::kNo ? a.cols() : a.rows();
  const Index n = tb == Trans::kNo ? b.cols() : b.rows();
  Matrix c(m, n);
  for (Index i = 0; i < m; ++i) {
    for (Index j = 0; j < n; ++j) {
      Real s = 0;
      for (Index l = 0; l < k; ++l) {
        const Real av = ta == Trans::kNo ? a(i, l) : a(l, i);
        const Real bv = tb == Trans::kNo ? b(l, j) : b(j, l);
        s += av * bv;
      }
      c(i, j) = s;
    }
  }
  return c;
}

TEST(Blas1, AxpyAccumulates) {
  Vector x = {1, 2, 3};
  Vector y = {10, 20, 30};
  axpy(2, x, y);
  EXPECT_EQ(y[0], 12);
  EXPECT_EQ(y[1], 24);
  EXPECT_EQ(y[2], 36);
}

TEST(Blas1, ScalScales) {
  Vector x = {1, -2, 4};
  scal(-0.5, x);
  EXPECT_EQ(x[0], -0.5);
  EXPECT_EQ(x[1], 1.0);
  EXPECT_EQ(x[2], -2.0);
}

TEST(Blas1, DotMatchesManual) {
  Vector x = {1, 2, 3};
  Vector y = {4, 5, 6};
  EXPECT_EQ(dot(x, y), 32.0);
}

// The lane kernel against an extended-precision reference at every length
// through eight full chunks plus every tail, and at every start offset
// within a chunk (unaligned subspans, as Alg. 2's row blocks hand it).
TEST(Blas1, DotWithinRoundingBoundAtEveryLengthAndOffset) {
  Rng rng(3);
  Vector xs(67 + 8), ys(67 + 8);
  rng.fill_gaussian(xs);
  rng.fill_gaussian(ys);
  const Real eps = std::numeric_limits<Real>::epsilon();
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t n = 0; n <= 67; ++n) {
      const auto x = std::span<const Real>(xs).subspan(offset, n);
      const auto y = std::span<const Real>(ys).subspan(offset, n);
      long double ref = 0, mag = 0;
      for (std::size_t i = 0; i < n; ++i) {
        ref += static_cast<long double>(x[i]) * static_cast<long double>(y[i]);
        mag += std::abs(static_cast<long double>(x[i]) * y[i]);
      }
      const auto err = std::abs(static_cast<long double>(dot(x, y)) - ref);
      EXPECT_LE(err, static_cast<long double>(n) * eps * mag)
          << "n=" << n << " offset=" << offset;
    }
  }
}

TEST(Blas1, Nrm2Matches) {
  Vector x = {3, 4};
  EXPECT_NEAR(nrm2(x), 5.0, 1e-14);
}

TEST(Blas1, Nrm2OverflowSafe) {
  Vector x = {1e200, 1e200};
  EXPECT_NEAR(nrm2(x), std::sqrt(2.0) * 1e200, 1e188);
}

TEST(Blas1, IamaxFindsLargestMagnitude) {
  Vector x = {1, -9, 4};
  EXPECT_EQ(iamax(x), 1);
  Vector empty;
  EXPECT_EQ(iamax(empty), -1);
}

TEST(Blas2, GemvMatchesReference) {
  Rng rng(5);
  Matrix a = rng.gaussian_matrix(7, 4);
  Vector x(4), y(7, 1.0);
  rng.fill_gaussian(x);
  Vector expected(7);
  for (Index i = 0; i < 7; ++i) {
    Real s = 0;
    for (Index j = 0; j < 4; ++j) s += a(i, j) * x[static_cast<std::size_t>(j)];
    expected[static_cast<std::size_t>(i)] = 2 * s + 3 * 1.0;
  }
  gemv(2, a, x, 3, y);
  for (Index i = 0; i < 7; ++i) {
    EXPECT_NEAR(y[static_cast<std::size_t>(i)], expected[static_cast<std::size_t>(i)], 1e-12);
  }
}

TEST(Blas2, GemvBetaZeroIgnoresGarbage) {
  Matrix a = Matrix::from_rows({{1, 0}, {0, 1}});
  Vector x = {5, 6};
  Vector y = {std::nan(""), std::nan("")};
  gemv(1, a, x, 0, y);
  EXPECT_EQ(y[0], 5);
  EXPECT_EQ(y[1], 6);
}

TEST(Blas2, GemvTMatchesReference) {
  Rng rng(6);
  Matrix a = rng.gaussian_matrix(6, 9);
  Vector x(6), y(9);
  rng.fill_gaussian(x);
  gemv_t(1, a, x, 0, y);
  for (Index j = 0; j < 9; ++j) {
    EXPECT_NEAR(y[static_cast<std::size_t>(j)], dot(a.col(j), x), 1e-12);
  }
}

// Every transposed product is la::dot of the same two columns, bit for bit:
// row counts off the 8-lane grid exercise the tail, and the 300-column
// gemv_t takes the OpenMP path.
TEST(Blas2, TransposedProductsAreBitwiseDot) {
  Rng rng(12);
  const Matrix a = rng.gaussian_matrix(1603, 37);
  const Matrix b = rng.gaussian_matrix(1603, 5);
  Vector x(1603), y(37);
  rng.fill_gaussian(x);
  gemv_t(1, a, x, 0, y);
  const Matrix c = matmul(a, b, Trans::kYes, Trans::kNo);
  const Matrix g = gram(a);
  for (Index j = 0; j < 37; ++j) {
    EXPECT_EQ(y[static_cast<std::size_t>(j)], dot(a.col(j), x)) << j;
    for (Index i = 0; i < 37; ++i) EXPECT_EQ(g(i, j), dot(a.col(i), a.col(j)));
  }
  for (Index j = 0; j < 5; ++j) {
    for (Index i = 0; i < 37; ++i) EXPECT_EQ(c(i, j), dot(a.col(i), b.col(j)));
  }
  const Matrix wide = rng.gaussian_matrix(203, 300);
  Vector z(203), w(300);
  rng.fill_gaussian(z);
  gemv_t(1, wide, z, 0, w);
  for (Index j = 0; j < 300; ++j) {
    EXPECT_EQ(w[static_cast<std::size_t>(j)], dot(wide.col(j), z)) << j;
  }
}

// Bitwise equality: every transposed product must be la::dot itself, not a
// value within rounding of it.
void expect_bitwise(Real got, Real want, const std::string& where) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(want))
      << where << ": " << got << " vs " << want;
}

TEST(Blas2, GemvTManyIsBitwiseDotForEverySignalCountAndLength) {
  Rng rng(13);
  for (const Index n : {0, 1, 7, 8, 9, 63, 1603}) {
    const Matrix a = rng.gaussian_matrix(n, 11);
    const Matrix x = rng.gaussian_matrix(n, 17);
    std::vector<std::span<const Real>> xs;
    for (Index s = 0; s < x.cols(); ++s) xs.push_back(x.col(s));
    for (std::size_t count = 1; count <= xs.size(); ++count) {
      Matrix y(a.cols(), static_cast<Index>(count));
      gemv_t_many(a, std::span(xs).first(count), y);
      for (std::size_t s = 0; s < count; ++s) {
        for (Index j = 0; j < a.cols(); ++j) {
          expect_bitwise(y(j, static_cast<Index>(s)), dot(a.col(j), xs[s]),
                         "n=" + std::to_string(n) + " count=" +
                             std::to_string(count) + " s=" + std::to_string(s));
        }
      }
    }
  }
}

TEST(Blas2, GemvTManyReadsSpansOffTheVectorAlignment) {
  // Each signal starts 1-7 doubles past an aligned allocation, and the
  // 61-row columns of A start at every offset mod 8.
  Rng rng(14);
  const Index n = 61;
  const Matrix a = rng.gaussian_matrix(n, 9);
  std::vector<Vector> buffers;
  std::vector<std::span<const Real>> xs;
  for (std::size_t offset = 1; offset <= 7; ++offset) {
    Vector& b = buffers.emplace_back(static_cast<std::size_t>(n) + offset);
    rng.fill_gaussian(b);
  }
  for (std::size_t offset = 1; offset <= 7; ++offset) {
    xs.push_back(std::span<const Real>(buffers[offset - 1])
                     .subspan(offset, static_cast<std::size_t>(n)));
  }
  Matrix y(a.cols(), 7);
  gemv_t_many(a, xs, y);
  for (std::size_t s = 0; s < xs.size(); ++s) {
    for (Index j = 0; j < a.cols(); ++j) {
      expect_bitwise(y(j, static_cast<Index>(s)), dot(a.col(j), xs[s]),
                     "offset " + std::to_string(s + 1));
      expect_bitwise(dot(xs[s], a.col(j)), dot(a.col(j), xs[s]),
                     "swapped offset " + std::to_string(s + 1));
    }
  }
}

TEST(Blas2, GemvTManyShapeContracts) {
  Rng rng(15);
  const Matrix a = rng.gaussian_matrix(6, 4);
  const Vector x(6, 1.0), short_x(5, 1.0);
  const std::span<const Real> ok[] = {x, x};
  const std::span<const Real> bad[] = {x, short_x};
  Matrix y(4, 2), narrow(4, 1), tall(5, 2);
  EXPECT_THROW(gemv_t_many(a, bad, y), std::invalid_argument);
  EXPECT_THROW(gemv_t_many(a, ok, narrow), std::invalid_argument);
  EXPECT_THROW(gemv_t_many(a, ok, tall), std::invalid_argument);
  Matrix wide(4, 3);
  wide(0, 2) = 7.0;
  gemv_t_many(a, ok, wide);
  EXPECT_EQ(wide(0, 2), 7.0);  // columns past |xs| are untouched
}

TEST(Blas3, GramAndGemmTnAreBitwiseDotAcrossBlockBoundaries) {
  // 37 columns and 8k±1 columns: partial last blocks, single-column blocks
  // and the diagonal block's below-diagonal entries.
  Rng rng(16);
  for (const Index cols : {1, 7, 9, 15, 17, 37, 63, 65}) {
    const Matrix a = rng.gaussian_matrix(203, cols);
    const Matrix g = gram(a);
    const Matrix c = matmul(a, a, Trans::kYes, Trans::kNo);
    for (Index j = 0; j < cols; ++j) {
      for (Index i = 0; i < cols; ++i) {
        const Real want = dot(a.col(std::min(i, j)), a.col(std::max(i, j)));
        const std::string where = "cols=" + std::to_string(cols) + " (" +
                                  std::to_string(i) + "," + std::to_string(j) + ")";
        expect_bitwise(g(i, j), want, "gram " + where);
        expect_bitwise(c(i, j), dot(a.col(i), a.col(j)), "gemm " + where);
      }
    }
  }
}

TEST(Blas2, GemvDimensionMismatchThrows) {
  Matrix a(3, 2);
  Vector x(3), y(3);
  EXPECT_THROW(gemv(1, a, x, 0, y), std::invalid_argument);
  EXPECT_THROW(gemv_t(1, a, y, 0, y), std::invalid_argument);
}

using GemmCase = std::tuple<Index, Index, Index, Trans, Trans>;

class GemmParamTest : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmParamTest, MatchesNaiveReference) {
  const auto [m, n, k, ta, tb] = GetParam();
  Rng rng(42 + m + n + k);
  Matrix a = ta == Trans::kNo ? rng.gaussian_matrix(m, k) : rng.gaussian_matrix(k, m);
  Matrix b = tb == Trans::kNo ? rng.gaussian_matrix(k, n) : rng.gaussian_matrix(n, k);
  Matrix c = matmul(a, b, ta, tb);
  Matrix ref = reference_matmul(a, b, ta, tb);
  EXPECT_LT(max_abs_diff(c, ref), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    AllTransposeCombos, GemmParamTest,
    ::testing::Values(GemmCase{4, 5, 6, Trans::kNo, Trans::kNo},
                      GemmCase{4, 5, 6, Trans::kYes, Trans::kNo},
                      GemmCase{4, 5, 6, Trans::kNo, Trans::kYes},
                      GemmCase{4, 5, 6, Trans::kYes, Trans::kYes},
                      GemmCase{1, 1, 1, Trans::kNo, Trans::kNo},
                      GemmCase{17, 23, 31, Trans::kNo, Trans::kNo},
                      GemmCase{17, 23, 31, Trans::kYes, Trans::kNo},
                      GemmCase{64, 64, 64, Trans::kNo, Trans::kNo}));

TEST(Gemm, AccumulatesWithAlphaBeta) {
  Rng rng(9);
  Matrix a = rng.gaussian_matrix(3, 3);
  Matrix b = rng.gaussian_matrix(3, 3);
  Matrix c = rng.gaussian_matrix(3, 3);
  Matrix expected = c;
  Matrix ab = reference_matmul(a, b, Trans::kNo, Trans::kNo);
  for (Index j = 0; j < 3; ++j) {
    for (Index i = 0; i < 3; ++i) expected(i, j) = 2 * ab(i, j) + 0.5 * c(i, j);
  }
  gemm(2, a, Trans::kNo, b, Trans::kNo, 0.5, c);
  EXPECT_LT(max_abs_diff(c, expected), 1e-12);
}

TEST(Gemm, DimensionMismatchThrows) {
  Matrix a(3, 4), b(5, 2), c(3, 2);
  EXPECT_THROW(gemm(1, a, Trans::kNo, b, Trans::kNo, 0, c), std::invalid_argument);
}

TEST(Gram, MatchesAtA) {
  Rng rng(11);
  Matrix a = rng.gaussian_matrix(8, 5);
  Matrix g = gram(a);
  Matrix ref = matmul(a, a, Trans::kYes, Trans::kNo);
  EXPECT_LT(max_abs_diff(g, ref), 1e-12);
  // Symmetry by construction.
  for (Index j = 0; j < 5; ++j) {
    for (Index i = 0; i < 5; ++i) EXPECT_EQ(g(i, j), g(j, i));
  }
}

TEST(FlopCounters, MatchFormulas) {
  EXPECT_EQ(gemv_flops(10, 20), 400u);
  EXPECT_EQ(gemm_flops(2, 3, 4), 48u);
}

}  // namespace
}  // namespace extdict::la
