// The OpenMP kernels switch to parallel execution above size thresholds
// (gemv_t > 256 cols, spmv_t > 1024 cols, encode_all, transformation_error,
// oASIS downdating > 512 cols). The rest of the suite mostly runs below
// those thresholds; these tests exercise the parallel branches explicitly
// and check they agree with the serial semantics.

#include <gtest/gtest.h>

#include "baselines/oasis.hpp"
#include "core/exd.hpp"
#include "la/blas.hpp"
#include "la/csc_matrix.hpp"
#include "la/random.hpp"
#include "sparsecoding/batch_omp.hpp"

namespace extdict {
namespace {

using la::Index;
using la::Matrix;
using la::Real;

TEST(ParallelPaths, GemvTransposedLargeColumnCount) {
  la::Rng rng(1);
  const Index cols = 700;  // > 256: parallel branch
  const Matrix a = rng.gaussian_matrix(40, cols);
  la::Vector x(40), y(static_cast<std::size_t>(cols));
  rng.fill_gaussian(x);
  la::gemv_t(1, a, x, 0, y);
  for (Index j = 0; j < cols; j += 97) {
    EXPECT_NEAR(y[static_cast<std::size_t>(j)], la::dot(a.col(j), x), 1e-11);
  }
}

TEST(ParallelPaths, GemvTransposedBetaAccumulation) {
  la::Rng rng(2);
  const Index cols = 600;
  const Matrix a = rng.gaussian_matrix(30, cols);
  la::Vector x(30), y(static_cast<std::size_t>(cols), 2.0);
  rng.fill_gaussian(x);
  la::gemv_t(3, a, x, 0.5, y);
  for (Index j = 0; j < cols; j += 83) {
    EXPECT_NEAR(y[static_cast<std::size_t>(j)], 3 * la::dot(a.col(j), x) + 1.0,
                1e-10);
  }
}

TEST(ParallelPaths, SpmvTransposedLargeColumnCount) {
  la::Rng rng(3);
  const Index rows = 50, cols = 3000;  // > 1024: parallel branch
  la::CscMatrix::Builder builder(rows, cols);
  for (Index j = 0; j < cols; ++j) {
    for (Index i = 0; i < rows; ++i) {
      if (rng.uniform() < 0.05) builder.add(i, rng.gaussian());
    }
    builder.commit_column();
  }
  const la::CscMatrix m = std::move(builder).build();
  const Matrix dense = m.to_dense();
  la::Vector w(static_cast<std::size_t>(rows));
  rng.fill_gaussian(w);
  la::Vector y1(static_cast<std::size_t>(cols)), y2(static_cast<std::size_t>(cols));
  m.spmv_t(w, y1);
  la::gemv_t(1, dense, w, 0, y2);
  for (Index j = 0; j < cols; j += 211) {
    EXPECT_NEAR(y1[static_cast<std::size_t>(j)], y2[static_cast<std::size_t>(j)],
                1e-11);
  }
}

TEST(ParallelPaths, EncodeAllManyColumnsMatchesSingleEncodes) {
  la::Rng rng(4);
  const Matrix dict = rng.gaussian_matrix(40, 80, true);
  const Matrix signals = rng.gaussian_matrix(40, 500);
  const sparsecoding::BatchOmp coder(dict, {.tolerance = 0.2, .max_atoms = 0});
  const la::CscMatrix c = coder.encode_all(signals);
  for (Index j = 0; j < signals.cols(); j += 61) {
    const auto code = coder.encode(signals.col(j));
    ASSERT_EQ(static_cast<std::size_t>(c.col_nnz(j)), code.entries.size());
    const auto rows = c.col_rows(j);
    const auto vals = c.col_values(j);
    // entries are sorted by the builder; sort the reference too.
    auto ref = code.entries;
    std::sort(ref.begin(), ref.end());
    for (std::size_t k = 0; k < ref.size(); ++k) {
      EXPECT_EQ(rows[k], ref[k].first);
      EXPECT_NEAR(vals[k], ref[k].second, 1e-12);
    }
  }
}

TEST(ParallelPaths, TransformationErrorLargeN) {
  // > 64 columns: the parallel per-column branch of transformation_error.
  la::Rng rng(5);
  const Matrix a = rng.gaussian_matrix(30, 400, true);
  core::ExdConfig config;
  config.dictionary_size = 30;
  config.tolerance = 1e-9;
  const auto r = core::exd_transform(a, config);
  // Cross-check against a dense reconstruction.
  Matrix dc = la::matmul(r.dictionary, r.coefficients.to_dense());
  Real num = 0, den = 0;
  for (Index j = 0; j < a.cols(); ++j) {
    for (Index i = 0; i < a.rows(); ++i) {
      const Real d = a(i, j) - dc(i, j);
      num += d * d;
      den += a(i, j) * a(i, j);
    }
  }
  EXPECT_NEAR(r.transformation_error, std::sqrt(num / den), 1e-10);
}

TEST(ParallelPaths, OasisLargeColumnDowndating) {
  // > 512 columns engages the parallel residual downdate.
  la::Rng rng(6);
  Matrix basis = rng.gaussian_matrix(40, 5, true);
  Matrix a(40, 900);
  la::Vector coeff(5);
  for (Index j = 0; j < 900; ++j) {
    rng.fill_gaussian(coeff);
    auto col = a.col(j);
    std::fill(col.begin(), col.end(), Real{0});
    la::gemv(1, basis, coeff, 0, col);
  }
  a.normalize_columns();
  const auto r = baselines::oasis_transform(a, 1e-6, 7);
  // Rank-5 data: adaptive selection needs ~5 columns.
  EXPECT_LE(r.dictionary.cols(), 8);
  EXPECT_LE(r.transformation_error, 1e-5);
}

}  // namespace
}  // namespace extdict
