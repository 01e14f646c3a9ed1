// Negative tests for the runtime contracts layer (util/contracts.hpp):
// deliberately mismatched shapes, corrupt CSC structure, and NaN inputs must
// fail loudly at the call site. Shape contracts are always active; the
// deeper assertion/finiteness contracts only exist when the library is built
// with EXTDICT_CHECKS=ON, so those cases skip themselves in plain Release.

#include "util/contracts.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/evolving.hpp"
#include "core/gram_operator.hpp"
#include "la/blas.hpp"
#include "la/cholesky.hpp"
#include "la/csc_matrix.hpp"
#include "la/random.hpp"
#include "sparsecoding/batch_omp.hpp"
#include "sparsecoding/omp.hpp"

namespace extdict {
namespace {

using la::CscMatrix;
using la::Index;
using la::Matrix;
using la::Real;
using la::Vector;

constexpr Real kNaN = std::numeric_limits<Real>::quiet_NaN();

// ---------------------------------------------------------------------------
// Shape contracts: always on, ContractViolation is-a std::invalid_argument.
// ---------------------------------------------------------------------------

TEST(Contracts, GemmShapeMismatchThrows) {
  const Matrix a(3, 4);
  const Matrix b(5, 2);  // inner dimensions 4 vs 5 disagree
  EXPECT_THROW((void)la::matmul(a, b), std::invalid_argument);
  EXPECT_THROW((void)la::matmul(a, b), util::ContractViolation);
}

TEST(Contracts, GemmOutputShapeMismatchThrows) {
  const Matrix a(3, 4);
  const Matrix b(4, 2);
  Matrix c(3, 3);  // should be 3x2
  EXPECT_THROW(la::gemm(1, a, la::Trans::kNo, b, la::Trans::kNo, 0, c),
               util::ContractViolation);
}

TEST(Contracts, GemvShapeMismatchThrows) {
  const Matrix a(3, 4);
  Vector x(3), y(3);  // x must be sized cols()=4
  EXPECT_THROW(la::gemv(1, a, x, 0, y), util::ContractViolation);
  Vector xt(4), yt(4);  // gemv_t wants |x|=rows()=3
  EXPECT_THROW(la::gemv_t(1, a, xt, 0, yt), util::ContractViolation);
}

TEST(Contracts, SpmvRangeShapeMismatchThrows) {
  const CscMatrix c(5, 7);
  Vector x(3), v(5);
  EXPECT_THROW(c.spmv_range(0, 7, x, v), util::ContractViolation);
  Vector w(4), y(7);  // w must be sized rows()=5
  EXPECT_THROW(c.spmv_t(w, y), util::ContractViolation);
}

TEST(Contracts, GramOperatorRejectsWrongSpanSizes) {
  la::Rng rng(11);
  const Matrix a = rng.gaussian_matrix(6, 9);
  const core::DenseGramOperator op(a);
  Vector x(9), bad(4);
  EXPECT_THROW(op.apply(bad, x), util::ContractViolation);
  EXPECT_THROW(op.apply(x, bad), util::ContractViolation);
  EXPECT_THROW(op.apply_adjoint(bad, x), util::ContractViolation);
  Vector v(6);
  EXPECT_NO_THROW(op.apply_forward(x, v));
}

TEST(Contracts, ViolationMessageCarriesLocationWhenChecked) {
  const Matrix a(3, 4);
  const Matrix b(5, 2);
  try {
    (void)la::matmul(a, b);
    FAIL() << "expected ContractViolation";
  } catch (const util::ContractViolation& e) {
    const std::string what = e.what();
    if (util::checks_enabled()) {
      // Rich diagnostics: file:line plus both operand shapes.
      EXPECT_NE(what.find("blas.cpp"), std::string::npos) << what;
      EXPECT_NE(what.find("3x4"), std::string::npos) << what;
      EXPECT_NE(what.find("5x2"), std::string::npos) << what;
    } else {
      EXPECT_NE(what.find("dimension mismatch"), std::string::npos) << what;
    }
  }
}

// ---------------------------------------------------------------------------
// CSC structural invariants.
// ---------------------------------------------------------------------------

TEST(Contracts, CscValidateAcceptsWellFormed) {
  CscMatrix::Builder b(4, 3);
  b.add(0, 1.0);
  b.add(2, -2.0);
  b.commit_column();
  b.add(3, 0.5);
  b.commit_column();
  const CscMatrix m = std::move(b).build();
  EXPECT_NO_THROW(m.validate());
}

TEST(Contracts, CscValidateRejectsOutOfRangeRowIndex) {
  // from_raw is the deserialisation boundary: row index 9 in a 4-row matrix.
  std::vector<Index> col_ptr{0, 1, 2};
  std::vector<Index> row_idx{1, 9};
  std::vector<Real> values{1.0, 2.0};
  if (util::checks_enabled()) {
    EXPECT_THROW((void)CscMatrix::from_raw(4, 2, col_ptr, row_idx, values),
                 util::ContractViolation);
  } else {
    // Without checks from_raw adopts the arrays; validate() still catches it.
    const CscMatrix m =
        CscMatrix::from_raw(4, 2, col_ptr, row_idx, values);
    EXPECT_THROW(m.validate(), util::ContractViolation);
  }
}

TEST(Contracts, CscValidateRejectsDecreasingColPtr) {
  std::vector<Index> col_ptr{0, 2, 1, 2};
  std::vector<Index> row_idx{0, 1};
  std::vector<Real> values{1.0, 2.0};
  if (util::checks_enabled()) {
    EXPECT_THROW((void)CscMatrix::from_raw(3, 3, col_ptr, row_idx, values),
                 util::ContractViolation);
  } else {
    const CscMatrix m =
        CscMatrix::from_raw(3, 3, col_ptr, row_idx, values);
    EXPECT_THROW(m.validate(), util::ContractViolation);
  }
}

TEST(Contracts, CscFromRawRejectsInconsistentArraySizes) {
  std::vector<Index> col_ptr{0, 1};  // 2 entries for 3 columns
  EXPECT_THROW((void)CscMatrix::from_raw(3, 3, col_ptr, {0}, {1.0}),
               std::invalid_argument);
  EXPECT_THROW((void)CscMatrix::from_raw(3, 1, {0, 1}, {0, 1}, {1.0}),
               std::invalid_argument);
}

TEST(Contracts, CscFromRawRoundTripsWellFormedInput) {
  const CscMatrix m = CscMatrix::from_raw(4, 2, {0, 2, 3}, {0, 3, 1},
                                          {1.0, -1.0, 2.5});
  EXPECT_EQ(m.nnz(), 3u);
  Vector x{1.0, 1.0}, v(4);
  m.spmv(x, v);
  EXPECT_DOUBLE_EQ(v[0], 1.0);
  EXPECT_DOUBLE_EQ(v[1], 2.5);
  EXPECT_DOUBLE_EQ(v[3], -1.0);
}

// ---------------------------------------------------------------------------
// Finiteness contracts: EXTDICT_CHECKS=ON only.
// ---------------------------------------------------------------------------

TEST(Contracts, GemvRejectsNaNInputWhenChecked) {
  if (!util::checks_enabled()) {
    GTEST_SKIP() << "finiteness contracts compiled out (EXTDICT_CHECKS=OFF)";
  }
  la::Rng rng(7);
  const Matrix a = rng.gaussian_matrix(5, 5);
  Vector x(5, 1.0), y(5);
  x[2] = kNaN;
  EXPECT_THROW(la::gemv(1, a, x, 0, y), util::ContractViolation);
  EXPECT_THROW(la::gemv_t(1, a, x, 0, y), util::ContractViolation);
}

TEST(Contracts, SparseCodersRejectNaNSignalWhenChecked) {
  if (!util::checks_enabled()) {
    GTEST_SKIP() << "finiteness contracts compiled out (EXTDICT_CHECKS=OFF)";
  }
  la::Rng rng(8);
  const Matrix dict = rng.gaussian_matrix(8, 12, true);
  Vector signal(8, 1.0);
  signal[5] = kNaN;
  EXPECT_THROW((void)sparsecoding::omp_sparse_code(dict, signal, {}),
               util::ContractViolation);
  const sparsecoding::BatchOmp coder(dict, {});
  EXPECT_THROW((void)coder.encode(signal), util::ContractViolation);
}

TEST(Contracts, BatchEncodersRethrowNaNColumnWhenChecked) {
  // The throw happens inside encode_many's OpenMP region; it must come back
  // out as the ContractViolation, not std::terminate.
  if (!util::checks_enabled()) {
    GTEST_SKIP() << "finiteness contracts compiled out (EXTDICT_CHECKS=OFF)";
  }
  la::Rng rng(9);
  const Matrix dict = rng.gaussian_matrix(8, 12, true);
  Matrix signals = rng.gaussian_matrix(8, 40);
  signals(2, 17) = kNaN;
  const sparsecoding::BatchOmp coder(dict, {});
  EXPECT_THROW((void)coder.encode_all(signals), util::ContractViolation);

  core::ExdResult exd;
  exd.dictionary = dict;
  exd.coefficients = coder.encode_all(rng.gaussian_matrix(8, 5));
  core::ExdConfig config;
  config.dictionary_size = 4;
  EXPECT_THROW((void)core::evolve(exd, signals, config),
               util::ContractViolation);
}

TEST(Contracts, CholeskyRejectsNaNMatrixWhenChecked) {
  if (!util::checks_enabled()) {
    GTEST_SKIP() << "finiteness contracts compiled out (EXTDICT_CHECKS=OFF)";
  }
  Matrix g = Matrix::from_rows({{4.0, 1.0}, {1.0, 3.0}});
  g(0, 1) = kNaN;
  EXPECT_THROW(la::Cholesky{g}, util::ContractViolation);
}

TEST(Contracts, FirstNonFiniteFindsNaNAndInf) {
  const Vector clean{1.0, -2.0, 0.0};
  EXPECT_EQ(util::first_non_finite(clean), -1);
  Vector dirty{1.0, kNaN, 2.0};
  EXPECT_EQ(util::first_non_finite(dirty), 1);
  dirty[1] = std::numeric_limits<Real>::infinity();
  EXPECT_EQ(util::first_non_finite(dirty), 1);
}

}  // namespace
}  // namespace extdict
