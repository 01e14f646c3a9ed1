// Differential tests for BatchOmp::encode_many, the one parallel loop over
// signals: its codes, and those of every caller routed through it
// (encode_all, core::evolve, serve::ExtDictServer), must equal a per-signal
// BatchOmp::encode bit for bit — entries, residual norm, iteration count and
// metered FLOPs. A throwing signal must fill only its own error slot.
// (The distributed transform is pinned by dist_exd_test.)

#include "sparsecoding/batch_omp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <limits>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "core/evolving.hpp"
#include "core/exd.hpp"
#include "core/gram_extend.hpp"
#include "la/blas.hpp"
#include "la/random.hpp"
#include "serve/server.hpp"
#include "util/contracts.hpp"

namespace extdict {
namespace {

using la::Index;
using la::Matrix;
using la::Real;
using la::Vector;
using sparsecoding::BatchOmp;
using sparsecoding::OmpConfig;
using sparsecoding::SparseCode;

void expect_same_code(const SparseCode& got, const SparseCode& want) {
  ASSERT_EQ(got.entries.size(), want.entries.size());
  for (std::size_t k = 0; k < got.entries.size(); ++k) {
    EXPECT_EQ(got.entries[k].first, want.entries[k].first) << "entry " << k;
    EXPECT_EQ(got.entries[k].second, want.entries[k].second) << "entry " << k;
  }
  EXPECT_EQ(got.residual_norm, want.residual_norm);
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.flops, want.flops);
}

// A CSC column holds a code's entries sorted by atom index.
void expect_column_is_code(const la::CscMatrix& c, Index j,
                           const SparseCode& want) {
  auto entries = want.entries;
  std::sort(entries.begin(), entries.end());
  const auto rows = c.col_rows(j);
  const auto values = c.col_values(j);
  ASSERT_EQ(rows.size(), entries.size()) << "column " << j;
  for (std::size_t k = 0; k < rows.size(); ++k) {
    EXPECT_EQ(rows[k], entries[k].first) << "column " << j;
    EXPECT_EQ(values[k], entries[k].second) << "column " << j;
  }
}

std::vector<std::span<const Real>> column_spans(const Matrix& m) {
  std::vector<std::span<const Real>> spans;
  for (Index j = 0; j < m.cols(); ++j) spans.push_back(m.col(j));
  return spans;
}

// Gaussian signals with column 3 exactly zero (the early-return path).
Matrix signals_with_zero(Index m, Index n, std::uint64_t seed) {
  la::Rng rng(seed);
  Matrix s = rng.gaussian_matrix(m, n);
  std::fill(s.col(3).begin(), s.col(3).end(), Real{0});
  return s;
}

// (M, L): an undercomplete (L < M) and an overcomplete (L > M) dictionary.
class EncodeManyShapes
    : public ::testing::TestWithParam<std::pair<Index, Index>> {};

TEST_P(EncodeManyShapes, ConstructionConfigMatchesPerSignalEncode) {
  const auto [m, l] = GetParam();
  la::Rng rng(101);
  const Matrix dict = rng.gaussian_matrix(m, l, true);
  const Matrix signals = signals_with_zero(m, 24, 102);
  const OmpConfig configs[] = {{.tolerance = 0.1, .max_atoms = 0},
                               {.tolerance = 0, .max_atoms = std::min(m, l)}};
  for (const OmpConfig& config : configs) {
    const BatchOmp coder(dict, config);
    const BatchOmp::Batch batch = coder.encode_many(column_spans(signals));
    ASSERT_EQ(batch.codes.size(), 24u);
    ASSERT_EQ(batch.errors.size(), 24u);
    for (Index j = 0; j < signals.cols(); ++j) {
      EXPECT_FALSE(batch.errors[static_cast<std::size_t>(j)]);
      expect_same_code(batch.codes[static_cast<std::size_t>(j)],
                       coder.encode(signals.col(j)));
    }
    EXPECT_TRUE(batch.codes[3].entries.empty());  // the zero signal
  }
}

TEST_P(EncodeManyShapes, MixedPerSignalConfigsMatchPerSignalEncode) {
  const auto [m, l] = GetParam();
  la::Rng rng(103);
  const Matrix dict = rng.gaussian_matrix(m, l, true);
  const Matrix signals = signals_with_zero(m, 32, 104);
  const Real tolerances[] = {0, 0.05, 0.3, 1.5};
  const Index caps[] = {0, 1, std::min(m, l), std::min(m, l) + 5};
  std::vector<OmpConfig> configs;
  for (Index j = 0; j < signals.cols(); ++j) {
    configs.push_back(
        {.tolerance = tolerances[j % 4], .max_atoms = caps[j / 8]});
  }
  const BatchOmp coder(dict, {.tolerance = 0.2, .max_atoms = 0});
  const BatchOmp::Batch batch =
      coder.encode_many(column_spans(signals), configs);
  for (Index j = 0; j < signals.cols(); ++j) {
    const auto i = static_cast<std::size_t>(j);
    EXPECT_FALSE(batch.errors[i]);
    expect_same_code(batch.codes[i], coder.encode(signals.col(j), configs[i]));
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, EncodeManyShapes,
                         ::testing::Values(std::pair<Index, Index>{32, 12},
                                           std::pair<Index, Index>{12, 32}));

TEST(EncodeMany, EmptyBatchCodesNothing) {
  la::Rng rng(105);
  const Matrix dict = rng.gaussian_matrix(8, 12, true);
  BatchOmp::Batch batch = BatchOmp(dict, {}).encode_many({});
  EXPECT_TRUE(batch.codes.empty());
  EXPECT_TRUE(batch.errors.empty());
  EXPECT_TRUE(std::move(batch).take_codes().empty());
}

TEST(EncodeMany, ConfigCountMustMatchSignalCount) {
  la::Rng rng(106);
  const Matrix dict = rng.gaussian_matrix(8, 12, true);
  const Matrix signals = rng.gaussian_matrix(8, 3);
  const std::vector<OmpConfig> two(2);
  EXPECT_THROW((void)BatchOmp(dict, {}).encode_many(column_spans(signals), two),
               util::ContractViolation);
}

// Encodes `signals` with column `bad` swapped for `replacement`; only that
// slot may carry an error, every other code must match a direct encode.
void expect_error_confined(const BatchOmp& coder, const Matrix& signals,
                           Index bad, std::span<const Real> replacement) {
  auto spans = column_spans(signals);
  spans[static_cast<std::size_t>(bad)] = replacement;
  BatchOmp::Batch batch = coder.encode_many(spans);
  for (Index j = 0; j < signals.cols(); ++j) {
    const auto i = static_cast<std::size_t>(j);
    if (j == bad) {
      ASSERT_TRUE(batch.errors[i]);
      EXPECT_THROW(std::rethrow_exception(batch.errors[i]),
                   util::ContractViolation);
      EXPECT_TRUE(batch.codes[i].entries.empty());
    } else {
      EXPECT_FALSE(batch.errors[i]) << "signal " << j;
      expect_same_code(batch.codes[i], coder.encode(signals.col(j)));
    }
  }
  EXPECT_THROW((void)std::move(batch).take_codes(), util::ContractViolation);
}

TEST(EncodeMany, WrongLengthSignalFillsOnlyItsOwnSlot) {
  // The length contract is always on, so this runs in every build.
  la::Rng rng(107);
  const Matrix dict = rng.gaussian_matrix(10, 16, true);
  const Matrix signals = rng.gaussian_matrix(10, 12);
  const Vector short_signal(9, 1.0);
  expect_error_confined(BatchOmp(dict, {.tolerance = 0.1}), signals, 5,
                        short_signal);
}

TEST(EncodeMany, NonFiniteSignalFillsOnlyItsOwnSlotWhenChecked) {
  if (!util::checks_enabled()) {
    GTEST_SKIP() << "finiteness contracts compiled out (EXTDICT_CHECKS=OFF)";
  }
  la::Rng rng(108);
  const Matrix dict = rng.gaussian_matrix(10, 16, true);
  const Matrix signals = rng.gaussian_matrix(10, 12);
  Vector nan_signal(signals.col(7).begin(), signals.col(7).end());
  nan_signal[2] = std::numeric_limits<Real>::quiet_NaN();
  expect_error_confined(BatchOmp(dict, {.tolerance = 0.1}), signals, 7,
                        nan_signal);
}

// encode_many codes blocks of la::kSignalsPerPass signals from one shared
// projection: batch sizes below, at and past one block, and past two.
TEST(EncodeMany, EveryBatchSizeAroundTheBlockMatchesPerSignalEncode) {
  la::Rng rng(113);
  const Matrix dict = rng.gaussian_matrix(40, 64, true);
  const BatchOmp coder(dict, {.tolerance = 0.05, .max_atoms = 0});
  for (const Index n : {1, 7, 8, 9, 17}) {
    const Matrix signals = rng.gaussian_matrix(40, n);
    const BatchOmp::Batch batch = coder.encode_many(column_spans(signals));
    ASSERT_EQ(batch.codes.size(), static_cast<std::size_t>(n));
    for (Index j = 0; j < n; ++j) {
      const auto i = static_cast<std::size_t>(j);
      EXPECT_FALSE(batch.errors[i]) << "n=" << n << " signal " << j;
      expect_same_code(batch.codes[i], coder.encode(signals.col(j)));
    }
  }
}

TEST(EncodeMany, BadSignalMidBlockAndInLastSlotFillsOnlyItsOwnSlot) {
  // 17 signals = blocks [0, 8), [8, 16), [16]: slot 3 is mid-block, 7 and 15
  // are a block's last slot, 16 is a one-signal block.
  la::Rng rng(114);
  const Matrix dict = rng.gaussian_matrix(12, 20, true);
  const Matrix signals = rng.gaussian_matrix(12, 17);
  const BatchOmp coder(dict, {.tolerance = 0.1});
  const Vector short_signal(11, 1.0);
  for (const Index bad : {3, 7, 15, 16}) {
    SCOPED_TRACE("wrong length at " + std::to_string(bad));
    expect_error_confined(coder, signals, bad, short_signal);
  }
  if (!util::checks_enabled()) return;  // finiteness contracts compiled out
  for (const Index bad : {3, 7, 15, 16}) {
    SCOPED_TRACE("NaN at " + std::to_string(bad));
    Vector nan_signal(signals.col(bad).begin(), signals.col(bad).end());
    nan_signal[5] = std::numeric_limits<Real>::quiet_NaN();
    expect_error_confined(coder, signals, bad, nan_signal);
  }
}

TEST(EncodeMany, UnprojectedSignalsInABlockChargeOnlyTheirEnergy) {
  // A zero signal needs no projection: inside a block it still costs exactly
  // the 2M FLOPs of <x, x>, and its neighbours' codes are unchanged.
  la::Rng rng(115);
  const Index m = 16;
  const Matrix dict = rng.gaussian_matrix(m, 24, true);
  const Matrix signals = signals_with_zero(m, 9, 116);
  const BatchOmp coder(dict, {.tolerance = 0.1});
  const BatchOmp::Batch batch = coder.encode_many(column_spans(signals));
  EXPECT_EQ(batch.codes[3].flops, static_cast<std::uint64_t>(2 * m));
  EXPECT_TRUE(batch.codes[3].entries.empty());
  EXPECT_EQ(batch.codes[3].iterations, 0);
  for (Index j = 0; j < signals.cols(); ++j) {
    expect_same_code(batch.codes[static_cast<std::size_t>(j)],
                     coder.encode(signals.col(j)));
  }
  // max_atoms = 0 means min(M, L) atoms, which is zero for a dictionary with
  // no atoms: every signal of the block is then unprojected.
  const Matrix empty(m, 0);
  const BatchOmp none(empty, {.tolerance = 0.1, .max_atoms = 0});
  const BatchOmp::Batch bare = none.encode_many(column_spans(signals));
  for (const SparseCode& code : bare.codes) {
    EXPECT_EQ(code.flops, static_cast<std::uint64_t>(2 * m));
    EXPECT_TRUE(code.entries.empty());
  }
}

TEST(EncodeMany, EncodeAllColumnsMatchPerSignalEncode) {
  la::Rng rng(109);
  const Matrix dict = rng.gaussian_matrix(24, 40, true);
  const Matrix signals = signals_with_zero(24, 50, 110);
  const BatchOmp coder(dict, {.tolerance = 0.15});
  const la::CscMatrix c = coder.encode_all(signals);
  ASSERT_EQ(c.cols(), signals.cols());
  for (Index j = 0; j < signals.cols(); ++j) {
    expect_column_is_code(c, j, coder.encode(signals.col(j)));
  }
}

TEST(EncodeMany, EvolveCodesMatchPerSignalEncode) {
  // Pass 1 codes against the old dictionary; the failing columns are
  // re-coded (pass 2) against the extended one with the bordered Gram.
  la::Rng rng(111);
  const Matrix a = rng.gaussian_matrix(40, 120);
  core::ExdConfig config;
  config.dictionary_size = 24;
  config.tolerance = 0.05;
  config.seed = 3;
  const core::ExdResult base = core::exd_transform(a, config);
  // Columns 0-14 are fresh gaussians (they fail pass 1); columns 15-29 mix
  // two atoms of the old dictionary (pass 1 expresses them).
  Matrix a_new = rng.gaussian_matrix(40, 30);
  for (Index j = 15; j < 30; ++j) {
    std::fill(a_new.col(j).begin(), a_new.col(j).end(), Real{0});
    la::axpy(2, base.dictionary.col(j % 24), a_new.col(j));
    la::axpy(-1, base.dictionary.col((j + 5) % 24), a_new.col(j));
  }

  core::ExdResult exd = base;
  config.dictionary_size = 8;
  const core::EvolveReport report = core::evolve(exd, a_new, config);
  ASSERT_GT(report.reencoded_columns, 0);
  ASSERT_GT(report.expressed_columns, 0);

  const OmpConfig omp{.tolerance = config.tolerance,
                      .max_atoms = config.max_atoms};
  const BatchOmp coder(base.dictionary, omp);
  std::vector<Index> added(static_cast<std::size_t>(report.new_atoms));
  std::iota(added.begin(), added.end(), base.dictionary.cols());
  const BatchOmp recoder(
      exd.dictionary,
      core::extend_gram_bordered(coder.gram(), base.dictionary,
                                 exd.dictionary.select_columns(added)),
      omp);
  const Index old_n = base.coefficients.cols();
  Index recoded = 0;
  for (Index j = 0; j < a_new.cols(); ++j) {
    SparseCode want = coder.encode(a_new.col(j));
    if (want.residual_norm >
        config.tolerance * la::nrm2(a_new.col(j)) * Real{1.001}) {
      want = recoder.encode(a_new.col(j));
      ++recoded;
    }
    expect_column_is_code(exd.coefficients, old_n + j, want);
  }
  EXPECT_EQ(recoded, report.reencoded_columns);
}

TEST(EncodeMany, ServedCodesMatchPerSignalEncode) {
  // Mixed per-request stopping rules in one batch: each served code must be
  // the direct encode under that request's effective config.
  la::Rng rng(112);
  const Matrix dict = rng.gaussian_matrix(16, 40, true);
  const Matrix signals = rng.gaussian_matrix(16, 24);
  const OmpConfig defaults{.tolerance = 0.2, .max_atoms = 0};
  serve::ExtDictServer server(
      dict, {.max_batch = 8, .max_delay_us = 20000, .workers = 1,
             .omp = defaults});
  std::vector<serve::EncodeOptions> options;
  std::vector<std::future<serve::EncodeResult>> futures;
  for (Index j = 0; j < signals.cols(); ++j) {
    serve::EncodeOptions o;
    if (j % 3 == 1) o.tolerance = 0.05;
    if (j % 4 == 2) o.max_atoms = 3;
    options.push_back(o);
    futures.push_back(server.submit(signals.col(j), o));
  }
  const BatchOmp coder(dict, defaults);
  Index batched = 0;
  for (Index j = 0; j < signals.cols(); ++j) {
    const auto i = static_cast<std::size_t>(j);
    const serve::EncodeResult result = futures[i].get();
    if (result.batch_columns > 1) ++batched;
    OmpConfig effective = defaults;
    if (options[i].tolerance >= 0) effective.tolerance = options[i].tolerance;
    if (options[i].max_atoms >= 0) effective.max_atoms = options[i].max_atoms;
    expect_same_code(result.code, coder.encode(signals.col(j), effective));
  }
  EXPECT_GT(batched, 0);
  server.stop();
}

}  // namespace
}  // namespace extdict
