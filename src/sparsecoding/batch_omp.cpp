#include "sparsecoding/batch_omp.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "la/blas.hpp"
#include "la/cholesky.hpp"
#include "util/contracts.hpp"
#include "util/metrics.hpp"

namespace extdict::sparsecoding {

// extdict-lint: allow(missing-shape-contract) delegates to the checked constructor
BatchOmp::BatchOmp(const Matrix& dict, OmpConfig config)
    : BatchOmp(dict, la::gram(dict), config) {}

BatchOmp::BatchOmp(const Matrix& dict, Matrix gram, OmpConfig config)
    : dict_(&dict), gram_(std::move(gram)), config_(config) {
  EXTDICT_REQUIRE_SHAPE(
      gram_.rows() == dict.cols() && gram_.cols() == dict.cols(),
      "BatchOmp: supplied Gram is " + std::to_string(gram_.rows()) + "x" +
          std::to_string(gram_.cols()) + " but the dictionary has " +
          std::to_string(dict.cols()) + " columns");
}

namespace {

constexpr auto kBlock = static_cast<Index>(la::kSignalsPerPass);

// One thread's scratch, reused across blocks and signals: the block's
// projections A₀ = DᵀX and the greedy loop's vectors, so once they have
// grown, coding a signal allocates only its code.
struct Workspace {
  Workspace(Index atoms, Index block) : a0(atoms, block) {}
  la::Matrix a0;
  la::Vector alpha, beta, gamma, g_new;
  std::vector<Index> selected;
  std::vector<bool> used;
  la::ProgressiveCholesky chol{1};
};

// The greedy Batch-OMP loop for one signal, from its projection
// alpha0 = Dᵀx and energy eps0 = <x, x> > 0. `code.flops` arrives holding
// the energy's charge.
void pursue(const Matrix& gram, std::span<const Real> alpha0, Real eps0,
            Index max_atoms, Real tolerance, Workspace& ws, SparseCode& code) {
  const auto l = static_cast<Index>(alpha0.size());
  const auto ul = static_cast<std::uint64_t>(l);
  // Exact FLOP meter (2 FLOPs per multiply-add, matching la/blas.hpp's
  // gemv_flops/gemm_flops convention). Each kernel call below charges its
  // actual runtime size so `code.flops` is the true count even on runs with
  // dependent-atom rejections; on clean runs it equals `encode_flops(k)`.
  std::uint64_t flops = code.flops;
  // Stop when ||r||² <= (ε ||x||)².
  const Real target_sq = tolerance * tolerance * eps0;

  // alpha = Dᵀ r maintained via the Gram.
  ws.alpha.assign(alpha0.begin(), alpha0.end());
  ws.beta.resize(alpha0.size());
  ws.used.assign(alpha0.size(), false);
  ws.selected.clear();
  ws.chol.reset(max_atoms);
  la::Vector& alpha = ws.alpha;
  la::Vector& beta = ws.beta;
  la::Vector& gamma = ws.gamma;  // coefficients on the selection
  la::Vector& g_new = ws.g_new;  // G(selected, k) scratch
  std::vector<Index>& selected = ws.selected;
  std::vector<bool>& used = ws.used;
  Real eps = eps0;
  std::uint64_t n_used = 0;  // `used` flags set, for the scan charge

  while (eps > target_sq && static_cast<Index>(selected.size()) < max_atoms) {
    Index best = -1;
    Real best_abs = 0;
    flops += ul - n_used;  // argmax scan touches each unused candidate once
    for (Index j = 0; j < l; ++j) {
      if (used[static_cast<std::size_t>(j)]) continue;
      const Real a = std::abs(alpha[static_cast<std::size_t>(j)]);
      if (a > best_abs) {
        best_abs = a;
        best = j;
      }
    }
    if (best < 0 || best_abs <= 1e-14 * std::sqrt(eps0)) break;

    // Grow the Cholesky factor of G(selected, selected).
    const Index k = static_cast<Index>(selected.size());
    g_new.resize(static_cast<std::size_t>(k));
    for (Index a = 0; a < k; ++a) {
      g_new[static_cast<std::size_t>(a)] =
          gram(selected[static_cast<std::size_t>(a)], best);
    }
    // ProgressiveCholesky::append at size k: forward solve L w = g_new
    // (k² + 2k multiply-adds incl. the squared-sum accumulation) plus the
    // Schur complement and its square root. Charged whether or not the
    // pivot check accepts the atom — the solve ran either way.
    const auto uk = static_cast<std::uint64_t>(k);
    flops += uk * uk + 2 * uk + 2;
    if (!ws.chol.append(g_new, gram(best, best))) {
      // Linearly dependent atom — exclude it and keep searching.
      used[static_cast<std::size_t>(best)] = true;
      alpha[static_cast<std::size_t>(best)] = 0;
      ++n_used;
      continue;
    }
    used[static_cast<std::size_t>(best)] = true;
    ++n_used;
    selected.push_back(best);
    ++code.iterations;

    // gamma = G(S,S)⁻¹ alpha0(S).
    const Index ks = static_cast<Index>(selected.size());
    gamma.resize(static_cast<std::size_t>(ks));
    for (Index a = 0; a < ks; ++a) {
      gamma[static_cast<std::size_t>(a)] =
          alpha0[static_cast<std::size_t>(selected[static_cast<std::size_t>(a)])];
    }
    ws.chol.solve_in_place(gamma);
    // Forward + back substitution at size s: s² multiply-adds each → 2s².
    flops += 2 * static_cast<std::uint64_t>(ks) * static_cast<std::uint64_t>(ks);
    EXTDICT_ASSERT(util::first_non_finite(gamma) < 0,
                   "BatchOmp::encode: non-finite coefficient after atom " +
                       std::to_string(best));

    // alpha = alpha0 - G(:,S) gamma; residual energy via the normal
    // equations: ||r||² = ||x||² - alpha0(S)ᵀ gamma.
    std::copy(alpha0.begin(), alpha0.end(), beta.begin());
    for (Index a = 0; a < ks; ++a) {
      const Index atom = selected[static_cast<std::size_t>(a)];
      const Real ga = gamma[static_cast<std::size_t>(a)];
      if (ga == Real{0}) continue;
      la::axpy(-ga, gram.col(atom), beta);
      flops += 2 * ul;
    }
    alpha = beta;
    for (const Index s : selected) alpha[static_cast<std::size_t>(s)] = 0;

    Real fit = 0;
    for (Index a = 0; a < ks; ++a) {
      fit += gamma[static_cast<std::size_t>(a)] *
             alpha0[static_cast<std::size_t>(selected[static_cast<std::size_t>(a)])];
    }
    flops += 2 * static_cast<std::uint64_t>(ks);  // the fit dot product
    eps = std::max(Real{0}, eps0 - fit);
  }

  code.entries.reserve(selected.size());
  for (std::size_t a = 0; a < selected.size(); ++a) {
    code.entries.emplace_back(selected[a], gamma[a]);
  }
  code.residual_norm = std::sqrt(eps);
  code.flops = flops;
}

// Codes one block of at most kBlock signals, under `fallback` when `configs`
// is empty: each is checked on its own, the block is projected in one pass
// over D, then each runs its greedy loop. A throw fills only its own
// signal's error slot.
void encode_block(const Matrix& dict, const Matrix& gram,
                  std::span<const std::span<const Real>> signals,
                  std::span<const OmpConfig> configs,
                  const OmpConfig& fallback, Workspace& ws, SparseCode* codes,
                  std::exception_ptr* errors) {
  const Index m = dict.rows();
  const Index l = dict.cols();
  const auto um = static_cast<std::uint64_t>(m);
  std::span<const Real> projected[la::kSignalsPerPass];
  std::size_t slot[la::kSignalsPerPass] = {};
  Real eps0[la::kSignalsPerPass] = {};
  Index max_atoms[la::kSignalsPerPass] = {};
  std::size_t n_projected = 0;
  for (std::size_t s = 0; s < signals.size(); ++s) {
    try {
      const std::span<const Real> signal = signals[s];
      EXTDICT_REQUIRE_SHAPE(static_cast<Index>(signal.size()) == m,
                            "BatchOmp::encode: |signal|=" +
                                std::to_string(signal.size()) +
                                " but dictionary has " + std::to_string(m) +
                                " rows");
      EXTDICT_CHECK_FINITE(signal, "BatchOmp::encode: signal");
      eps0[s] = la::dot(signal, signal);
      codes[s].flops = 2 * um;  // eps0 = <x, x>
      const Index cap = (configs.empty() ? fallback : configs[s]).max_atoms;
      max_atoms[s] = cap > 0 ? std::min(cap, std::min(m, l)) : std::min(m, l);
      if (eps0[s] != Real{0} && max_atoms[s] != 0) {
        projected[n_projected] = signal;
        slot[n_projected++] = s;
      }
    } catch (...) {
      // E.g. a non-finite signal tripping EXTDICT_CHECK_FINITE in a checked
      // build: an exception escaping the parallel region would terminate.
      errors[s] = std::current_exception();
    }
  }
  if (n_projected == 0) return;
  // A₀ = DᵀX for the block, computed once; column k is signal slot[k]'s.
  la::gemv_t_many(dict, std::span(projected, n_projected), ws.a0);
  for (std::size_t k = 0; k < n_projected; ++k) {
    const std::size_t s = slot[k];
    try {
      codes[s].flops += 2 * um * static_cast<std::uint64_t>(l);  // Dᵀx
      pursue(gram, ws.a0.col(static_cast<Index>(k)), eps0[s], max_atoms[s],
             (configs.empty() ? fallback : configs[s]).tolerance, ws,
             codes[s]);
    } catch (...) {
      codes[s] = {};
      errors[s] = std::current_exception();
    }
  }
}

}  // namespace

// extdict-lint: allow(missing-shape-contract) delegates to the checked overload
SparseCode BatchOmp::encode(std::span<const Real> signal) const {
  return encode(signal, config_);
}

// extdict-lint: allow(missing-shape-contract) the one-signal case of encode_many, which checks the signal
SparseCode BatchOmp::encode(std::span<const Real> signal,
                            const OmpConfig& config) const {
  return std::move(encode_many({&signal, 1}, {&config, 1}).take_codes().front());
}

std::vector<SparseCode> BatchOmp::Batch::take_codes() && {
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return std::move(codes);
}

BatchOmp::Batch BatchOmp::encode_many(
    std::span<const std::span<const Real>> signals,
    std::span<const OmpConfig> configs) const {
  EXTDICT_REQUIRE_SHAPE(configs.empty() || configs.size() == signals.size(),
                        "BatchOmp::encode_many: " +
                            std::to_string(configs.size()) + " configs for " +
                            std::to_string(signals.size()) + " signals");
  if (signals.empty()) return {};
  const Index n = static_cast<Index>(signals.size());
  std::vector<SparseCode> codes(signals.size());
  std::vector<std::exception_ptr> errors(signals.size());
  const OmpConfig& fallback = config_;  // named, so default(none) can list it
  const Matrix& dict = *dict_;
  const Matrix& gram = gram_;
  const Index blocks = (n + kBlock - 1) / kBlock;
  const Index width = std::min(n, kBlock);
#pragma omp parallel default(none) \
    shared(signals, configs, fallback, dict, gram, codes, errors, n, blocks, \
               width) \
    if (blocks > 1)
  {
    Workspace ws(dict.cols(), width);
#pragma omp for schedule(dynamic)
    for (Index b = 0; b < blocks; ++b) {
      const Index first = b * kBlock;
      const auto at = static_cast<std::size_t>(first);
      const auto count =
          static_cast<std::size_t>(std::min(Index{kBlock}, n - first));
      encode_block(dict, gram, signals.subspan(at, count),
                   configs.empty() ? configs : configs.subspan(at, count),
                   fallback, ws, codes.data() + at, errors.data() + at);
    }
  }
  return {std::move(codes), std::move(errors)};
}

la::CscMatrix BatchOmp::encode_all(const Matrix& signals) const {
  EXTDICT_REQUIRE_SHAPE(signals.rows() == dict_->rows(),
                        "BatchOmp::encode_all: signals have " +
                            std::to_string(signals.rows()) +
                            " rows but dictionary has " +
                            std::to_string(dict_->rows()));
  const Index n = signals.cols();
  const util::SpanTimer span("batch_omp.encode_all");
  std::vector<std::span<const Real>> inputs;
  for (Index j = 0; j < n; ++j) inputs.push_back(signals.col(j));
  std::vector<std::vector<std::pair<Index, Real>>> columns;
  for (SparseCode& code : encode_many(inputs).take_codes()) {
    columns.push_back(std::move(code.entries));
  }
  util::MetricsRegistry::global().add("batch_omp.signals_encoded",
                                      static_cast<std::uint64_t>(n));
  return la::CscMatrix::from_columns(dict_->cols(), columns);
}

std::uint64_t BatchOmp::encode_flops(Index k) const noexcept {
  const auto m = static_cast<std::uint64_t>(dict_->rows());
  const auto l = static_cast<std::uint64_t>(dict_->cols());
  const auto kk = static_cast<std::uint64_t>(k);
  // Mirrors the meter in encode(), summed in closed form over a clean
  // k-iteration run (every append accepted, no exact-zero coefficients).
  // The earlier model charged k·k² = k³ for the triangular solves even
  // though each solve pair is only quadratic (2s² at size s); the correct
  // total is Σ 2s² = k(k+1)(2k+1)/3 ≈ (2/3)k³.
  const std::uint64_t setup = 2 * m + 2 * m * l;  // <x,x> + Dᵀx
  if (kk == 0) return setup;
  // Argmax scans: Σ_{t=0}^{k-1} (L - t).
  const std::uint64_t scans = kk * l - kk * (kk - 1) / 2;
  // Cholesky appends: Σ_{t=0}^{k-1} (t² + 2t + 2).
  const std::uint64_t appends =
      (kk - 1) * kk * (2 * kk - 1) / 6 + kk * (kk - 1) + 2 * kk;
  // Triangular solve pairs: Σ_{s=1}^{k} 2s².
  const std::uint64_t solves = kk * (kk + 1) * (2 * kk + 1) / 3;
  // β updates: Σ_{s=1}^{k} 2·L·s.
  const std::uint64_t betas = l * kk * (kk + 1);
  // Residual-energy fits: Σ_{s=1}^{k} 2s.
  const std::uint64_t fits = kk * (kk + 1);
  return setup + scans + appends + solves + betas + fits;
}

}  // namespace extdict::sparsecoding
