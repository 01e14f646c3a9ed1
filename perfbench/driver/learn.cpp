#include "learn.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "core/dist_gram.hpp"
#include "core/gram_operator.hpp"
#include "dist/cluster.hpp"
#include "dist/platform.hpp"
#include "la/blas.hpp"
#include "solvers/lasso.hpp"
#include "sparsecoding/batch_omp.hpp"

namespace perfbench {
namespace {

using namespace extdict;
using la::Real;

// Shares of the learning budget among the timed LASSO, power-method and
// Alg. 2 calls.
constexpr double kLassoShare = 0.35;
constexpr double kPcaShare = 0.35;

// The same on every workload: the LASSO penalty, the top-10 power method,
// Alg. 2 at P = 2 (one node of two cores), and the fixed lengths of the
// timed solves. With four ranks on the host's four vCPUs, Alg. 2's CPU time
// follows how busy the other guests of the host are; two ranks keep a
// vCPU free for each.
constexpr Real kLassoLambda = 0.01;
constexpr int kTimedLassoIterations = 100;
constexpr int kEigenpairs = 10;
constexpr Real kPcaTolerance = 1e-7;
constexpr int kPcaMaxIterations = 500;
constexpr int kTimedPcaIterationsPerPair = 8;
constexpr la::Index kAlg2Nodes = 1;
constexpr la::Index kAlg2Cores = 2;
constexpr int kAlg2Iterations = 10;
// A one-trial speed probe reading follows every timed LASSO and power-method
// solve and every eighth Alg. 2 call, so the readings sample the host's
// speed through the learning slice as the timed calls do.
constexpr std::size_t kAlg2CallsPerProbe = 8;

/// Forwards every call to `inner` inside a `core` span, so the solvers'
/// Gram applies show as children of the solver span. Only the traced run
/// wraps its operator.
class TracedOperator final : public core::GramOperator {
 public:
  TracedOperator(const core::GramOperator& inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}
  [[nodiscard]] la::Index dim() const noexcept override { return inner_.dim(); }
  [[nodiscard]] la::Index data_dim() const noexcept override {
    return inner_.data_dim();
  }
  void apply(std::span<const Real> x, std::span<Real> y) const override {
    const Scope span(tracer_, "core.gram_apply");
    inner_.apply(x, y);
  }
  void apply_adjoint(std::span<const Real> v, std::span<Real> y) const override {
    const Scope span(tracer_, "core.apply_adjoint");
    inner_.apply_adjoint(v, y);
  }
  void apply_forward(std::span<const Real> x, std::span<Real> v) const override {
    const Scope span(tracer_, "core.apply_forward");
    inner_.apply_forward(x, v);
  }
  [[nodiscard]] std::uint64_t flops_per_apply() const noexcept override {
    return inner_.flops_per_apply();
  }

 private:
  const core::GramOperator& inner_;
  Tracer* tracer_;
};

solvers::LassoConfig lasso_config(const Json& cfg) {
  const Json& c = cfg.at("lasso");
  solvers::LassoConfig out;
  out.lambda = kLassoLambda;
  out.tolerance = num(c, "tolerance");
  out.max_iterations = static_cast<int>(integer(c, "max_iterations"));
  out.objective_every = 0;
  return out;
}

solvers::PowerConfig power_config(std::uint64_t seed) {
  solvers::PowerConfig out;
  out.num_eigenpairs = kEigenpairs;
  out.tolerance = kPcaTolerance;
  out.max_iterations = kPcaMaxIterations;
  out.seed = seed;
  return out;
}

dist::Cluster alg2_cluster() {
  return dist::Cluster(
      dist::Topology{.nodes = kAlg2Nodes, .cores_per_node = kAlg2Cores});
}

/// Runs `body` at least `min_reps` times, and again while one more run, as
/// long as the last one, still fits in `budget_s`.
template <typename Body>
void repeat_for(double budget_s, int min_reps, Body&& body) {
  const Clock::time_point start = Clock::now();
  double last_s = 0;
  for (int rep = 0;
       rep < min_reps || seconds_since(start) + last_s <= budget_s; ++rep) {
    const Clock::time_point t0 = Clock::now();
    body();
    last_s = seconds_since(t0);
  }
}

Real max_abs(std::span<const Real> v) {
  Real m = 0;
  for (Real x : v) m = std::max(m, std::abs(x));
  return m;
}

}  // namespace

core::ExdResult run_exd(const LearnInputs& in, const Json& cfg,
                        std::uint64_t seed, Tracer* tracer) {
  const Json& c = cfg.at("exd");
  const Scope span(tracer, "core.exd_transform");
  return core::exd_transform(
      in.a, core::ExdConfig{.dictionary_size = integer(c, "atoms"),
                            .tolerance = num(c, "epsilon"),
                            .max_atoms = integer(c, "max_atoms"),
                            .seed = seed});
}

Json LearnSamples::json() const {
  Json out = Json::object();
  out["lasso_s"] = to_json(lasso_s);
  out["lasso_iter_cpu_ms"] = to_json(lasso_iter_cpu_ms);
  out["pca_s"] = to_json(pca_s);
  out["pca_iter_cpu_ms"] = to_json(pca_iter_cpu_ms);
  out["alg2_s"] = to_json(alg2_s);
  out["alg2_iter_cpu_ms"] = to_json(alg2_iter_cpu_ms);
  out["probes"] = Json::array();
  for (const SpeedProbe& p : probes) out["probes"].push_back(p.json());
  return out;
}

void converge_learn(const LearnInputs& in, const core::ExdResult& exd,
                    const Json& cfg, Counts& counts, Checks& checks,
                    LearnOutputs& out) {
  const core::TransformedGramOperator op(exd.dictionary, exd.coefficients);
  solvers::LassoResult lasso = solvers::lasso_solve(op, in.y, lasso_config(cfg));
  counts.set("solvers.lasso_iters", lasso.iterations, checks);
  out.lasso_x = std::move(lasso.x);
  out.lasso_converged = lasso.converged;
  solvers::PowerResult pca = solvers::power_method(op, power_config(29));
  counts.set("solvers.pca_iters", pca.total_iterations(), checks);
  out.eigenvalues = std::move(pca.eigenvalues);
  counts.set("core.flops_per_apply",
             static_cast<double>(op.flops_per_apply()), checks);
}

void measure_learn(const LearnInputs& in, const core::ExdResult& exd,
                   const Json& cfg, double budget_s, Tracer* tracer,
                   Counts& counts, Checks& checks, LearnOutputs& out,
                   LearnSamples* samples, int min_reps) {
  const core::TransformedGramOperator plain(exd.dictionary, exd.coefficients);
  const TracedOperator traced(plain, tracer);
  const core::GramOperator& op =
      tracer != nullptr ? static_cast<const core::GramOperator&>(traced)
                        : plain;
  // Timed solves run a fixed number of iterations (tolerance 0), so every
  // seed times the same work; the converged solves are converge_learn's.
  solvers::LassoConfig lasso = lasso_config(cfg);
  lasso.tolerance = 0;
  lasso.max_iterations = kTimedLassoIterations;
  solvers::PowerConfig power = power_config(29);
  power.tolerance = 0;
  power.max_iterations = kTimedPcaIterationsPerPair;
  const dist::Cluster cluster = alg2_cluster();

  LearnSamples scratch;
  LearnSamples& keep = samples != nullptr ? *samples : scratch;
  repeat_for(budget_s * kLassoShare, min_reps, [&] {
    const Clock::time_point t0 = Clock::now();
    const double cpu0 = process_cpu_s();
    solvers::LassoResult r;
    {
      const Scope span(tracer, "solvers.lasso_solve");
      r = solvers::lasso_solve(op, in.y, lasso);
    }
    keep.lasso_s.push_back(seconds_since(t0));
    keep.lasso_iter_cpu_ms.push_back((process_cpu_s() - cpu0) * 1e3 /
                                     r.iterations);
    keep.probes.push_back(speed_probe(1));
    counts.set("solvers.lasso_timed_iters", r.iterations, checks);
  });
  repeat_for(budget_s * kPcaShare, min_reps, [&] {
    const Clock::time_point t0 = Clock::now();
    const double cpu0 = process_cpu_s();
    solvers::PowerResult r;
    {
      const Scope span(tracer, "solvers.power_method");
      r = solvers::power_method(op, power);
    }
    keep.pca_s.push_back(seconds_since(t0));
    keep.pca_iter_cpu_ms.push_back((process_cpu_s() - cpu0) * 1e3 /
                                   r.total_iterations());
    keep.probes.push_back(speed_probe(1));
    counts.set("solvers.pca_timed_iters", r.total_iterations(), checks);
  });
  repeat_for(budget_s * (1 - kLassoShare - kPcaShare), min_reps, [&] {
    const Clock::time_point t0 = Clock::now();
    const double cpu0 = process_cpu_s();
    core::DistGramResult r;
    {
      const Scope span(tracer, "dist.gram_apply");
      r = core::dist_gram_apply(cluster, exd.dictionary, exd.coefficients,
                                in.x0, kAlg2Iterations);
    }
    keep.alg2_s.push_back(seconds_since(t0));
    // Summed over the emulated ranks, each a thread of this process.
    keep.alg2_iter_cpu_ms.push_back((process_cpu_s() - cpu0) * 1e3 /
                                    kAlg2Iterations);
    if (keep.alg2_s.size() % kAlg2CallsPerProbe == 0) {
      keep.probes.push_back(speed_probe(1));
    }
    counts.set("dist.update_flops_per_iter",
               static_cast<double>(r.update_flops_per_iteration()), checks);
    counts.set("dist.max_rank_words_per_iter",
               static_cast<double>(r.stats.max_rank_words()) / kAlg2Iterations,
               checks);
    out.alg2_y = std::move(r.y);
    out.alg2_iterations = r.iterations;
  });
}

void check_learn(const LearnInputs& in, const core::ExdResult& exd,
                 const Json& cfg, const Json& reference,
                 const LearnOutputs& out, Checks& checks) {
  const Real epsilon = num(cfg.at("exd"), "epsilon");
  checks.add("exd: transformation_error <= epsilon",
             exd.transformation_error <= epsilon,
             fmt("error %.6g, epsilon %.3g", exd.transformation_error, epsilon));

  const core::DenseGramOperator dense(in.a);
  const solvers::LassoConfig lasso = lasso_config(cfg);
  const solvers::LassoResult exact = solvers::lasso_solve(dense, in.y, lasso);
  const Real j_exact = exact.final_objective;
  const Real j_ext =
      solvers::lasso_objective(dense, in.y, out.lasso_x, lasso.lambda);
  const Real gap = std::abs(j_ext - j_exact) / j_exact;
  const Real gap_limit = num(reference, "lasso_objective_rel");
  checks.add("lasso: converged at the stated tolerance", out.lasso_converged,
             fmt("tolerance %.3g", lasso.tolerance));
  checks.add("lasso: objective vs dense reference", gap <= gap_limit,
             fmt("dense %.9g, transformed %.9g, relative gap %.3g (limit %.3g)",
                 j_exact, j_ext, gap, gap_limit));

  const solvers::PowerResult dense_pca =
      solvers::power_method(dense, power_config(29));
  const Real eig_err =
      solvers::eigenvalue_error(out.eigenvalues, dense_pca.eigenvalues);
  const Real eig_limit = num(reference, "eigenvalue_error");
  checks.add("pca: top-k eigenvalues vs dense reference",
             out.eigenvalues.size() == dense_pca.eigenvalues.size() &&
                 eig_err <= eig_limit,
             fmt("normalised cumulative error %.3g (limit %.3g)", eig_err,
                 eig_limit));

  // Alg. 2 normalises x after every Gram update; the serial iterate does the
  // same through the transformed operator.
  const core::TransformedGramOperator op(exd.dictionary, exd.coefficients);
  la::Vector x = in.x0, y(x.size());
  for (int it = 0; it < out.alg2_iterations; ++it) {
    op.apply(x, y);
    const Real norm = la::nrm2(y);
    for (std::size_t i = 0; i < y.size(); ++i) x[i] = y[i] / norm;
  }
  Real diff = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    diff = std::max(diff, std::abs(x[i] - out.alg2_y[i]));
  }
  const Real rel = diff / max_abs(x);
  checks.add("alg2: equals the serial transformed iterate",
             out.alg2_y.size() == x.size() && rel <= 1e-10,
             fmt("max relative difference %.3g after %d iterations", rel,
                 out.alg2_iterations));
}

Json learn_layers(const LearnInputs& in, const core::ExdResult& exd,
                  const Json& cfg, const la::Matrix& signals, double budget_s,
                  Tracer* tracer, Counts& counts, Checks& checks) {
  const la::Matrix& d = exd.dictionary;
  const la::CscMatrix& c = exd.coefficients;
  const double slice = budget_s / 8;
  la::Vector x_m(static_cast<std::size_t>(d.rows()), 1.0);
  la::Vector y_l(static_cast<std::size_t>(d.cols()));
  la::Vector x_n(static_cast<std::size_t>(c.cols()), 1.0);
  la::Vector y_n(static_cast<std::size_t>(c.cols()));

  repeat_for(slice, 5, [&] {
    const Scope span(tracer, "la.gemv_t");
    la::gemv_t(1, d, x_m, 0, y_l);
  });
  repeat_for(slice, 3, [&] {
    const Scope span(tracer, "la.gram");
    const la::Matrix g = la::gram(d);
  });
  repeat_for(slice, 5, [&] {
    {
      const Scope span(tracer, "la.spmv");
      c.spmv(x_n, y_l);
    }
    const Scope span(tracer, "la.spmv_t");
    c.spmv_t(y_l, y_n);
  });

  const Json& exd_cfg = cfg.at("exd");
  const sparsecoding::OmpConfig omp{.tolerance = num(exd_cfg, "epsilon"),
                                    .max_atoms = integer(exd_cfg, "max_atoms")};
  const sparsecoding::BatchOmp coder(d, omp);
  {
    const Scope span(tracer, "sparsecoding.encode_all");
    const la::CscMatrix codes = coder.encode_all(in.a);
    counts.set("sparsecoding.encode_all_nnz", static_cast<double>(codes.nnz()),
               checks);
  }
  // Exact counts over a fixed set of signals, then timed encodes.
  const la::Index probe = std::min<la::Index>(signals.cols(), 256);
  double flops = 0, atoms = 0;
  for (la::Index j = 0; j < probe; ++j) {
    const sparsecoding::SparseCode code = coder.encode(signals.col(j));
    flops += static_cast<double>(code.flops);
    atoms += static_cast<double>(code.nnz());
  }
  counts.set("sparsecoding.flops_per_signal", flops / probe, checks);
  counts.set("sparsecoding.atoms_per_signal", atoms / probe, checks);
  la::Index next = 0;
  repeat_for(slice, 20, [&] {
    const Scope span(tracer, "sparsecoding.encode");
    const sparsecoding::SparseCode code = coder.encode(signals.col(next));
    next = (next + 1) % probe;
  });

  const core::TransformedGramOperator op(d, c);
  const core::DenseGramOperator dense(in.a);
  repeat_for(slice, 5, [&] {
    const Scope span(tracer, "core.gram_apply");
    op.apply(x_n, y_n);
  });
  repeat_for(slice, 5, [&] {
    const Scope span(tracer, "core.dense_apply");
    dense.apply(x_n, y_n);
  });
  counts.set("core.dense_flops_per_apply",
             static_cast<double>(dense.flops_per_apply()), checks);

  // Time-model residual: Alg. 2's measured wall time against the calibrated
  // §VI model's prediction for the same exact counters.
  const dist::Cluster cluster = alg2_cluster();
  dist::PlatformSpec spec = dist::PlatformSpec::idataplex(cluster.topology());
  spec.calibrate_on_host();
  std::vector<double> ratio;
  repeat_for(slice, 5, [&] {
    const Clock::time_point t0 = Clock::now();
    core::DistGramResult r;
    {
      const Scope span(tracer, "dist.gram_apply");
      r = core::dist_gram_apply(cluster, d, c, in.x0, kAlg2Iterations);
    }
    ratio.push_back(seconds_since(t0) / spec.modeled_seconds(r.stats));
  });

  Json out = Json::object();
  out["gemv_t_shape"] = Json(Json::Array{Json(d.rows()), Json(d.cols())});
  out["transformation_error"] = exd.transformation_error;
  out["measured_over_model"] = to_json(ratio);
  return out;
}

}  // namespace perfbench
