// The paper path, driven through the library's public entry points: ExD
// (Alg. 1) as set-up, then serial LASSO and the top-k power method on the
// transformed Gram operator, then Alg. 2 on an emulated cluster.
#pragma once

#include <cstdint>
#include <vector>

#include "common.hpp"
#include "core/exd.hpp"
#include "la/matrix.hpp"
#include "solvers/power_method.hpp"

namespace perfbench {

/// The learning inputs, generated from the seed before anything is timed.
struct LearnInputs {
  extdict::la::Matrix a;   ///< dataset, unit-norm columns
  extdict::la::Vector y;   ///< LASSO observation (a held-out column)
  extdict::la::Vector x0;  ///< Alg. 2 start vector
};

/// ExD with the workload's (L, ε) and the run's seed; one `core` span.
[[nodiscard]] extdict::core::ExdResult run_exd(const LearnInputs& in,
                                               const Json& cfg,
                                               std::uint64_t seed,
                                               Tracer* tracer);

/// What the measured learning phase leaves behind for the output checks.
struct LearnOutputs {
  extdict::la::Vector lasso_x;
  bool lasso_converged = false;
  std::vector<extdict::la::Real> eigenvalues;
  extdict::la::Vector alg2_y;
  int alg2_iterations = 0;
};

/// One round of a measured pass: the learning calls' wall time per call and
/// CPU time of the process per iteration, and the speed probe's readings:
/// before the learning slice, between its timed calls and before the
/// serving slice.
struct LearnSamples {
  std::vector<double> lasso_s, lasso_iter_cpu_ms, pca_s, pca_iter_cpu_ms,
      alg2_s, alg2_iter_cpu_ms;
  std::vector<SpeedProbe> probes;
  [[nodiscard]] Json json() const;
};

/// Untimed: LASSO and the power method to their stopping tolerances, for
/// the exact iteration counts and the outputs check_learn compares.
void converge_learn(const LearnInputs& in, const extdict::core::ExdResult& exd,
                    const Json& cfg, Counts& counts, Checks& checks,
                    LearnOutputs& out);

/// Repeats fixed-length LASSO and power-method solves and Alg. 2 calls for
/// `budget_s` seconds in total (each at least `min_reps` times) and appends
/// their times to `samples` (null: warm-up, nothing kept).
void measure_learn(const LearnInputs& in, const extdict::core::ExdResult& exd,
                   const Json& cfg, double budget_s, Tracer* tracer,
                   Counts& counts, Checks& checks, LearnOutputs& out,
                   LearnSamples* samples, int min_reps);

/// Untimed checks against references: the dense-Gram LASSO objective and
/// spectrum (within the limits in `reference`), and the serial iterate for
/// Alg. 2.
void check_learn(const LearnInputs& in, const extdict::core::ExdResult& exd,
                 const Json& cfg, const Json& reference,
                 const LearnOutputs& out, Checks& checks);

/// Traced run only: times single calls into `la`, `sparsecoding`, `core`
/// and `dist` at the workload's shapes (spans), and returns the exact counts
/// and model figures the per-layer metrics need.
Json learn_layers(const LearnInputs& in, const extdict::core::ExdResult& exd,
                  const Json& cfg, const extdict::la::Matrix& signals,
                  double budget_s, Tracer* tracer, Counts& counts,
                  Checks& checks);

}  // namespace perfbench
