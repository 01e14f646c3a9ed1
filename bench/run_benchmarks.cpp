// Model-verification benchmark driver: closes the model-vs-measurement loop
// and writes it down as machine-checkable JSON.
//
//   run_benchmarks [--quick] [--out DIR] [--trace FILE]
//
// Emits three schema-stable files (validated by tools/validate_bench_json.py,
// run in CI's bench-smoke job):
//
//   BENCH_kernels.json — achieved single-thread GF/s (median and quartiles
//     over repeated, warmed-up runs) of dot, gemv, gemv_t, gemm TN and gram
//     at the lightfield (1600x800) and evolving (48x96) dictionary shapes,
//     next to the old single-accumulator dot as a baseline row, plus the
//     projection-vs-greedy time split of one BatchOmp::encode at 1600x800.
//
//   BENCH_gram_model.json  — the Fig. 8-style sweep: every GramStrategy of
//     Algorithm 2 plus the original AᵀA baseline, across datasets and
//     platforms, with measured {FLOPs, words, time} next to the modeled
//     Eq. (2) quantities. For every Eq. (2)-covered case the metered
//     per-iteration update FLOPs must equal 2 × the model's multiply-add
//     pairs EXACTLY — any drift fails the process (non-zero exit), which is
//     precisely the net that would have caught the 2× work undercount.
//
//   BENCH_solvers.json — LASSO and power-method runs (serial + distributed)
//     with their metered counters and a full metrics-registry snapshot.
//
// --quick runs test-scale datasets on the two smallest platforms (seconds,
// CI-friendly); the default runs bench scale across all paper platforms.
//
// --trace FILE additionally records a per-rank event timeline (solver sweep
// plus a dedicated P=4 Alg. 2 window over every Gram strategy) and exports
// it as Chrome trace-event JSON — open it at ui.perfetto.dev or feed it to
// tools/analyze_trace.py. Any dropped event fails the run: the default ring
// capacity must hold the whole window.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "core/cost_model.hpp"
#include "core/dist_gram.hpp"
#include "core/exd.hpp"
#include "data/datasets.hpp"
#include "dist/platform.hpp"
#include "la/blas.hpp"
#include "la/random.hpp"
#include "sparsecoding/batch_omp.hpp"
#include "solvers/lasso.hpp"
#include "solvers/power_method.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace {

using namespace extdict;
using la::Index;
using la::Real;
using util::Json;

struct Options {
  bool quick = false;
  std::string out_dir = ".";
  std::string trace_path;  // empty: tracing off
};

struct Transform {
  Index l = 0;
  core::ExdResult exd;
};

struct Dataset {
  std::string name;
  la::Matrix a;
  std::vector<Transform> transforms;
};

const char* strategy_name(core::GramStrategy s) {
  switch (s) {
    case core::GramStrategy::kRootDictionary: return "root_dictionary";
    case core::GramStrategy::kReplicatedDictionary: return "replicated_dictionary";
    case core::GramStrategy::kPartitionedDictionary: return "partitioned_dictionary";
    case core::GramStrategy::kAuto: return "auto";
  }
  return "?";
}

// The L sweep: spec grid (every other point) at bench scale, a three-point
// {M/2, M, 2M}-shaped grid clamped to N at test scale so the sweep crosses
// the L = M dispatch boundary even on tiny instances.
std::vector<Index> l_grid(const data::DatasetSpec& spec, const la::Matrix& a,
                          bool quick) {
  std::vector<Index> grid;
  if (quick) {
    for (const Index candidate :
         {std::max<Index>(8, a.rows() / 2), std::min(a.rows(), a.cols() / 2),
          std::min(2 * a.rows(), 2 * a.cols() / 3)}) {
      if (candidate > 0 && candidate <= a.cols()) grid.push_back(candidate);
    }
  } else {
    for (std::size_t i = 0; i < spec.l_grid.size(); i += 2) {
      if (spec.l_grid[i] <= a.cols()) grid.push_back(spec.l_grid[i]);
    }
  }
  std::sort(grid.begin(), grid.end());
  grid.erase(std::unique(grid.begin(), grid.end()), grid.end());
  return grid;
}

std::vector<Dataset> load_datasets(bool quick) {
  std::vector<Dataset> sets;
  for (const auto& spec : data::all_datasets()) {
    Dataset set;
    set.name = spec.name;
    util::Timer t;
    set.a = data::make_dataset(spec.id,
                               quick ? data::Scale::kTest : data::Scale::kBench);
    std::printf("[data] %s: %td x %td (%.1f ms)\n", spec.name.c_str(),
                set.a.rows(), set.a.cols(), t.elapsed_ms());
    for (const Index l : l_grid(spec, set.a, quick)) {
      core::ExdConfig exd;
      exd.dictionary_size = l;
      exd.tolerance = 0.1;
      exd.seed = 8;
      set.transforms.push_back({l, core::exd_transform(set.a, exd)});
    }
    sets.push_back(std::move(set));
  }
  return sets;
}

std::vector<dist::PlatformSpec> platforms(bool quick) {
  auto all = dist::paper_platforms();
  if (quick) all.resize(2);  // 1x1 and 1x4
  return all;
}

Json measured_json(const core::DistGramResult& run, double wall_seconds,
                   const dist::PlatformSpec& platform) {
  Json j = Json::object();
  j["update_flops_per_iteration"] = run.update_flops_per_iteration();
  j["total_flops"] = run.stats.total_flops();
  j["words_total"] = run.stats.total_words();
  j["critical_path_words"] = run.stats.max_rank_words();
  j["peak_memory_words"] = run.stats.max_peak_memory_words();
  j["wall_seconds"] = wall_seconds;
  j["modeled_seconds_from_counters"] = platform.modeled_seconds(run.stats);
  return j;
}

Json modeled_json(const core::UpdateCost& cost, Index p) {
  Json j = Json::object();
  const double work_pairs = cost.flops_per_proc * static_cast<double>(p);
  j["work_pairs"] = work_pairs;               // Eq. (2) work term, total
  j["flops"] = 2.0 * work_pairs;              // 2 FLOPs per multiply-add pair
  j["comm_words"] = cost.comm_words;
  j["time_cost_flop_equiv"] = cost.time_cost;
  j["energy_cost_flop_equiv"] = cost.energy_cost;
  j["memory_words_per_proc"] = cost.memory_words_per_proc;
  return j;
}

// Re-runs the quickest workload with the registry switched on and off and
// reports the delta; documents that the instrumentation is below the noise
// floor of the phases it brackets.
Json instrumentation_overhead(const Dataset& set) {
  const auto& t = set.transforms.front();
  const dist::Cluster cluster(dist::Topology{1, 4});
  const la::Vector x0(static_cast<std::size_t>(set.a.cols()), Real{1});
  constexpr int kReps = 5;
  constexpr int kIters = 4;

  util::MetricsRegistry& metrics = util::MetricsRegistry::global();
  const auto time_reps = [&] {
    std::vector<double> seconds;
    for (int r = 0; r < kReps; ++r) {
      util::Timer timer;
      (void)core::dist_gram_apply(cluster, t.exd.dictionary, t.exd.coefficients,
                                  x0, kIters,
                                  core::GramStrategy::kPartitionedDictionary);
      seconds.push_back(timer.elapsed_seconds());
    }
    std::sort(seconds.begin(), seconds.end());
    return seconds[seconds.size() / 2];  // median
  };

  const double enabled_s = time_reps();
  metrics.set_enabled(false);
  const double disabled_s = time_reps();
  metrics.set_enabled(true);

  Json j = Json::object();
  j["workload"] = set.name + " partitioned dist_gram_apply, " +
                  std::to_string(kIters) + " iterations, P=4, median of " +
                  std::to_string(kReps);
  j["metrics_enabled_seconds"] = enabled_s;
  j["metrics_disabled_seconds"] = disabled_s;
  j["delta_pct"] =
      disabled_s > 0 ? 100.0 * (enabled_s - disabled_s) / disabled_s : 0.0;
  j["note"] =
      "span timers + atomic counters; the delta sits inside run-to-run "
      "scheduler noise for every metered phase (compare the spread of "
      "wall_seconds across cases)";
  return j;
}

int write_file(const std::string& path, const Json& doc) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return 1;
  }
  out << doc.dump(2) << '\n';
  std::printf("[out] %s\n", path.c_str());
  return 0;
}

int run_gram_model(const Options& options, const std::vector<Dataset>& sets) {
  Json doc = Json::object();
  doc["schema_version"] = 1;
  doc["benchmark"] = "bench/run_benchmarks gram-model sweep";
  doc["mode"] = options.quick ? "quick" : "full";
  doc["units"] =
      "work_pairs: multiply-add pairs (the Eq. 2 work term); flops: 2 per "
      "pair, matching dist::CostCounters; time costs in FLOP-equivalents";

  Json cases = Json::array();
  int total_cases = 0, covered_cases = 0, exact_matches = 0;
  constexpr int kIters = 2;

  constexpr core::GramStrategy kStrategies[] = {
      core::GramStrategy::kPartitionedDictionary,
      core::GramStrategy::kRootDictionary,
      core::GramStrategy::kReplicatedDictionary,
  };

  for (const auto& set : sets) {
    const Index m = set.a.rows();
    const Index n = set.a.cols();
    const la::Vector x0(static_cast<std::size_t>(n), Real{1});
    for (const auto& platform : platforms(options.quick)) {
      const Index p = platform.topology.total();
      const dist::Cluster cluster(platform.topology);
      for (const auto& t : set.transforms) {
        const std::uint64_t nnz = t.exd.coefficients.nnz();
        const core::UpdateCost cost =
            core::transformed_update_cost(m, t.l, nnz, n, p, platform);
        for (const core::GramStrategy strategy : kStrategies) {
          util::Timer timer;
          const auto run = core::dist_gram_apply(
              cluster, t.exd.dictionary, t.exd.coefficients, x0, kIters, strategy);
          const double wall = timer.elapsed_seconds();

          // Eq. (2) covers every strategy whose total update work is
          // 2·(M·L + nnz) pairs; the replicated dictionary redoes the dense
          // chain on every rank, so it is covered only at P = 1.
          const bool covered =
              strategy != core::GramStrategy::kReplicatedDictionary || p == 1;
          // work = 2·(M·L + nnz) multiply-add pairs; 2 FLOPs per pair.
          const auto model_flops = static_cast<std::uint64_t>(
              2.0 * cost.flops_per_proc * static_cast<double>(p));
          const std::uint64_t redundancy_flops =
              4 * nnz + 4 * static_cast<std::uint64_t>(m) *
                            static_cast<std::uint64_t>(t.l) *
                            static_cast<std::uint64_t>(p);
          const std::uint64_t expected =
              covered ? model_flops : redundancy_flops;
          const bool exact = run.update_flops_per_iteration() == expected;

          Json c = Json::object();
          c["dataset"] = set.name;
          c["platform"] = platform.name;
          c["strategy"] = strategy_name(strategy);
          c["m"] = m;
          c["l"] = t.l;
          c["n"] = n;
          c["nnz"] = nnz;
          c["p"] = p;
          c["iterations"] = kIters;
          c["measured"] = measured_json(run, wall, platform);
          c["modeled"] = modeled_json(cost, p);
          Json check = Json::object();
          check["covered_by_eq2"] = covered;
          check["expected_flops_per_iteration"] = expected;
          check["flops_match_exact"] = exact;
          c["model_check"] = std::move(check);
          cases.push_back(std::move(c));

          ++total_cases;
          if (covered) ++covered_cases;
          if (exact) ++exact_matches;
        }

        // The original AᵀA baseline on the same dataset/platform.
        {
          util::Timer timer;
          const auto run = core::dist_gram_apply_original(cluster, set.a, x0, kIters);
          const double wall = timer.elapsed_seconds();
          const core::UpdateCost orig = core::original_update_cost(m, n, p, platform);
          const auto model_flops = static_cast<std::uint64_t>(
              2.0 * orig.flops_per_proc * static_cast<double>(p));
          const bool exact = run.update_flops_per_iteration() == model_flops;

          Json c = Json::object();
          c["dataset"] = set.name;
          c["platform"] = platform.name;
          c["strategy"] = "original_ata";
          c["m"] = m;
          c["l"] = 0;
          c["n"] = n;
          c["nnz"] = static_cast<std::uint64_t>(m) * static_cast<std::uint64_t>(n);
          c["p"] = p;
          c["iterations"] = kIters;
          c["measured"] = measured_json(run, wall, platform);
          c["modeled"] = modeled_json(orig, p);
          Json check = Json::object();
          check["covered_by_eq2"] = true;
          check["expected_flops_per_iteration"] = model_flops;
          check["flops_match_exact"] = exact;
          c["model_check"] = std::move(check);
          cases.push_back(std::move(c));

          ++total_cases;
          ++covered_cases;
          if (exact) ++exact_matches;
        }
      }
    }
  }

  doc["cases"] = std::move(cases);
  Json summary = Json::object();
  summary["cases"] = total_cases;
  summary["covered_by_eq2"] = covered_cases;
  summary["exact_flop_matches"] = exact_matches;
  summary["all_cases_match"] = exact_matches == total_cases;
  doc["summary"] = std::move(summary);
  doc["instrumentation_overhead"] = instrumentation_overhead(sets.front());

  const int rc = write_file(options.out_dir + "/BENCH_gram_model.json", doc);
  std::printf("gram model: %d/%d cases match their closed form exactly "
              "(%d Eq. 2-covered)\n",
              exact_matches, total_cases, covered_cases);
  if (exact_matches != total_cases) {
    std::fprintf(stderr,
                 "error: measured update FLOPs diverged from the cost model\n");
    return 1;
  }
  return rc;
}

int run_solvers(const Options& options, const std::vector<Dataset>& sets) {
  util::MetricsRegistry& metrics = util::MetricsRegistry::global();
  metrics.reset();

  Json doc = Json::object();
  doc["schema_version"] = 1;
  doc["benchmark"] = "bench/run_benchmarks solver sweep";
  doc["mode"] = options.quick ? "quick" : "full";
  Json cases = Json::array();

  const auto& set = sets.front();
  const auto& t = set.transforms.front();
  const Index m = set.a.rows();
  const Index n = set.a.cols();

  {  // Serial LASSO through the transformed operator.
    const core::TransformedGramOperator op(t.exd.dictionary, t.exd.coefficients);
    la::Vector y(static_cast<std::size_t>(m), Real{1});
    solvers::LassoConfig config;
    config.lambda = 0.05;
    config.max_iterations = options.quick ? 60 : 200;
    util::Timer timer;
    const auto r = solvers::lasso_solve(op, y, config);
    Json c = Json::object();
    c["solver"] = "lasso_serial_transformed";
    c["dataset"] = set.name;
    c["l"] = t.l;
    Json measured = Json::object();
    measured["iterations"] = r.iterations;
    measured["converged"] = r.converged;
    measured["final_objective"] = r.final_objective;
    measured["wall_seconds"] = timer.elapsed_seconds();
    measured["gram_flops_counter"] = metrics.value("gram_operator.transformed.flops");
    c["measured"] = std::move(measured);
    cases.push_back(std::move(c));
  }

  {  // Distributed LASSO on the 1-node multi-core platform.
    const auto platform = platforms(options.quick).back();
    const dist::Cluster cluster(platform.topology);
    la::Vector y(static_cast<std::size_t>(m), Real{1});
    solvers::LassoConfig config;
    config.lambda = 0.05;
    config.max_iterations = options.quick ? 60 : 200;
    util::Timer timer;
    const auto r = solvers::lasso_solve_distributed(
        cluster, t.exd.dictionary, t.exd.coefficients, y, config);
    Json c = Json::object();
    c["solver"] = "lasso_distributed";
    c["dataset"] = set.name;
    c["l"] = t.l;
    c["platform"] = platform.name;
    Json measured = Json::object();
    measured["iterations"] = r.iterations;
    measured["converged"] = r.converged;
    measured["final_objective"] = r.final_objective;
    measured["wall_seconds"] = timer.elapsed_seconds();
    measured["total_flops"] = r.stats.total_flops();
    measured["words_total"] = r.stats.total_words();
    measured["critical_path_words"] = r.stats.max_rank_words();
    c["measured"] = std::move(measured);
    const core::UpdateCost cost = core::transformed_update_cost(
        m, t.l, t.exd.coefficients.nnz(), n, platform.topology.total(), platform);
    c["modeled_per_update"] = modeled_json(cost, platform.topology.total());
    cases.push_back(std::move(c));
  }

  {  // Distributed power method (PCA), auto strategy dispatch.
    const auto platform = platforms(options.quick).back();
    const dist::Cluster cluster(platform.topology);
    solvers::PowerConfig config;
    config.num_eigenpairs = 2;
    config.max_iterations = options.quick ? 30 : 100;
    util::Timer timer;
    const auto r = solvers::power_method_distributed(
        cluster, t.exd.dictionary, t.exd.coefficients, config);
    Json c = Json::object();
    c["solver"] = "power_method_distributed";
    c["dataset"] = set.name;
    c["l"] = t.l;
    c["platform"] = platform.name;
    Json measured = Json::object();
    Json eigs = Json::array();
    for (const Real v : r.eigenvalues) eigs.push_back(v);
    measured["eigenvalues"] = std::move(eigs);
    Json iters = Json::array();
    for (const int it : r.iterations) iters.push_back(it);
    measured["iterations"] = std::move(iters);
    measured["wall_seconds"] = timer.elapsed_seconds();
    measured["total_flops"] = r.stats.total_flops();
    measured["words_total"] = r.stats.total_words();
    c["measured"] = std::move(measured);
    cases.push_back(std::move(c));
  }

  // Batch-OMP FLOP model check, same contract as the gram-model sweep: the
  // per-encode meter in BatchOmp::encode and the closed form in
  // encode_flops are independent derivations of the same count and must
  // agree EXACTLY on every signal. This net catches the k³-for-solves
  // overcount class of bug (each triangular solve pair is 2s², not k²).
  bool omp_model_ok = true;
  {
    const struct { Index m, l, max_atoms; Real tolerance; } omp_cases[] = {
        {32, 64, 8, 0.0},    // atom-budget stop
        {64, 128, 0, 0.1},   // tolerance stop, deeper runs
    };
    la::Rng rng(29);
    const int signals = options.quick ? 64 : 512;
    for (const auto& spec : omp_cases) {
      const la::Matrix dict = rng.gaussian_matrix(spec.m, spec.l, true);
      const sparsecoding::BatchOmp coder(
          dict, {.tolerance = spec.tolerance, .max_atoms = spec.max_atoms});
      la::Vector signal(static_cast<std::size_t>(spec.m));
      std::uint64_t metered_total = 0, modeled_total = 0;
      int exact = 0, iterations_max = 0;
      util::Timer timer;
      for (int i = 0; i < signals; ++i) {
        rng.fill_gaussian(signal);
        const auto code = coder.encode(signal);
        metered_total += code.flops;
        modeled_total += coder.encode_flops(code.iterations);
        if (code.flops == coder.encode_flops(code.iterations)) ++exact;
        iterations_max = std::max(iterations_max, code.iterations);
      }
      const bool all_exact = exact == signals;
      omp_model_ok = omp_model_ok && all_exact;

      Json c = Json::object();
      c["solver"] = "batch_omp_flop_model";
      c["dataset"] = "synthetic_gaussian";
      c["m"] = spec.m;
      c["l"] = spec.l;
      c["max_atoms"] = static_cast<std::uint64_t>(spec.max_atoms);
      c["tolerance"] = spec.tolerance;
      c["signals"] = signals;
      Json measured = Json::object();
      measured["metered_flops_total"] = metered_total;
      measured["iterations_max"] = iterations_max;
      measured["wall_seconds"] = timer.elapsed_seconds();
      c["measured"] = std::move(measured);
      Json check = Json::object();
      check["modeled_flops_total"] = modeled_total;
      check["exact_matches"] = exact;
      check["flops_match_exact"] = all_exact;
      c["model_check"] = std::move(check);
      cases.push_back(std::move(c));
      std::printf("batch-omp flop model: %d/%d signals exact (m=%td l=%td)\n",
                  exact, signals, spec.m, spec.l);
    }
  }

  doc["cases"] = std::move(cases);
  // The registry as the solvers left it — counters and phase spans together.
  doc["metrics_snapshot"] = metrics.to_json();
  const int rc = write_file(options.out_dir + "/BENCH_solvers.json", doc);
  if (!omp_model_ok) {
    std::fprintf(stderr,
                 "error: metered Batch-OMP FLOPs diverged from "
                 "encode_flops()\n");
    return 1;
  }
  return rc;
}

// --- Kernel sweep (BENCH_kernels.json) -------------------------------------

// The single-accumulator dot that every transposed product ran on before the
// lane kernel, kept here as the baseline row. Not inlined, like the library
// call it stands in for, and opaque so the timed calls are not hoisted.
[[gnu::noipa]] Real dot_single_accumulator(std::span<const Real> x,
                                           std::span<const Real> y) {
  Real s = 0;
  for (std::size_t i = 0; i < x.size(); ++i) s += x[i] * y[i];
  return s;
}

// Median and quartiles of a sample (linear interpolation between ranks).
Json spread_json(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto at = [&](double q) {
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
  };
  Json j = Json::object();
  j["median"] = at(0.5);
  j["q1"] = at(0.25);
  j["q3"] = at(0.75);
  j["iqr"] = at(0.75) - at(0.25);
  j["min"] = v.front();
  j["max"] = v.back();
  return j;
}

// Keeps a result observable so a timed call cannot be dropped.
volatile Real g_sink = 0;
void keep(Real v) { g_sink = v; }

struct Repeated {
  std::vector<double> seconds_per_call;  // one entry per repetition
  int calls_per_rep = 0;
};

// One untimed warm-up repetition that also sizes the batch so a repetition
// lasts at least `rep_seconds`, then `reps` timed repetitions.
template <typename F>
Repeated repeat_timed(F&& call, int reps, double rep_seconds) {
  Repeated r;
  util::Timer pilot;
  int calls = 0;
  while (calls == 0 || pilot.elapsed_seconds() < rep_seconds) {
    call();
    ++calls;
  }
  r.calls_per_rep = calls;
  for (int rep = 0; rep < reps; ++rep) {
    util::Timer t;
    for (int i = 0; i < calls; ++i) call();
    r.seconds_per_call.push_back(t.elapsed_seconds() / calls);
  }
  return r;
}

// repeat_timed for a part and its whole, timed alternately call by call, so
// a change in the host's speed during the run moves both alike and the
// part's share of the whole is not lost in that drift.
template <typename Part, typename Whole>
std::pair<Repeated, Repeated> repeat_interleaved(Part&& part, Whole&& whole,
                                                 int reps, double rep_seconds) {
  Repeated p, w;
  util::Timer pilot;
  int calls = 0;
  while (calls == 0 || pilot.elapsed_seconds() < rep_seconds) {
    part();
    whole();
    ++calls;
  }
  p.calls_per_rep = w.calls_per_rep = calls;
  for (int rep = 0; rep < reps; ++rep) {
    double part_s = 0, whole_s = 0;
    for (int i = 0; i < calls; ++i) {
      util::Timer t;
      part();
      part_s += t.elapsed_seconds();
      t.restart();
      whole();
      whole_s += t.elapsed_seconds();
    }
    p.seconds_per_call.push_back(part_s / calls);
    w.seconds_per_call.push_back(whole_s / calls);
  }
  return {std::move(p), std::move(w)};
}

int run_kernels(const Options& options) {
  const int reps = options.quick ? 9 : 15;
  const double rep_seconds = options.quick ? 0.002 : 0.02;
  constexpr Index kSignals = 32;  // the DᵀX block of the gemm TN row

  Json doc = Json::object();
  doc["schema_version"] = 1;
  doc["benchmark"] = "bench/run_benchmarks kernel sweep";
  doc["mode"] = options.quick ? "quick" : "full";
  doc["units"] =
      "gflops: 2 FLOPs per multiply-add over wall time per call, median and "
      "quartiles over the repetitions after one warm-up repetition; times in "
      "microseconds per call";
  doc["repetitions"] = reps;
  // One core's speed: on a shared host a threaded kernel waits on its slowest
  // thread, so team runs would time the host's scheduler, not the kernel.
#ifdef _OPENMP
  const int team = omp_get_max_threads();
  omp_set_num_threads(1);
#endif
  doc["threads"] = 1;

  const struct { Index m, l; } shapes[] = {{1600, 800}, {48, 96}};
  Json rows = Json::array();
  la::Rng rng(31);
  for (const auto& shape : shapes) {
    const la::Matrix d = rng.gaussian_matrix(shape.m, shape.l, true);
    const la::Matrix signals = rng.gaussian_matrix(shape.m, kSignals);
    const auto m_size = static_cast<std::size_t>(shape.m);
    const auto l_size = static_cast<std::size_t>(shape.l);
    la::Vector x(m_size), xl(l_size), y(l_size), ym(m_size);
    rng.fill_gaussian(x);
    rng.fill_gaussian(xl);
    la::Matrix c(shape.l, kSignals);
    std::vector<std::span<const Real>> pass;  // one pass of the block kernel
    for (Index j = 0; j < static_cast<Index>(la::kSignalsPerPass); ++j) {
      pass.push_back(signals.col(j));
    }
    la::Matrix a0(shape.l, static_cast<Index>(la::kSignalsPerPass));
    const auto um = static_cast<double>(shape.m);
    const auto ul = static_cast<double>(shape.l);
    const std::string name =
        std::to_string(shape.m) + "x" + std::to_string(shape.l);

    const auto row = [&](const char* kernel, double flops, const Repeated& r,
                         bool baseline) {
      std::vector<double> gflops;
      for (const double s : r.seconds_per_call) gflops.push_back(flops / s / 1e9);
      std::vector<double> micros;
      for (const double s : r.seconds_per_call) micros.push_back(s * 1e6);
      Json j = Json::object();
      j["kernel"] = kernel;
      j["shape"] = name;
      j["m"] = shape.m;
      j["l"] = shape.l;
      j["baseline"] = baseline;
      j["flops_per_call"] = flops;
      j["calls_per_rep"] = r.calls_per_rep;
      j["reps"] = static_cast<int>(r.seconds_per_call.size());
      j["gflops"] = spread_json(gflops);
      j["us_per_call"] = spread_json(std::move(micros));
      std::printf("kernels: %-22s %-9s %7.2f GF/s (IQR %.2f)\n", kernel,
                  name.c_str(), j["gflops"]["median"].as_double(),
                  j["gflops"]["iqr"].as_double());
      rows.push_back(std::move(j));
    };

    // dot: one dictionary column against x, both resident in cache.
    const auto col0 = d.col(0);
    row("dot", 2 * um,
        repeat_timed([&] { keep(la::dot(col0, x)); }, reps, rep_seconds), false);
    row("dot_single_accumulator", 2 * um,
        repeat_timed([&] { keep(dot_single_accumulator(col0, x)); }, reps,
                     rep_seconds),
        true);
    row("gemv", 2 * um * ul,
        repeat_timed([&] { la::gemv(1, d, xl, 0, ym); }, reps, rep_seconds), false);
    row("gemv_t", 2 * um * ul,
        repeat_timed([&] { la::gemv_t(1, d, x, 0, y); }, reps, rep_seconds), false);
    row("gemv_t_many", 2 * um * ul * static_cast<double>(pass.size()),
        repeat_timed([&] { la::gemv_t_many(d, pass, a0); }, reps, rep_seconds),
        false);
    row("gemm_tn", 2 * um * ul * static_cast<double>(kSignals),
        repeat_timed(
            [&] { la::gemm(1, d, la::Trans::kYes, signals, la::Trans::kNo, 0, c); },
            reps, rep_seconds),
        false);
    // gram computes the upper triangle: L(L+1)/2 dots of length M.
    row("gram", um * ul * (ul + 1),
        repeat_timed([&] { keep(la::gram(d)(0, 0)); }, reps, rep_seconds),
        false);
  }
  doc["kernels"] = std::move(rows);

  // Projection vs greedy split at the lightfield shape, over the same
  // 5-sparse signals: one served encode (its projection is the one-signal
  // block kernel), and per signal of one encode_many call (its projections
  // are block passes over D).
  {
    const Index m = 1600, l = 800;
    const la::Matrix d = rng.gaussian_matrix(m, l, true);
    const auto five_sparse = [&](Index n) {
      la::Matrix s(m, n);
      for (Index j = 0; j < n; ++j) {
        for (int k = 0; k < 5; ++k) {
          la::axpy(rng.gaussian(), d.col(rng.uniform_index(0, l - 1)), s.col(j));
        }
      }
      return s;
    };
    const la::Matrix signals = five_sparse(64);
    std::vector<std::span<const Real>> spans;
    for (Index j = 0; j < signals.cols(); ++j) spans.push_back(signals.col(j));
    const sparsecoding::BatchOmp coder(d, {.tolerance = 0.05, .max_atoms = 0});
    la::Matrix a0(l, signals.cols());
    double atoms = 0;
    for (const sparsecoding::SparseCode& code : coder.encode_many(spans).codes) {
      atoms += static_cast<double>(code.nnz());
    }
    const auto split_json = [&](const std::pair<Repeated, Repeated>& timed,
                                double per_call) {
      const auto& [projection, encode] = timed;
      std::vector<double> proj_us, encode_us;
      for (std::size_t r = 0; r < projection.seconds_per_call.size(); ++r) {
        proj_us.push_back(projection.seconds_per_call[r] * 1e6 / per_call);
        encode_us.push_back(encode.seconds_per_call[r] * 1e6 / per_call);
      }
      Json split = Json::object();
      split["m"] = m;
      split["l"] = l;
      split["signals"] = signals.cols();
      split["atoms_per_signal"] = atoms / static_cast<double>(signals.cols());
      split["projection_us"] = spread_json(proj_us);
      split["encode_us"] = spread_json(encode_us);
      const double proj_med = split["projection_us"]["median"].as_double();
      const double enc_med = split["encode_us"]["median"].as_double();
      split["greedy_us"] = enc_med - proj_med;
      split["projection_share"] = proj_med / enc_med;
      return split;
    };

    // Each signal is projected, then encoded, before the next one.
    std::size_t next = 0;
    doc["encode_split"] = split_json(
        repeat_interleaved(
            [&] { la::gemv_t(1, d, spans[next], 0, a0.col(0)); },
            [&] {
              keep(static_cast<Real>(coder.encode(spans[next]).nnz()));
              next = (next + 1) % spans.size();
            },
            reps, rep_seconds),
        1);
    doc["encode_many_split"] = split_json(
        repeat_interleaved(
            [&] { la::gemv_t_many(d, spans, a0); },
            [&] {
              keep(static_cast<Real>(coder.encode_many(spans).codes.size()));
            },
            reps, rep_seconds),
        static_cast<double>(signals.cols()));
    for (const char* key : {"encode_split", "encode_many_split"}) {
      Json& split = doc[key];
      std::printf("kernels: %s %.1f us = projection %.1f us + greedy %.1f us "
                  "(share %.2f)\n",
                  key, split["encode_us"]["median"].as_double(),
                  split["projection_us"]["median"].as_double(),
                  split["greedy_us"].as_double(),
                  split["projection_share"].as_double());
    }

    // Alg. 1 step 3 at the lightfield shape: encode_all of 400 signals.
    const la::Matrix many = five_sparse(400);
    const Repeated all = repeat_timed(
        [&] { keep(static_cast<Real>(coder.encode_all(many).nnz())); },
        options.quick ? 9 : 11, 0);
    std::vector<double> all_ms;
    for (const double t : all.seconds_per_call) all_ms.push_back(t * 1e3);
    Json encode_all = Json::object();
    encode_all["m"] = m;
    encode_all["l"] = l;
    encode_all["signals"] = many.cols();
    encode_all["ms"] = spread_json(std::move(all_ms));
    std::printf("kernels: encode_all %lldx%lld, %lld signals: %.1f ms\n",
                static_cast<long long>(m), static_cast<long long>(l),
                static_cast<long long>(many.cols()),
                encode_all["ms"]["median"].as_double());
    doc["encode_all"] = std::move(encode_all);
  }

#ifdef _OPENMP
  omp_set_num_threads(team);
#endif
  return write_file(options.out_dir + "/BENCH_kernels.json", doc);
}

// Dedicated trace window: one P=4 Alg. 2 run per Gram strategy plus the
// original AᵀA baseline, on the smallest dataset/transform. Runs with the
// recorder already enabled (main switches it on before run_solvers), attaches
// the model parameters analyze_trace.py compares against, and exports.
// Dropped events fail the run — the acceptance bar is a complete timeline at
// the default ring capacity.
int run_trace(const Options& options, const std::vector<Dataset>& sets) {
  util::TraceRecorder& trace = util::TraceRecorder::global();
  const auto& set = sets.front();
  const auto& t = set.transforms.front();
  const Index m = set.a.rows();
  const Index n = set.a.cols();
  const std::uint64_t nnz = t.exd.coefficients.nnz();
  // The 1x4 paper platform — P=4 emulated ranks regardless of mode.
  const auto platform = platforms(true).back();
  const Index p = platform.topology.total();
  const dist::Cluster cluster(platform.topology);
  const la::Vector x0(static_cast<std::size_t>(n), Real{1});
  constexpr int kIters = 3;

  constexpr core::GramStrategy kStrategies[] = {
      core::GramStrategy::kRootDictionary,
      core::GramStrategy::kReplicatedDictionary,
      core::GramStrategy::kPartitionedDictionary,
  };
  for (const core::GramStrategy strategy : kStrategies) {
    (void)core::dist_gram_apply(cluster, t.exd.dictionary, t.exd.coefficients,
                                x0, kIters, strategy);
  }
  (void)core::dist_gram_apply_original(cluster, set.a, x0, kIters);
  trace.set_enabled(false);

  Json model = Json::object();
  model["dataset"] = set.name;
  model["m"] = m;
  model["l"] = t.l;
  model["n"] = n;
  model["nnz"] = nnz;
  model["p"] = p;
  model["iterations"] = kIters;
  model["min_m_l"] = std::min(m, t.l);  // the Eq. (2) per-phase word term
  trace.set_metadata("model", std::move(model));
  trace.set_metadata("mode", options.quick ? "quick" : "full");

  const int rc = write_file(options.trace_path, trace.to_chrome_json());
  const std::uint64_t dropped = trace.dropped_events();
  std::printf("trace: %llu events recorded, %llu dropped\n",
              static_cast<unsigned long long>(trace.recorded_events()),
              static_cast<unsigned long long>(dropped));
  if (dropped != 0) {
    std::fprintf(stderr,
                 "error: trace dropped %llu events — raise the ring capacity "
                 "or shrink the traced window\n",
                 static_cast<unsigned long long>(dropped));
    return 1;
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      options.quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      options.out_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      options.trace_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: run_benchmarks [--quick] [--out DIR] "
                   "[--trace FILE]\n");
      return 2;
    }
  }

  std::printf("run_benchmarks (%s mode)\n", options.quick ? "quick" : "full");
  // Kernels first, on a machine the later sweeps have not warmed or loaded.
  const int kernel_rc = run_kernels(options);
  const std::vector<Dataset> sets = load_datasets(options.quick);

  // The gram sweep runs untraced: its 70+ cases would swamp the ring buffers
  // (and the timeline). Tracing covers the solver sweep and the dedicated
  // Alg. 2 window below.
  const int gram_rc = run_gram_model(options, sets);
  if (!options.trace_path.empty()) {
    util::TraceRecorder::global().set_enabled(true);
  }
  const int solver_rc = run_solvers(options, sets);
  const int trace_rc =
      options.trace_path.empty() ? 0 : run_trace(options, sets);
  if (kernel_rc != 0) return kernel_rc;
  if (gram_rc != 0) return gram_rc;
  if (solver_rc != 0) return solver_rc;
  return trace_rc;
}
