// Benchmark driver: generates one workload's inputs from a seed, runs the
// ExtDict paper path and serving path through the library's public entry
// points, checks every output, and writes the raw samples, exact counts and
// check verdicts as one JSON document. perfbench/run.py turns that document
// into the benchmark's metrics.
//
//   perfbench_driver --config perfbench/config.json --workload NAME
//                    --seed N --seconds S --trace 0|1 --out FILE
//                    [--spans FILE]
//   perfbench_driver --print-schedule --seed N --rate R --count K
#include <omp.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common.hpp"
#include "data/lightfield.hpp"
#include "data/subspace.hpp"
#include "la/random.hpp"
#include "learn.hpp"
#include "serve_load.hpp"

namespace {

using namespace perfbench;
using namespace extdict;
using la::Index;

struct Args {
  std::string config, workload, out, spans;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  bool print_schedule = false;
  double rate = 0;
  std::size_t count = 0;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--print-schedule") {
      a.print_schedule = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--config") a.config = v;
    else if (flag == "--workload") a.workload = v;
    else if (flag == "--out") a.out = v;
    else if (flag == "--spans") a.spans = v;
    else if (flag == "--seed") a.seed = std::stoull(v);
    else if (flag == "--seconds") a.seconds = std::stod(v);
    else if (flag == "--trace") a.trace = v == "1";
    else if (flag == "--rate") a.rate = std::stod(v);
    else if (flag == "--count") a.count = std::stoull(v);
    else throw std::invalid_argument("unknown flag " + flag);
  }
  return a;
}

la::Matrix columns(const la::Matrix& m, Index first, Index count) {
  la::Matrix out(m.rows(), count);
  std::copy(m.data() + first * m.rows(), m.data() + (first + count) * m.rows(),
            out.data());
  return out;
}

/// Zipf-distributed pool columns: rank r is drawn with weight 1/(r+1)^s and
/// ranks map to columns through a seeded permutation.
std::vector<Index> zipf_sequence(std::size_t n, Index pool, double s,
                                 la::Rng& rng) {
  std::vector<double> weights(static_cast<std::size_t>(pool));
  for (Index r = 0; r < pool; ++r) {
    weights[static_cast<std::size_t>(r)] = 1 / std::pow(r + 1.0, s);
  }
  std::discrete_distribution<Index> rank(weights.begin(), weights.end());
  const std::vector<Index> column = rng.permutation(pool);
  std::vector<Index> out(n);
  for (Index& c : out) c = column[static_cast<std::size_t>(rank(rng.engine()))];
  return out;
}

/// Generates the learning dataset and the request stream. `requests` is the
/// number of requests the run sends; `extension_atoms` the atoms its
/// extensions publish.
void make_inputs(const Json& cfg, std::uint64_t seed, std::size_t requests,
                 Index extension_atoms, LearnInputs& learn,
                 ServeInputs& serve) {
  const Json& data = cfg.at("data");
  const std::string kind = data.at("kind").as_string();
  const Index n = integer(data, "columns");
  la::Rng rng(seed * 0x2545f4914f6cdd1dULL + 1);
  if (kind == "lightfield") {
    // Every request payload is distinct, so nothing repeats and the encode
    // cache has nothing to give: a held-out patch (from another generator
    // seed) plus a small noise vector that changes with each pass over the
    // patch pool.
    data::LightFieldConfig lf;
    lf.scene_size = integer(data, "scene");
    lf.views = integer(data, "views");
    lf.patch = integer(data, "patch");
    lf.disparity = num(data, "disparity");
    lf.view_gain_jitter = num(data, "gain_jitter");
    lf.noise_stddev = num(data, "noise");
    lf.num_patches = n;
    lf.seed = seed;
    learn.a = data::make_light_field(lf).a;
    const Index pool = integer(data, "pool");
    lf.num_patches = pool + 1;
    lf.seed = seed + 0x9e3779b9ULL;
    la::Matrix held_out = data::make_light_field(lf).a;
    learn.y.assign(held_out.col(0).begin(), held_out.col(0).end());
    serve.signals = columns(held_out, 1, pool);
    const Index passes = static_cast<Index>(requests) / pool + 1;
    serve.noise = la::Matrix(held_out.rows(), passes);
    rng.fill_gaussian(std::span<la::Real>(
        serve.noise.data(), static_cast<std::size_t>(held_out.rows() * passes)));
    serve.noise_scale = num(data, "request_noise") /
                        std::sqrt(static_cast<double>(held_out.rows()));
    serve.sequence.resize(requests);
    serve.variant.resize(requests);
    for (std::size_t k = 0; k < requests; ++k) {
      serve.sequence[k] = static_cast<Index>(k) % pool;
      serve.variant[k] = static_cast<Index>(k) / pool;
    }
  } else if (kind == "subspace") {
    // Requests repeat on a Zipf law over a pool larger than the cache, and
    // extensions come from subspaces the first dictionary has never seen.
    const Index pool = integer(data, "pool");
    data::SubspaceModelConfig sc;
    sc.ambient_dim = integer(data, "ambient");
    sc.num_subspaces = integer(data, "subspaces");
    sc.subspace_dim = integer(data, "subspace_dim");
    sc.noise_stddev = num(data, "noise");
    sc.num_columns = n + 1 + pool;
    sc.seed = seed;
    const la::Matrix all = data::make_union_of_subspaces(sc).a;
    learn.a = columns(all, 0, n);
    learn.y.assign(all.col(n).begin(), all.col(n).end());
    serve.signals = columns(all, n + 1, pool);
    serve.sequence = zipf_sequence(requests, pool, num(data, "zipf"), rng);
    sc.num_columns = std::max<Index>(extension_atoms, 1);
    sc.seed = seed + 0x9e3779b9ULL;
    serve.extension = data::make_union_of_subspaces(sc).a;
  } else {
    throw std::invalid_argument("unknown data kind " + kind);
  }
  learn.x0.resize(static_cast<std::size_t>(learn.a.cols()));
  rng.fill_gaussian(learn.x0);
}

Json read_json(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot read " + path);
  std::stringstream ss;
  ss << f.rdbuf();
  return Json::parse(ss.str());
}

/// One measured pass of `budget_s` seconds: rounds that each run a slice of
/// the learning phase and then one round of the serving ladder. A workload
/// that extends the dictionary serves each round on a fresh deployment of
/// the base dictionary. The samples stay in `learn` (one entry per round)
/// and `inst` until the report is written; each slice starts with a speed
/// probe.
void measured_pass(const LearnInputs& li, const core::ExdResult& exd,
                   const ServeInputs& si, ServeInstance& inst,
                   const Json& config, const Json& cfg, double budget_s,
                   std::uint64_t seed, Tracer* tracer, Counts& counts,
                   Checks& checks, LearnOutputs& lo,
                   std::vector<LearnSamples>& learn) {
  const double learn_share = num(config, "learn_share");
  const int rounds = static_cast<int>(integer(config, "rounds"));
  const bool extends = integer(cfg.at("load"), "extends_per_rung") > 0;
  for (int round = 0; round < rounds; ++round) {
    LearnSamples& samples = learn.emplace_back();
    samples.probes.push_back(speed_probe());
    measure_learn(li, exd, cfg, budget_s * learn_share / rounds, tracer,
                  counts, checks, lo, &samples, 1);
    if (extends) inst.redeploy(si, checks);
    samples.probes.push_back(speed_probe());
    inst.run_round(si, round, budget_s * (1 - learn_share), seed, tracer,
                   checks);
  }
}

Json pass_json(bool traced, const std::vector<LearnSamples>& learn,
               const ServeInstance& inst) {
  Json pass = Json::object();
  pass["traced"] = traced;
  pass["learn"] = Json::array();
  for (const LearnSamples& round : learn) pass["learn"].push_back(round.json());
  pass["serve"] = inst.report();
  pass["extend_ms"] = to_json(inst.extend_ms());
  return pass;
}

/// Logs the end of a stage of the run, with the seconds since `start`, to
/// standard error.
void stage(const char* name, Clock::time_point start) {
  std::fprintf(stderr, "perfbench_driver: %-28s done at %7.2f s\n", name,
               seconds_since(start));
}

int run(const Args& args) {
  const Clock::time_point started = Clock::now();
  const Json config = read_json(args.config);
  const Json& cfg = config.at("workloads").at(args.workload);
  const Json& load = cfg.at("load");
  const int rounds = static_cast<int>(integer(config, "rounds"));
  const std::size_t warmup = static_cast<std::size_t>(
      integer(load, "warmup_requests"));
  const int passes = args.trace ? 2 : 1;
  const double pass_s = args.seconds / passes;
  const double serve_s = pass_s * (1 - num(config, "learn_share"));
  // Room for the warm-ups of the per-round deployments too.
  const std::size_t per_pass =
      warmup + ServeInstance::ladder_requests(cfg, serve_s, rounds) +
      rounds * ServeInstance::kRedeployWarmup;
  // Every round of a pass publishes the same extensions.
  const Index extension_atoms =
      static_cast<Index>(load.at("rungs").as_array().size()) *
      integer(load, "extends_per_rung") * kAtomsPerExtend;

  LearnInputs li;
  ServeInputs si;
  make_inputs(cfg, args.seed, per_pass, extension_atoms, li, si);
  stage("inputs", started);

  std::unique_ptr<Tracer> tracer;
  if (args.trace) tracer = std::make_unique<Tracer>();
  Checks checks;
  Counts counts;

  // Set-up and the untimed reference work use every core. The measured
  // phases run OpenMP on one thread: run.py starts the driver with
  // OMP_NUM_THREADS=1, which the server's worker threads inherit, and
  // OMP_WAIT_POLICY=passive, so idle team threads burn no CPU time.
  const int cores = omp_get_num_procs();
  omp_set_num_threads(cores);

  // The first second of parallel work in a process runs slower on the
  // reference host, so ExD runs untimed for a while before set-up is timed.
  core::ExdResult exd;
  const Clock::time_point warm = Clock::now();
  while (seconds_since(warm) < num(cfg, "setup_warmup_s")) {
    exd = run_exd(li, cfg, args.seed, nullptr);
  }

  // Set-up, repeated: ExD (Alg. 1), then server construction (epoch-0
  // Gram), daemon listen and client connects. The last one is kept. Each
  // is timed by the wall clock and by the CPU time of the process.
  std::vector<double> setup_s, setup_cpu_s;
  Json setup_probes = Json::array();
  std::unique_ptr<ServeInstance> inst;
  for (std::int64_t rep = 0; rep < integer(cfg, "setup_repeats"); ++rep) {
    inst.reset();
    setup_probes.push_back(speed_probe().json());
    const Clock::time_point t0 = Clock::now();
    const double cpu0 = process_cpu_s();
    exd = run_exd(li, cfg, args.seed, tracer.get());
    inst = std::make_unique<ServeInstance>(exd.dictionary, cfg, rounds,
                                           args.seed, tracer.get());
    setup_cpu_s.push_back(process_cpu_s() - cpu0);
    setup_s.push_back(seconds_since(t0));
    counts.set("core.nnz_c", static_cast<double>(exd.coefficients.nnz()),
               checks);
  }

  stage("set-up", started);

  // Warm-up: first OpenMP regions, page faults, connections, the cache.
  LearnOutputs lo;
  converge_learn(li, exd, cfg, counts, checks, lo);
  stage("converged solves", started);
  omp_set_num_threads(1);
  measure_learn(li, exd, cfg, 0, nullptr, counts, checks, lo, nullptr, 1);
  inst->warm_up(si, warmup, &counts, checks);
  stage("warm-up", started);

  std::vector<LearnSamples> learn;
  measured_pass(li, exd, si, *inst, config, cfg, pass_s, args.seed, nullptr,
                counts, checks, lo, learn);
  stage("measured pass", started);
  std::unique_ptr<ServeInstance> traced_inst;
  std::vector<LearnSamples> traced_learn;
  if (args.trace) {
    // A fresh deployment, so the traced pass starts from the same
    // dictionary epoch and cache state as the untraced one.
    traced_inst = std::make_unique<ServeInstance>(
        exd.dictionary, cfg, rounds, args.seed, tracer.get());
    traced_inst->warm_up(si, warmup, &counts, checks);
    measured_pass(li, exd, si, *traced_inst, config, cfg, pass_s, args.seed,
                  tracer.get(), counts, checks, lo, traced_learn);
    stage("traced pass", started);
  }
  const std::uint64_t rss_kb = peak_rss_kb();
  Json passes_json = Json::array();
  passes_json.push_back(pass_json(false, learn, *inst));
  if (traced_inst) {
    passes_json.push_back(pass_json(true, traced_learn, *traced_inst));
  }

  inst->finish(si, checks);
  if (traced_inst) traced_inst->finish(si, checks);
  omp_set_num_threads(cores);
  stage("serving checks", started);
  check_learn(li, exd, cfg, config.at("reference"), lo, checks);
  omp_set_num_threads(1);
  stage("learning checks", started);

  Json out = Json::object();
  out["workload"] = args.workload;
  out["seed"] = args.seed;
  out["seconds"] = args.seconds;
  out["trace"] = args.trace;
  Json host = Json::object();
  host["omp_max_threads"] = omp_get_max_threads();
  host["omp_setup_threads"] = cores;
  host["compiler"] = PERFBENCH_COMPILER;
  host["build_type"] = PERFBENCH_BUILD_TYPE;
  host["march_native"] = PERFBENCH_MARCH_NATIVE == 1;
  host["sender_priority_raised"] = inst->sender_boosted();
  out["host"] = std::move(host);
  out["setup_s"] = to_json(setup_s);
  out["setup_cpu_s"] = to_json(setup_cpu_s);
  out["setup_probe"] = std::move(setup_probes);
  out["peak_rss_kb"] = rss_kb;
  out["passes"] = std::move(passes_json);
  if (args.trace) {
    out["layers"] = learn_layers(li, exd, cfg, si.signals,
                                 num(cfg, "layer_seconds"), tracer.get(),
                                 counts, checks);
    time_registry_extend(exd.dictionary, cfg, si, tracer.get());
    stage("layer calls", started);
    out["spans"] = static_cast<std::uint64_t>(tracer->span_count());
    if (!args.spans.empty()) tracer->write_jsonl(args.spans);
  }
  out["counts"] = counts.json();
  out["checks"] = checks.list();
  out["correct"] = checks.ok();

  std::ofstream f(args.out);
  f << out.dump() << "\n";
  if (!f.flush()) throw std::runtime_error("cannot write " + args.out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    if (args.print_schedule) {
      for (double t : arrival_schedule(args.seed, args.rate, args.count)) {
        std::printf("%.17g\n", t);
      }
      return 0;
    }
    if (args.config.empty() || args.workload.empty() || args.out.empty() ||
        args.seconds <= 0) {
      throw std::invalid_argument(
          "usage: perfbench_driver --config FILE --workload NAME --seed N "
          "--seconds S --trace 0|1 --out FILE [--spans FILE]");
    }
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
