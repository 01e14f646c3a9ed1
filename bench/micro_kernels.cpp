// Google-benchmark microbenches for the substrate kernels: dense BLAS,
// sparse products, factorizations, the sparse coder, and the emulated
// cluster's collectives. These are the building blocks whose constants
// shape every figure; run with --benchmark_filter=... to zoom in. The binary
// has its own main: it starts the OpenMP team before the first benchmark.

#include <benchmark/benchmark.h>

#include "core/exd.hpp"
#include "dist/cluster.hpp"
#include "la/blas.hpp"
#include "la/cholesky.hpp"
#include "la/csc_matrix.hpp"
#include "la/qr.hpp"
#include "la/random.hpp"
#include "sparsecoding/batch_omp.hpp"

namespace {

using namespace extdict;

void BM_Gemv(benchmark::State& state) {
  const la::Index n = state.range(0);
  la::Rng rng(1);
  la::Matrix a = rng.gaussian_matrix(n, n);
  la::Vector x(static_cast<std::size_t>(n)), y(static_cast<std::size_t>(n));
  rng.fill_gaussian(x);
  for (auto _ : state) {
    la::gemv(1, a, x, 0, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(la::gemv_flops(n, n)));
}
BENCHMARK(BM_Gemv)->Arg(128)->Arg(512)->Arg(1024);

void BM_Dot(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  la::Rng rng(9);
  la::Vector x(n), y(n);
  rng.fill_gaussian(x);
  rng.fill_gaussian(y);
  for (auto _ : state) benchmark::DoNotOptimize(la::dot(x, y));
  state.SetItemsProcessed(state.iterations() * 2 * static_cast<std::int64_t>(n));
}
// Column lengths of the evolving (M=48) and lightfield (M=1600) dictionaries.
BENCHMARK(BM_Dot)->Arg(48)->Arg(1600);

void BM_GemvTransposed(benchmark::State& state) {
  const la::Index m = state.range(0);
  const la::Index n = state.range(1);
  la::Rng rng(2);
  la::Matrix a = rng.gaussian_matrix(m, n);
  la::Vector x(static_cast<std::size_t>(m)), y(static_cast<std::size_t>(n));
  rng.fill_gaussian(x);
  for (auto _ : state) {
    la::gemv_t(1, a, x, 0, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(la::gemv_flops(m, n)));
}
// Square shapes, then the lightfield (1600x800) and evolving (48x96)
// dictionaries.
BENCHMARK(BM_GemvTransposed)
    ->Args({128, 128})
    ->Args({512, 512})
    ->Args({1024, 1024})
    ->Args({1600, 800})
    ->Args({48, 96});

void BM_Gemm(benchmark::State& state) {
  const la::Index n = state.range(0);
  la::Rng rng(3);
  la::Matrix a = rng.gaussian_matrix(n, n);
  la::Matrix b = rng.gaussian_matrix(n, n);
  la::Matrix c(n, n);
  for (auto _ : state) {
    la::gemm(1, a, la::Trans::kNo, b, la::Trans::kNo, 0, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(la::gemm_flops(n, n, n)));
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

void BM_SpMV(benchmark::State& state) {
  const la::Index rows = 1000, cols = 4000;
  const double density = static_cast<double>(state.range(0)) / 1000.0;
  la::Rng rng(4);
  la::CscMatrix::Builder builder(rows, cols);
  for (la::Index j = 0; j < cols; ++j) {
    for (la::Index i = 0; i < rows; ++i) {
      if (rng.uniform() < density) builder.add(i, rng.gaussian());
    }
    builder.commit_column();
  }
  const la::CscMatrix m = std::move(builder).build();
  la::Vector x(static_cast<std::size_t>(cols)), y(static_cast<std::size_t>(rows));
  rng.fill_gaussian(x);
  for (auto _ : state) {
    m.spmv(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(m.nnz()) * 2);
}
BENCHMARK(BM_SpMV)->Arg(2)->Arg(10)->Arg(50);  // 0.2%, 1%, 5% density

void BM_SpMVTransposed(benchmark::State& state) {
  const la::Index rows = 1000, cols = 4000;
  const double density = static_cast<double>(state.range(0)) / 1000.0;
  la::Rng rng(5);
  la::CscMatrix::Builder builder(rows, cols);
  for (la::Index j = 0; j < cols; ++j) {
    for (la::Index i = 0; i < rows; ++i) {
      if (rng.uniform() < density) builder.add(i, rng.gaussian());
    }
    builder.commit_column();
  }
  const la::CscMatrix m = std::move(builder).build();
  la::Vector w(static_cast<std::size_t>(rows)), y(static_cast<std::size_t>(cols));
  rng.fill_gaussian(w);
  for (auto _ : state) {
    m.spmv_t(w, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(m.nnz()) * 2);
}
BENCHMARK(BM_SpMVTransposed)->Arg(2)->Arg(10)->Arg(50);

void BM_Cholesky(benchmark::State& state) {
  const la::Index n = state.range(0);
  la::Rng rng(6);
  la::Matrix x = rng.gaussian_matrix(n + 8, n);
  la::Matrix g = la::gram(x);
  for (la::Index i = 0; i < n; ++i) g(i, i) += 1.0;
  for (auto _ : state) {
    la::Cholesky chol(g);
    benchmark::DoNotOptimize(&chol);
  }
}
BENCHMARK(BM_Cholesky)->Arg(64)->Arg(128)->Arg(256);

void BM_HouseholderQr(benchmark::State& state) {
  const la::Index n = state.range(0);
  la::Rng rng(7);
  la::Matrix a = rng.gaussian_matrix(2 * n, n);
  for (auto _ : state) {
    la::HouseholderQr qr(a);
    benchmark::DoNotOptimize(&qr);
  }
}
BENCHMARK(BM_HouseholderQr)->Arg(32)->Arg(64)->Arg(128);

void BM_BatchOmpEncode(benchmark::State& state) {
  const la::Index l = state.range(0);
  const la::Index m = 200;
  la::Rng rng(8);
  const la::Matrix dict = rng.gaussian_matrix(m, l, true);
  la::Vector signal(static_cast<std::size_t>(m), 0.0);
  for (int k = 0; k < 5; ++k) {
    la::axpy(rng.gaussian(), dict.col(rng.uniform_index(0, l - 1)), signal);
  }
  const la::Real norm = la::nrm2(signal);
  la::scal(1 / norm, signal);
  const sparsecoding::BatchOmp coder(dict, {.tolerance = 0.05, .max_atoms = 0});
  for (auto _ : state) {
    auto code = coder.encode(signal);
    benchmark::DoNotOptimize(code.entries.data());
  }
}
BENCHMARK(BM_BatchOmpEncode)->Arg(100)->Arg(400)->Arg(1600);

void BM_ClusterBroadcast(benchmark::State& state) {
  const la::Index p = state.range(0);
  const dist::Cluster cluster(dist::Topology{1, p});
  std::vector<la::Real> payload(4096, 1.0);
  for (auto _ : state) {
    cluster.run([&](dist::Communicator& comm) {
      std::vector<la::Real> buf = payload;
      comm.broadcast(0, std::span<la::Real>(buf));
      benchmark::DoNotOptimize(buf.data());
    });
  }
}
BENCHMARK(BM_ClusterBroadcast)->Arg(2)->Arg(8)->Arg(32);

void BM_ClusterAllreduce(benchmark::State& state) {
  const la::Index p = state.range(0);
  const dist::Cluster cluster(dist::Topology{1, p});
  for (auto _ : state) {
    cluster.run([&](dist::Communicator& comm) {
      std::vector<la::Real> buf(1024, static_cast<la::Real>(comm.rank()));
      comm.allreduce_sum(std::span<la::Real>(buf));
      benchmark::DoNotOptimize(buf.data());
    });
  }
}
BENCHMARK(BM_ClusterAllreduce)->Arg(2)->Arg(8)->Arg(32);

}  // namespace

int main(int argc, char** argv) {
  // One untimed parallel region first, so the OpenMP team starts here and not
  // inside the first threaded benchmark.
#pragma omp parallel default(none)
  { benchmark::ClobberMemory(); }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
