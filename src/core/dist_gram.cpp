#include "core/dist_gram.hpp"

#include <cmath>
#include <numeric>

#include "la/blas.hpp"
#include "util/contracts.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace extdict::core {

namespace {

// Observability span names (docs/ARCHITECTURE.md "Observability"): every
// rank's whole SPMD body is `kSpanRank`; the three phase spans partition it
// up to the per-rank setup, so their sums stay within tolerance of the
// rank-total sum (metrics_test pins that invariant end to end).
constexpr std::string_view kSpanRank = "dist_gram.rank";
constexpr std::string_view kSpanUpdate = "dist_gram.update";
constexpr std::string_view kSpanNormalize = "dist_gram.normalize";
constexpr std::string_view kSpanGather = "dist_gram.gather";

std::uint64_t range_nnz(const CscMatrix& c, Index j0, Index j1) {
  std::uint64_t nnz = 0;
  for (Index j = j0; j < j1; ++j) nnz += static_cast<std::uint64_t>(c.col_nnz(j));
  return nnz;
}

// Normalises the distributed vector x (owned in slices) to unit norm; the
// norm exchange is tiny but still metered. Keeps iterated updates bounded.
void normalize_distributed(dist::Communicator& comm, std::span<Real> local) {
  Real ss = la::dot(local, local);
  comm.cost().add_flops(2 * local.size());
  ss = comm.allreduce_sum_scalar(ss);
  const Real norm = std::sqrt(ss);
  if (norm > Real{0}) {
    la::scal(1 / norm, local);
    comm.cost().add_flops(local.size());
  }
}

}  // namespace

DistGramResult dist_gram_apply(const dist::Cluster& cluster, const Matrix& d,
                               const CscMatrix& c, const la::Vector& x0,
                               int iterations, GramStrategy strategy) {
  EXTDICT_REQUIRE_SHAPE(c.rows() == d.cols(),
                        "dist_gram_apply: D/C shape mismatch");
  EXTDICT_REQUIRE_SHAPE(static_cast<Index>(x0.size()) == c.cols(),
                        "dist_gram_apply: x size mismatch");
  EXTDICT_CHECK_FINITE(std::span<const Real>(x0), "dist_gram_apply: x0");
  const Index m = d.rows();
  const Index l = d.cols();
  const Index n = c.cols();
  if (strategy == GramStrategy::kAuto) {
    strategy = l > m ? GramStrategy::kReplicatedDictionary
                     : GramStrategy::kPartitionedDictionary;
  }
  const Index p = cluster.topology().total();
  const ColumnPartition part{n, p};
  const ColumnPartition row_part{m, p};  // D's rows for the partitioned mode

  DistGramResult result;
  result.iterations = iterations;
  result.y.assign(static_cast<std::size_t>(n), Real{0});

  // Per-rank Gram-update FLOPs (each rank writes only its slot; summed after
  // the join, same publication pattern as Cluster::run's per_rank stats).
  std::vector<std::uint64_t> update_flops_per_rank(
      static_cast<std::size_t>(p), 0);
  util::MetricsRegistry& metrics = util::MetricsRegistry::global();

  dist::RunStats stats = cluster.run([&](dist::Communicator& comm) {
    const util::SpanTimer rank_span(metrics, kSpanRank);
    const util::TraceScope rank_trace(util::TraceRecorder::global(),
                                      kSpanRank);
    const Index rank = comm.rank();
    const Index b = part.begin(rank);
    const Index e = part.end(rank);
    const Index local_n = e - b;
    const Index rb = row_part.begin(rank);
    const Index re = row_part.end(rank);
    const Index local_m = re - rb;
    std::uint64_t my_update_flops = 0;
    // Charges FLOPs that belong to the Gram update itself (as opposed to
    // normalisation / collective adds) to both the rank counter and the
    // update tally the cost model is checked against.
    const auto charge_update = [&](std::uint64_t flops) {
      comm.cost().add_flops(flops);
      my_update_flops += flops;
    };

    // Step 0: rank i "loads" C_i and its slice of x. In the emulation the
    // slices are views into shared memory; the footprint is metered as if
    // each rank held its own copy (Eq. 4 accounting).
    la::Vector x_local(x0.begin() + b, x0.begin() + e);
    std::uint64_t resident = range_nnz(c, b, e) * 3 / 2 +
                             static_cast<std::uint64_t>(local_n) +
                             static_cast<std::uint64_t>(local_n + 1);
    switch (strategy) {
      case GramStrategy::kRootDictionary:
        if (rank == 0) {
          resident += static_cast<std::uint64_t>(m) * static_cast<std::uint64_t>(l);
        }
        break;
      case GramStrategy::kReplicatedDictionary:
        resident += static_cast<std::uint64_t>(m) * static_cast<std::uint64_t>(l);
        break;
      case GramStrategy::kPartitionedDictionary:
        resident +=
            static_cast<std::uint64_t>(local_m) * static_cast<std::uint64_t>(l);
        break;
      case GramStrategy::kAuto:
        break;  // resolved above
    }
    comm.cost().record_memory(resident);

    la::Vector v1(static_cast<std::size_t>(l));
    la::Vector v2(static_cast<std::size_t>(m));
    la::Vector v3(static_cast<std::size_t>(l));
    la::Vector v2_local(static_cast<std::size_t>(local_m));

    const std::uint64_t local_nnz = range_nnz(c, b, e);

    for (int it = 0; it < iterations; ++it) {
      {
        const util::SpanTimer update_span(metrics, kSpanUpdate);
        const util::TraceScope update_trace(util::TraceRecorder::global(),
                                            kSpanUpdate, "iteration",
                                            static_cast<std::uint64_t>(it));
        // Step 1: v1_i = C_i x_i.
        std::fill(v1.begin(), v1.end(), Real{0});
        c.spmv_range(b, e, x_local, v1);
        charge_update(2 * local_nnz);

        switch (strategy) {
          case GramStrategy::kRootDictionary: {
            // Alg. 2 Case 1 verbatim: D on rank 0; reduce the L-vector.
            comm.reduce_sum(0, v1);
            if (rank == 0) {
              la::gemv(1, d, v1, 0, v2);    // v2 = D Σ v1
              la::gemv_t(1, d, v2, 0, v3);  // v3 = Dᵀ v2
              charge_update(2 * la::gemv_flops(m, l));
            }
            comm.broadcast(0, std::span<Real>(v3));
            break;
          }
          case GramStrategy::kReplicatedDictionary: {
            // Alg. 2 Case 2: each rank lifts its partial v1 to data space,
            // the M-vector is reduced/broadcast, and the Dᵀ multiply is done
            // redundantly everywhere (step 7).
            la::gemv(1, d, v1, 0, v2);
            charge_update(la::gemv_flops(m, l));
            comm.reduce_sum(0, v2);
            comm.broadcast(0, std::span<Real>(v2));
            la::gemv_t(1, d, v2, 0, v3);
            charge_update(la::gemv_flops(m, l));
            break;
          }
          case GramStrategy::kPartitionedDictionary: {
            // Row-partitioned D: every rank's dense work is 2·(M/P)·L mults —
            // the 2·(M·L + nnz)/P parallelisation the paper's Eq. (2) models.
            comm.allreduce_sum(std::span<Real>(v1));  // full Σ v1 everywhere
            // v2 block: rows [rb, re) of D times v1, then the partial Dᵀ
            // product from the owned row block.
            const auto rows = static_cast<std::size_t>(rb);
            const auto count = static_cast<std::size_t>(local_m);
            std::fill(v2_local.begin(), v2_local.end(), Real{0});
            for (Index j = 0; j < l; ++j) {
              const Real w = v1[static_cast<std::size_t>(j)];
              if (w != Real{0}) la::axpy(w, d.col(j).subspan(rows, count), v2_local);
            }
            for (Index j = 0; j < l; ++j) {
              v3[static_cast<std::size_t>(j)] =
                  la::dot(d.col(j).subspan(rows, count), v2_local);
            }
            charge_update(4 * static_cast<std::uint64_t>(local_m) *
                          static_cast<std::uint64_t>(l));
            comm.allreduce_sum(std::span<Real>(v3));
            break;
          }
          case GramStrategy::kAuto:
            break;  // unreachable
        }

        // Step 7: x_i = C_iᵀ v3.
        c.spmv_t_range(b, e, v3, x_local);
        charge_update(2 * local_nnz);
      }
      EXTDICT_CHECK_FINITE(std::span<const Real>(x_local),
                           "dist_gram_apply: x after iteration " +
                               std::to_string(it) + " on rank " +
                               std::to_string(rank));

      {
        const util::SpanTimer normalize_span(metrics, kSpanNormalize);
        const util::TraceScope normalize_trace(util::TraceRecorder::global(),
                                               kSpanNormalize, "iteration",
                                               static_cast<std::uint64_t>(it));
        normalize_distributed(comm, x_local);
      }
    }

    // Collect the distributed result on rank 0.
    const util::SpanTimer gather_span(metrics, kSpanGather);
    const util::TraceScope gather_trace(util::TraceRecorder::global(),
                                        kSpanGather);
    std::vector<Index> counts;
    const la::Vector gathered =
        comm.gather(0, std::span<const Real>(x_local), &counts);
    if (rank == 0) {
      std::copy(gathered.begin(), gathered.end(), result.y.begin());
    }
    update_flops_per_rank[static_cast<std::size_t>(rank)] = my_update_flops;
  });

  result.stats = std::move(stats);
  result.update_flops = std::accumulate(update_flops_per_rank.begin(),
                                        update_flops_per_rank.end(),
                                        std::uint64_t{0});
  metrics.add("dist_gram.update_flops", result.update_flops);
  return result;
}

DistGramResult dist_gram_apply_original(const dist::Cluster& cluster,
                                        const Matrix& a, const la::Vector& x0,
                                        int iterations) {
  EXTDICT_REQUIRE_SHAPE(static_cast<Index>(x0.size()) == a.cols(),
                        "dist_gram_apply_original: x size mismatch");
  const Index m = a.rows();
  const Index n = a.cols();
  const Index p = cluster.topology().total();
  const ColumnPartition part{n, p};

  DistGramResult result;
  result.iterations = iterations;
  result.y.assign(static_cast<std::size_t>(n), Real{0});

  std::vector<std::uint64_t> update_flops_per_rank(
      static_cast<std::size_t>(p), 0);
  util::MetricsRegistry& metrics = util::MetricsRegistry::global();

  dist::RunStats stats = cluster.run([&](dist::Communicator& comm) {
    const util::SpanTimer rank_span(metrics, kSpanRank);
    const util::TraceScope rank_trace(util::TraceRecorder::global(),
                                      kSpanRank);
    const Index rank = comm.rank();
    const Index b = part.begin(rank);
    const Index e = part.end(rank);
    const Index local_n = e - b;
    std::uint64_t my_update_flops = 0;
    const auto charge_update = [&](std::uint64_t flops) {
      comm.cost().add_flops(flops);
      my_update_flops += flops;
    };

    la::Vector x_local(x0.begin() + b, x0.begin() + e);
    comm.cost().record_memory(
        static_cast<std::uint64_t>(m) * static_cast<std::uint64_t>(local_n) +
        static_cast<std::uint64_t>(local_n));

    la::Vector u(static_cast<std::size_t>(m));

    for (int it = 0; it < iterations; ++it) {
      {
        const util::SpanTimer update_span(metrics, kSpanUpdate);
        const util::TraceScope update_trace(util::TraceRecorder::global(),
                                            kSpanUpdate, "iteration",
                                            static_cast<std::uint64_t>(it));
        // u = Σ_i A_i x_i.
        std::fill(u.begin(), u.end(), Real{0});
        for (Index j = b; j < e; ++j) {
          la::axpy(x_local[static_cast<std::size_t>(j - b)], a.col(j), u);
        }
        charge_update(2 * static_cast<std::uint64_t>(m) *
                      static_cast<std::uint64_t>(local_n));
        comm.reduce_sum(0, u);
        comm.broadcast(0, std::span<Real>(u));

        // x_i = A_iᵀ u.
        for (Index j = b; j < e; ++j) {
          x_local[static_cast<std::size_t>(j - b)] = la::dot(a.col(j), u);
        }
        charge_update(2 * static_cast<std::uint64_t>(m) *
                      static_cast<std::uint64_t>(local_n));
      }

      const util::SpanTimer normalize_span(metrics, kSpanNormalize);
      const util::TraceScope normalize_trace(util::TraceRecorder::global(),
                                             kSpanNormalize, "iteration",
                                             static_cast<std::uint64_t>(it));
      normalize_distributed(comm, x_local);
    }

    const util::SpanTimer gather_span(metrics, kSpanGather);
    const util::TraceScope gather_trace(util::TraceRecorder::global(),
                                        kSpanGather);
    std::vector<Index> counts;
    const la::Vector gathered =
        comm.gather(0, std::span<const Real>(x_local), &counts);
    if (rank == 0) {
      std::copy(gathered.begin(), gathered.end(), result.y.begin());
    }
    update_flops_per_rank[static_cast<std::size_t>(rank)] = my_update_flops;
  });

  result.stats = std::move(stats);
  result.update_flops = std::accumulate(update_flops_per_rank.begin(),
                                        update_flops_per_rank.end(),
                                        std::uint64_t{0});
  metrics.add("dist_gram.update_flops", result.update_flops);
  return result;
}

}  // namespace extdict::core
