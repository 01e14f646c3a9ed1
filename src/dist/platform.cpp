#include "dist/platform.hpp"

#include <algorithm>
#include <vector>

#include "la/blas.hpp"
#include "la/matrix.hpp"
#include "la/random.hpp"
#include "util/timer.hpp"

namespace extdict::dist {

double PlatformSpec::modeled_seconds(const RunStats& stats) const {
  double worst = 0;
  for (const auto& c : stats.per_rank) {
    const double compute = static_cast<double>(c.flops) / flops_per_second;
    const double comm =
        static_cast<double>(c.words_sent_intra + c.words_recv_intra) /
            intra_words_per_second +
        static_cast<double>(c.words_sent_inter + c.words_recv_inter) /
            inter_words_per_second +
        static_cast<double>(c.messages_sent + c.messages_recv) *
            message_latency_seconds;
    worst = std::max(worst, compute + comm);
  }
  return worst;
}

double PlatformSpec::modeled_joules(const RunStats& stats) const {
  double total = 0;
  for (const auto& c : stats.per_rank) {
    total += static_cast<double>(c.flops) * joules_per_flop;
    // Each transfer is counted on both endpoints; halve to charge the wire
    // once.
    total += 0.5 *
             (static_cast<double>(c.words_sent_intra + c.words_recv_intra) *
                  joules_per_intra_word +
              static_cast<double>(c.words_sent_inter + c.words_recv_inter) *
                  joules_per_inter_word);
  }
  return total;
}

PlatformSpec PlatformSpec::idataplex(Topology topo) {
  PlatformSpec spec;
  spec.name = "idataplex-" + topo.name();
  spec.topology = topo;
  return spec;
}

void PlatformSpec::calibrate_on_host() {
  la::Rng rng(42);

  // FLOP rate: the gemv + gemv_t pair of every Gram apply, on an in-cache matrix.
  {
    const la::Index m = 512, n = 512;
    la::Matrix a = rng.gaussian_matrix(m, n);
    la::Vector x(static_cast<std::size_t>(n)), y(static_cast<std::size_t>(m)),
        z(static_cast<std::size_t>(n));
    rng.fill_gaussian(x);
    util::Timer t;
    int reps = 0;
    while (t.elapsed_seconds() < 0.05) {
      la::gemv(1, a, x, 0, y);
      la::gemv_t(1, a, y, 0, z);
      ++reps;
    }
    const double flops = static_cast<double>(reps) * 2 *
                         static_cast<double>(la::gemv_flops(m, n));
    flops_per_second = std::max(1e8, flops / t.elapsed_seconds());
  }

  // Streaming bandwidth: large memcpy-like triad.
  {
    const std::size_t n = 4u << 20;  // 32 MiB of doubles, beyond LLC
    std::vector<la::Real> src(n, 1.0), dst(n, 0.0);
    util::Timer t;
    int reps = 0;
    while (t.elapsed_seconds() < 0.05) {
      for (std::size_t i = 0; i < n; ++i) dst[i] = src[i] + 0.5 * dst[i];
      ++reps;
    }
    const double words = static_cast<double>(reps) * static_cast<double>(n) * 2;
    intra_words_per_second = std::max(1e7, words / t.elapsed_seconds());
  }

  // Keep the preset intra/inter ratio so multi-node shapes stay physical.
  inter_words_per_second = intra_words_per_second / 8.0;
}

std::vector<PlatformSpec> paper_platforms() {
  std::vector<PlatformSpec> specs;
  specs.reserve(std::size(kPaperPlatforms));
  for (const Topology& topo : kPaperPlatforms) {
    specs.push_back(PlatformSpec::idataplex(topo));
  }
  return specs;
}

}  // namespace extdict::dist
