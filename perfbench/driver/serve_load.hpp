// The serving path, driven from outside over loopback TCP: a
// `serve::ExtDictServer` behind a `net::Daemon` in this process, and an
// open-loop sender built on `net::connect_to`, `net::append_request` and
// `net::decode_reply`. Each connection has one sender thread that writes
// its requests at their scheduled times and reads replies in between, so a
// slow server never slows the arrivals; each request is timed from the
// moment it was due.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "la/matrix.hpp"
#include "net/daemon.hpp"
#include "net/socket.hpp"
#include "serve/dict_registry.hpp"
#include "serve/server.hpp"

namespace perfbench {

/// Arrival offsets (seconds from the rung's start) of `count` Poisson
/// arrivals at `rate` per second, drawn from `seed` alone.
[[nodiscard]] std::vector<double> arrival_schedule(std::uint64_t seed,
                                                   double rate,
                                                   std::size_t count);

/// The request stream of a run, generated from the seed before set-up.
/// Request k sends pool column sequence[k], plus, when `noise` has columns,
/// `noise_scale` times noise column variant[k] (distinct payloads from a
/// small pool).
struct ServeInputs {
  extdict::la::Matrix signals;         ///< payload pool, one signal a column
  std::vector<extdict::la::Index> sequence;
  extdict::la::Matrix noise;
  std::vector<extdict::la::Index> variant;
  extdict::la::Real noise_scale = 0;
  extdict::la::Matrix extension;       ///< atoms for DictRegistry::extend

  void signal(std::size_t k, std::vector<extdict::la::Real>& out) const;
};

/// Atoms each DictRegistry::extend publishes, under load and when timed
/// alone.
inline constexpr extdict::la::Index kAtomsPerExtend = 2;

/// Traced run only: times eight DictRegistry::extend calls (kAtomsPerExtend
/// atoms each, taken from the request pool) on a scratch registry over
/// `dictionary`.
void time_registry_extend(const extdict::la::Matrix& dictionary,
                          const Json& cfg, const ServeInputs& in,
                          Tracer* tracer);

/// A served deployment: registry (epoch 0), server, daemon on an ephemeral
/// loopback port, and the sender's connections. Built by the timed set-up;
/// every dictionary epoch of the live deployment is kept for the output
/// checks. On a workload that extends the dictionary, `redeploy` gives each
/// round a fresh deployment on the base dictionary, so every round serves
/// on the same dictionary sizes with the same extensions.
class ServeInstance {
 public:
  /// Closed-loop requests that warm each fresh deployment of `redeploy`.
  static constexpr std::size_t kRedeployWarmup = 64;

  ServeInstance(const extdict::la::Matrix& dictionary, const Json& cfg,
                int rounds, std::uint64_t seed, Tracer* tracer);
  ~ServeInstance();
  ServeInstance(const ServeInstance&) = delete;
  ServeInstance& operator=(const ServeInstance&) = delete;

  /// Sends the next `count` requests of the stream one at a time on the
  /// first connection (a closed loop, so the cache sees a fixed order) and
  /// records their exact counts when `counts` is not null.
  void warm_up(const ServeInputs& in, std::size_t count, Counts* counts,
               Checks& checks);

  /// Untimed: retires the live deployment (drain, books, sampled codes) and
  /// builds a fresh one on the base dictionary, warmed by a few requests.
  void redeploy(const ServeInputs& in, Checks& checks);

  /// Runs one round of the rate ladder: every rung in turn, each for its
  /// share of `budget_s` / rounds, on the next requests of the stream.
  /// Rounds interleave with the learning phase, so a noisy stretch of the
  /// host hits a few segments of each rung rather than one rung entirely.
  void run_round(const ServeInputs& in, int round, double budget_s,
                 std::uint64_t seed, Tracer* tracer, Checks& checks);

  /// Every segment run so far with its per-request samples.
  [[nodiscard]] Json report() const;

  /// Retires the live deployment and reports, over every deployment, the
  /// wire and server books and a seeded sample of served codes against
  /// direct encodes.
  void finish(const ServeInputs& in, Checks& checks);

  /// Whether every sender thread so far got its raised priority.
  [[nodiscard]] bool sender_boosted() const noexcept { return sender_boosted_; }

  /// Wall time of each DictRegistry::extend call so far, in ms.
  [[nodiscard]] const std::vector<double>& extend_ms() const noexcept {
    return extend_ms_;
  }

  /// Requests a ladder of `budget_s` seconds over `rounds` rounds sends.
  [[nodiscard]] static std::size_t ladder_requests(const Json& cfg,
                                                   double budget_s,
                                                   int rounds);

 private:
  struct Request;
  struct Segment;
  [[nodiscard]] static std::size_t segment_count(const Json& rung,
                                                 double budget_s, int rounds);
  /// Whether request `id`'s code joins the seeded verification sample.
  [[nodiscard]] bool kept_id(std::size_t id) const;
  void keep_code(std::size_t id, const Request& r,
                 const extdict::sparsecoding::SparseCode& code);
  void deploy(Tracer* tracer);
  /// Stops the live deployment (drain) and records its check verdicts.
  void retire(const ServeInputs& in);
  void note(const char* name, bool ok, std::string detail);
  void extend(const ServeInputs& in, Tracer* tracer);
  void run_segment(const ServeInputs& in, Segment& seg, Tracer* tracer,
                   Checks& checks);

  const Json& cfg_;
  const int rounds_;
  const std::uint64_t seed_;
  const std::uint64_t verify_every_;
  std::vector<extdict::la::Matrix> epochs_;  ///< dictionary of epoch i
  std::shared_ptr<extdict::serve::DictRegistry> registry_;
  std::shared_ptr<extdict::serve::ExtDictServer> server_;
  std::unique_ptr<extdict::net::Daemon> daemon_;
  std::vector<extdict::net::Socket> conns_;
  std::vector<Request> requests_;  ///< every request sent, by id
  std::size_t next_id_ = 0;
  std::size_t deployment_first_ = 0;  ///< first request id of the live one
  int deployments_ = 0;
  std::vector<Segment> segments_;
  std::vector<std::pair<std::size_t, extdict::sparsecoding::SparseCode>>
      kept_codes_;
  extdict::la::Index extension_used_ = 0;
  std::vector<double> extend_ms_;
  struct Verdict {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<Verdict> verdicts_;  ///< per check, over every deployment
  std::size_t verified_ = 0, mismatched_ = 0;
  extdict::la::Real worst_ = 0;
  std::atomic<bool> sender_boosted_{true};
};

}  // namespace perfbench
