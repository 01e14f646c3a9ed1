#include "serve_load.hpp"

#include <poll.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <random>
#include <stdexcept>
#include <thread>

#include "net/protocol.hpp"
#include "sparsecoding/batch_omp.hpp"

namespace perfbench {
namespace {

using namespace extdict;
using la::Index;
using la::Real;

sparsecoding::OmpConfig server_omp(const Json& cfg) {
  const Json& s = cfg.at("server");
  return {.tolerance = num(s, "epsilon"), .max_atoms = integer(s, "max_atoms")};
}

serve::ServerConfig server_config(const Json& cfg) {
  const Json& s = cfg.at("server");
  serve::ServerConfig out;
  out.max_batch = integer(s, "max_batch");
  out.max_delay_us = static_cast<std::uint64_t>(integer(s, "max_delay_us"));
  out.workers = static_cast<int>(integer(s, "workers"));
  out.queue_capacity = static_cast<std::size_t>(integer(s, "queue_capacity"));
  out.backpressure = serve::BackpressurePolicy::kBlock;
  out.omp = server_omp(cfg);
  out.cache_capacity = static_cast<std::size_t>(integer(s, "cache_capacity"));
  out.cache_shards = static_cast<std::size_t>(integer(s, "cache_shards"));
  return out;
}

la::Matrix append_columns(const la::Matrix& left, const la::Matrix& right) {
  la::Matrix out(left.rows(), left.cols() + right.cols());
  std::copy(left.data(), left.data() + left.rows() * left.cols(), out.data());
  std::copy(right.data(), right.data() + right.rows() * right.cols(),
            out.data() + left.rows() * left.cols());
  return out;
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return seconds_between(a, b) * 1e3;
}

std::uint64_t rung_seed(std::uint64_t seed, std::size_t rung) {
  return seed * 0x9e3779b97f4a7c15ULL + 0x632be59bd9b4e019ULL * (rung + 1);
}

// Connections, one sender thread each, and how long a sender waits for the
// last replies of a rung before it counts the rest as lost. One sender keeps
// up with every rate of the ladder and leaves three vCPUs of four to the
// daemon, worker and reply-writer threads.
constexpr std::size_t kConnections = 1;
constexpr double kReplyTimeoutS = 30;

// The sender stands in for clients on other machines, so the server's own
// threads must not delay its arrivals: it wakes on time (no timer slack)
// and runs at a higher priority than the server where the host allows.
constexpr int kSenderNice = -10;

bool prepare_sender_thread() {
  ::prctl(PR_SET_TIMERSLACK, 1UL);
  const auto tid = static_cast<id_t>(::syscall(SYS_gettid));
  return ::setpriority(PRIO_PROCESS, tid, kSenderNice) == 0;
}

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

// Kept small: the open-loop ladder logs one of these per request, and the
// log counts toward the run's peak resident memory.
struct ServeInstance::Request {
  Clock::time_point due, sent, received;
  std::uint64_t span = 0;
  std::uint32_t queue_us = 0, encode_us = 0, epoch = 0, request_bytes = 0;
  std::uint16_t batch_columns = 0;
  net::WireStatus status = net::WireStatus::kOk;
  bool replied = false;
  bool cache_hit = false;
};

/// One rung of the ladder run for one round: requests [first, first +
/// count) at `rate`, and what the main thread saw while it ran.
struct ServeInstance::Segment {
  std::string name;
  int round = 0;
  double rate = 0;
  std::size_t first = 0, count = 0;
  std::uint64_t seed = 0;
  int extends = 0;
  std::uint64_t outstanding_mid = 0, outstanding_end = 0;
  /// CPU time of the process while the segment ran, less its senders'.
  double server_cpu_s = 0;
};

void ServeInputs::signal(std::size_t k, std::vector<Real>& out) const {
  const auto base = signals.col(sequence[k]);
  out.assign(base.begin(), base.end());
  if (noise.cols() == 0) return;
  const auto n = noise.col(variant[k]);
  for (std::size_t i = 0; i < out.size(); ++i) out[i] += noise_scale * n[i];
}

std::vector<double> arrival_schedule(std::uint64_t seed, double rate,
                                     std::size_t count) {
  std::mt19937_64 gen(seed);
  std::exponential_distribution<double> gap(rate);
  std::vector<double> at(count);
  double t = 0;
  for (double& a : at) {
    t += gap(gen);
    a = t;
  }
  return at;
}

ServeInstance::ServeInstance(const la::Matrix& dictionary, const Json& cfg,
                             int rounds, std::uint64_t seed, Tracer* tracer)
    : cfg_(cfg),
      rounds_(rounds),
      seed_(seed),
      verify_every_(static_cast<std::uint64_t>(
          integer(cfg.at("load"), "verify_every"))) {
  epochs_.push_back(dictionary);
  deploy(tracer);
}

ServeInstance::~ServeInstance() {
  conns_.clear();
  daemon_.reset();
  server_.reset();
}

void ServeInstance::deploy(Tracer* tracer) {
  epochs_.resize(1);
  extension_used_ = 0;
  deployment_first_ = next_id_;
  ++deployments_;
  {
    const Scope span(tracer, "serve.registry_build");
    registry_ = std::make_shared<serve::DictRegistry>(epochs_.front(),
                                                      server_omp(cfg_));
  }
  {
    const Scope span(tracer, "serve.server_start");
    server_ =
        std::make_shared<serve::ExtDictServer>(registry_, server_config(cfg_));
  }
  {
    const Scope span(tracer, "net.daemon_listen");
    daemon_ = std::make_unique<net::Daemon>(server_);
  }
  for (std::size_t c = 0; c < kConnections; ++c) {
    const Scope span(tracer, "net.connect");
    conns_.push_back(net::connect_to("127.0.0.1", daemon_->port()));
  }
}

void ServeInstance::redeploy(const ServeInputs& in, Checks& checks) {
  retire(in);
  deploy(nullptr);
  warm_up(in, kRedeployWarmup, nullptr, checks);
}

std::size_t ServeInstance::segment_count(const Json& rung, double budget_s,
                                         int rounds) {
  return static_cast<std::size_t>(std::max(
      1.0, std::round(num(rung, "rate") * num(rung, "share") * budget_s /
                      rounds)));
}

std::size_t ServeInstance::ladder_requests(const Json& cfg, double budget_s,
                                          int rounds) {
  const Json& load = cfg.at("load");
  std::size_t n = 0;
  for (const Json& r : load.at("rungs").as_array()) {
    n += rounds * segment_count(r, budget_s, rounds);
  }
  return n;
}

void ServeInstance::warm_up(const ServeInputs& in, std::size_t count,
                            Counts* counts, Checks& checks) {
  const std::size_t first = next_id_;
  next_id_ += count;
  if (requests_.size() < next_id_) requests_.resize(next_id_);
  const int fd = conns_.front().fd();
  std::vector<std::uint8_t> tx, rx;
  std::uint8_t chunk[1 << 16];
  net::RequestFrame frame;
  std::uint64_t hits = 0, bytes = 0, atoms = 0, failed = 0;
  sparsecoding::SparseCode code;
  for (std::size_t id = first; id < first + count; ++id) {
    Request& r = requests_[id];
    frame.request_id = id;
    in.signal(id, frame.signal);
    tx.clear();
    net::append_request(tx, frame);
    r.due = r.sent = Clock::now();
    if (!net::write_all(fd, tx.data(), tx.size())) {
      throw std::runtime_error("warm-up: connection lost while sending");
    }
    r.request_bytes = static_cast<std::uint32_t>(tx.size());
    for (;;) {
      net::ReplyDecode d = net::decode_reply(rx);
      if (d.status == net::DecodeStatus::kMalformed) {
        throw std::runtime_error("warm-up: malformed reply: " + d.error);
      }
      if (d.status == net::DecodeStatus::kFrame) {
        rx.erase(rx.begin(), rx.begin() + static_cast<std::ptrdiff_t>(d.consumed));
        r.received = Clock::now();
        r.replied = d.frame.request_id == id;
        r.status = d.frame.status;
        r.epoch = static_cast<std::uint32_t>(d.frame.dict_epoch);
        r.cache_hit = d.frame.cache_hit;
        bytes += d.consumed;
        code = std::move(d.frame.code);
        break;
      }
      const std::size_t got = net::read_some(fd, chunk, sizeof(chunk));
      if (got == 0) throw std::runtime_error("warm-up: connection closed");
      rx.insert(rx.end(), chunk, chunk + got);
    }
    failed += r.replied && r.status == net::WireStatus::kOk ? 0 : 1;
    hits += r.cache_hit ? 1 : 0;
    bytes += r.request_bytes;
    atoms += static_cast<std::uint64_t>(code.nnz());
    keep_code(id, r, code);
  }
  note("warm-up: every request answered ok", failed == 0,
       fmt("%llu of %zu failed", static_cast<unsigned long long>(failed),
           count));
  if (counts == nullptr) return;
  const double n = static_cast<double>(count);
  counts->set("net.bytes_per_request", static_cast<double>(bytes) / n, checks);
  counts->set("serve.warmup_cache_hits", static_cast<double>(hits), checks);
  counts->set("serve.warmup_atoms_per_request", static_cast<double>(atoms) / n,
              checks);
}

bool ServeInstance::kept_id(std::size_t id) const {
  return splitmix(seed_ ^ (id * 0xd1b54a32d192ed03ULL)) % verify_every_ == 0;
}

void ServeInstance::keep_code(std::size_t id, const Request& r,
                              const sparsecoding::SparseCode& code) {
  if (r.status == net::WireStatus::kOk && kept_id(id)) {
    kept_codes_.emplace_back(id, code);
  }
}

void ServeInstance::extend(const ServeInputs& in, Tracer* tracer) {
  const Index k = kAtomsPerExtend;
  if (extension_used_ + k > in.extension.cols()) {
    throw std::runtime_error("extension pool exhausted");
  }
  la::Matrix atoms(in.extension.rows(), k);
  for (Index j = 0; j < k; ++j) {
    const auto src = in.extension.col(extension_used_ + j);
    std::copy(src.begin(), src.end(), atoms.col(j).begin());
  }
  extension_used_ += k;
  const Clock::time_point t0 = Clock::now();
  std::uint64_t epoch = 0;
  {
    const Scope span(tracer, "serve.registry_extend");
    epoch = registry_->extend(atoms);
  }
  extend_ms_.push_back(ms_between(t0, Clock::now()));
  epochs_.push_back(append_columns(epochs_.back(), atoms));
  if (epoch + 1 != epochs_.size()) {
    throw std::runtime_error("registry epoch ids are not consecutive");
  }
}

void ServeInstance::run_round(const ServeInputs& in, int round,
                              double budget_s, std::uint64_t seed,
                              Tracer* tracer, Checks& checks) {
  const Json& load = cfg_.at("load");
  const auto& rungs = load.at("rungs").as_array();
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    Segment seg;
    seg.name = rungs[i].at("name").as_string();
    seg.round = round;
    seg.rate = num(rungs[i], "rate");
    seg.count = segment_count(rungs[i], budget_s, rounds_);
    seg.first = next_id_;
    seg.seed = rung_seed(seed, static_cast<std::size_t>(round) * rungs.size() + i);
    seg.extends = static_cast<int>(integer(load, "extends_per_rung"));
    next_id_ += seg.count;
    run_segment(in, seg, tracer, checks);
    segments_.push_back(std::move(seg));
  }
}

void ServeInstance::run_segment(const ServeInputs& in, Segment& rung,
                                Tracer* tracer, Checks& checks) {
  const std::vector<double> offsets =
      arrival_schedule(rung.seed, rung.rate, rung.count);
  if (requests_.size() < rung.first + rung.count) {
    requests_.resize(rung.first + rung.count);
  }
  // Threads start before the first arrival is due.
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  const auto at = [&](double s) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(s));
  };
  for (std::size_t j = 0; j < rung.count; ++j) {
    Request& r = requests_[rung.first + j];
    r = Request{};
    r.due = at(offsets[j]);
  }
  // Request spans for every span_every-th request: enough for the
  // per-request waterfall without a span file of a million lines.
  const auto span_every =
      static_cast<std::size_t>(integer(cfg_.at("load"), "span_every"));
  std::atomic<std::uint64_t> sent{0}, received{0};
  std::atomic<bool> protocol_error{false};
  std::vector<std::vector<std::pair<std::size_t, sparsecoding::SparseCode>>>
      kept_by_conn(conns_.size());

  const auto sender = [&](std::size_t conn) {
    if (!prepare_sender_thread()) sender_boosted_ = false;
    const int fd = conns_[conn].fd();
    const std::size_t stride = conns_.size();
    std::vector<std::uint8_t> tx, rx;
    std::vector<std::uint8_t> chunk(1 << 16);
    net::RequestFrame frame;
    auto& kept = kept_by_conn[conn];
    std::size_t next = conn, got = 0;
    const std::size_t mine = (rung.count + stride - 1 - conn) / stride;
    const Clock::time_point give_up =
        at(offsets.back() + kReplyTimeoutS);
    while (got < mine) {
      Clock::time_point now = Clock::now();
      if (next < rung.count && now >= requests_[rung.first + next].due) {
        const std::size_t id = rung.first + next;
        Request& r = requests_[id];
        r.sent = now;
        frame.request_id = id;
        in.signal(id, frame.signal);
        tx.clear();
        net::append_request(tx, frame);
        if (!net::write_all(fd, tx.data(), tx.size())) {
          protocol_error = true;
          return;
        }
        r.request_bytes = static_cast<std::uint32_t>(tx.size());
        if (tracer != nullptr && id % span_every == 0) {
          r.span = tracer->next_id();
          tracer->record("net.send", r.sent, Clock::now(), r.span, id + 1);
        }
        sent.fetch_add(1, std::memory_order_relaxed);
        next += stride;
        continue;
      }
      if (now >= give_up) return;  // the rest are lost
      const Clock::time_point wake =
          next < rung.count ? requests_[rung.first + next].due : give_up;
      const auto wait = std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::max(wake - now, Clock::duration::zero()));
      const timespec ts{static_cast<time_t>(wait.count() / 1000000000),
                        static_cast<long>(wait.count() % 1000000000)};
      pollfd p{fd, POLLIN, 0};
      if (::ppoll(&p, 1, &ts, nullptr) <= 0) continue;
      const std::size_t n = net::read_some(fd, chunk.data(), chunk.size());
      const Clock::time_point arrived = Clock::now();
      if (n == 0) {
        protocol_error = true;
        return;
      }
      rx.insert(rx.end(), chunk.begin(),
                chunk.begin() + static_cast<std::ptrdiff_t>(n));
      std::size_t pos = 0;
      for (;;) {
        net::ReplyDecode d = net::decode_reply(
            std::span<const std::uint8_t>(rx).subspan(pos));
        if (d.status == net::DecodeStatus::kNeedMore) break;
        const std::uint64_t id = d.frame.request_id;
        if (d.status == net::DecodeStatus::kMalformed || id < rung.first ||
            id >= rung.first + rung.count ||
            (id - rung.first) % stride != conn || requests_[id].replied) {
          protocol_error = true;
          return;
        }
        pos += d.consumed;
        Request& r = requests_[id];
        r.replied = true;
        r.received = arrived;
        r.status = d.frame.status;
        r.queue_us = static_cast<std::uint32_t>(d.frame.queue_micros);
        r.encode_us = static_cast<std::uint32_t>(d.frame.encode_micros);
        r.epoch = static_cast<std::uint32_t>(d.frame.dict_epoch);
        r.batch_columns = static_cast<std::uint16_t>(d.frame.batch_columns);
        r.cache_hit = d.frame.cache_hit;
        if (r.status == net::WireStatus::kOk && kept_id(id)) {
          kept.emplace_back(id, std::move(d.frame.code));
        }
        if (r.span != 0) {
          tracer->record("net.request", r.due, arrived, 0, id + 1, r.span);
        }
        ++got;
        received.fetch_add(1, std::memory_order_relaxed);
      }
      rx.erase(rx.begin(), rx.begin() + static_cast<std::ptrdiff_t>(pos));
    }
  };

  // The server's CPU time is the process's over the segment less the
  // senders', which stand in for clients on other machines.
  std::vector<double> sender_cpu_s(conns_.size());
  const auto timed_sender = [&](std::size_t conn) {
    const double t0 = thread_cpu_s();
    sender(conn);
    sender_cpu_s[conn] = thread_cpu_s() - t0;
  };
  const double cpu0 = process_cpu_s();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < conns_.size(); ++c) {
    threads.emplace_back(timed_sender, c);
  }

  // The main thread samples the backlog at mid-run and when the last
  // arrival is due, and publishes extensions on a fixed schedule.
  const double span_s = offsets.back();
  std::vector<std::pair<double, int>> events{{span_s / 2, 0}, {span_s, 1}};
  for (int e = 1; e <= rung.extends; ++e) {
    events.emplace_back(span_s * e / (rung.extends + 1), 2);
  }
  std::sort(events.begin(), events.end());
  for (const auto& [t, kind] : events) {
    std::this_thread::sleep_until(at(t));
    if (kind == 2) {
      extend(in, tracer);
      continue;
    }
    const std::uint64_t backlog = sent.load() - received.load();
    (kind == 0 ? rung.outstanding_mid : rung.outstanding_end) = backlog;
  }
  for (std::thread& t : threads) t.join();
  rung.server_cpu_s = process_cpu_s() - cpu0;
  for (double c : sender_cpu_s) rung.server_cpu_s -= c;
  for (auto& kept : kept_by_conn) {
    for (auto& entry : kept) kept_codes_.push_back(std::move(entry));
  }
  if (protocol_error) {
    checks.add("wire: replies well-formed and matched to requests", false,
               fmt("rung %s, round %d", rung.name.c_str(), rung.round));
  }
}

Json ServeInstance::report() const {
  Json out = Json::array();
  for (const Segment& seg : segments_) {
    std::vector<double> latency, lateness, queue, encode, batch;
    std::map<std::string, std::uint64_t> statuses;
    std::uint64_t hits = 0, lost = 0, unsent = 0;
    Clock::time_point first = Clock::time_point::max();
    Clock::time_point last = Clock::time_point::min();
    // Latency in due order, one entry per request; -1 marks a request that
    // failed, was lost or was never sent (it misses any latency limit).
    for (std::size_t id = seg.first; id < seg.first + seg.count; ++id) {
      const Request& r = requests_[id];
      const bool ok = r.replied && r.status == net::WireStatus::kOk;
      latency.push_back(ok ? ms_between(r.due, r.received) : -1.0);
      if (r.request_bytes == 0) {
        ++unsent;
        continue;
      }
      lateness.push_back(ms_between(r.due, r.sent));
      if (!r.replied) {
        ++lost;
        continue;
      }
      ++statuses[net::wire_status_name(r.status)];
      first = std::min(first, r.received);
      last = std::max(last, r.received);
      if (!ok) continue;
      queue.push_back(static_cast<double>(r.queue_us) * 1e-3);
      encode.push_back(static_cast<double>(r.encode_us) * 1e-3);
      batch.push_back(r.batch_columns);
      hits += r.cache_hit ? 1 : 0;
    }
    Json status_json = Json::object();
    for (const auto& [name, n] : statuses) status_json[name] = n;

    Json j = Json::object();
    j["name"] = seg.name;
    j["round"] = seg.round;
    j["rate"] = seg.rate;
    j["count"] = static_cast<std::uint64_t>(seg.count);
    j["unsent"] = unsent;
    j["lost"] = lost;
    j["statuses"] = std::move(status_json);
    j["reply_span_s"] =
        first <= last ? seconds_between(first, last) : 0.0;
    j["outstanding_mid"] = seg.outstanding_mid;
    j["outstanding_end"] = seg.outstanding_end;
    j["server_cpu_s"] = seg.server_cpu_s;
    j["cache_hits"] = hits;
    j["latency_ms"] = to_json(latency);
    j["lateness_ms"] = to_json(lateness);
    j["queue_ms"] = to_json(queue);
    j["encode_ms"] = to_json(encode);
    j["batch_columns"] = to_json(batch);
    out.push_back(std::move(j));
  }
  return out;
}

void time_registry_extend(const la::Matrix& dictionary, const Json& cfg,
                          const ServeInputs& in, Tracer* tracer) {
  serve::DictRegistry registry(dictionary, server_omp(cfg));
  const Index k = kAtomsPerExtend;
  la::Matrix atoms(in.signals.rows(), k);
  Index next = 0;
  for (int rep = 0; rep < 8; ++rep) {
    for (Index j = 0; j < k; ++j, next = (next + 1) % in.signals.cols()) {
      const auto src = in.signals.col(next);
      std::copy(src.begin(), src.end(), atoms.col(j).begin());
    }
    const Scope span(tracer, "serve.registry_extend");
    registry.extend(atoms);
  }
}

void ServeInstance::note(const char* name, bool ok, std::string detail) {
  auto it = std::find_if(verdicts_.begin(), verdicts_.end(),
                         [&](const Verdict& v) { return v.name == name; });
  if (it == verdicts_.end()) {
    verdicts_.push_back({name, ok, std::move(detail)});
  } else if (it->ok) {
    // Keep the first failure's detail, else the latest deployment's.
    it->ok = ok;
    it->detail = std::move(detail);
  }
}

void ServeInstance::retire(const ServeInputs& in) {
  daemon_->stop(serve::StopMode::kDrain);
  const serve::ServerStats s = server_->stats();
  const net::DaemonStats d = daemon_->stats();

  std::uint64_t sent = 0, replied = 0, ok = 0;
  for (std::size_t id = deployment_first_; id < next_id_; ++id) {
    const Request& r = requests_[id];
    sent += r.request_bytes > 0 ? 1 : 0;
    replied += r.replied ? 1 : 0;
    ok += r.replied && r.status == net::WireStatus::kOk ? 1 : 0;
  }
  note("wire: every request sent got exactly one reply",
       sent == replied && d.frames_received == sent && d.replies_sent == sent,
       fmt("sent %llu, replied %llu, daemon received %llu, daemon replied %llu",
           static_cast<unsigned long long>(sent),
           static_cast<unsigned long long>(replied),
           static_cast<unsigned long long>(d.frames_received),
           static_cast<unsigned long long>(d.replies_sent)));
  note("daemon: books balance at shutdown",
       d.frames_received == d.invalid_payloads + d.submitted &&
           d.replies_sent + d.reply_write_failures == d.frames_received &&
           d.malformed_closes == 0 && d.connections_refused == 0,
       fmt("frames %llu = invalid %llu + submitted %llu; replies %llu + "
           "write failures %llu",
           static_cast<unsigned long long>(d.frames_received),
           static_cast<unsigned long long>(d.invalid_payloads),
           static_cast<unsigned long long>(d.submitted),
           static_cast<unsigned long long>(d.replies_sent),
           static_cast<unsigned long long>(d.reply_write_failures)));
  note("server: books balance at shutdown",
       s.submitted == s.accepted + s.invalid + s.rejected + s.stopped +
                          s.cache_hits &&
           s.accepted == s.served + s.encode_failed + s.shed + s.discarded &&
           s.columns_encoded == s.served + s.encode_failed &&
           s.submitted == d.submitted && s.served + s.cache_hits == ok,
       fmt("submitted %llu, accepted %llu, cache hits %llu, served %llu, "
           "ok replies %llu",
           static_cast<unsigned long long>(s.submitted),
           static_cast<unsigned long long>(s.accepted),
           static_cast<unsigned long long>(s.cache_hits),
           static_cast<unsigned long long>(s.served),
           static_cast<unsigned long long>(ok)));

  // The seeded sample of served codes (kept_id) against a direct encode on
  // the dictionary of the epoch the reply names.
  std::map<std::uint64_t, std::unique_ptr<sparsecoding::BatchOmp>> coders;
  std::vector<Real> signal;
  for (const auto& [id, code] : kept_codes_) {
    const Request& r = requests_[id];
    ++verified_;
    if (r.epoch >= epochs_.size()) {
      ++mismatched_;
      continue;
    }
    auto& coder = coders[r.epoch];
    if (!coder) {
      coder = std::make_unique<sparsecoding::BatchOmp>(epochs_[r.epoch],
                                                       server_omp(cfg_));
    }
    in.signal(id, signal);
    const sparsecoding::SparseCode direct = coder->encode(signal);
    bool same = direct.nnz() == code.nnz();
    for (Index k = 0; same && k < direct.nnz(); ++k) {
      const auto& [ia, va] = direct.entries[static_cast<std::size_t>(k)];
      const auto& [ib, vb] = code.entries[static_cast<std::size_t>(k)];
      const Real diff = std::abs(va - vb) / std::max(Real{1}, std::abs(va));
      worst_ = std::max(worst_, diff);
      same = ia == ib && diff <= 1e-12;
    }
    mismatched_ += same ? 0 : 1;
  }
  kept_codes_.clear();
  conns_.clear();
  daemon_.reset();
  server_.reset();
  registry_.reset();
}

void ServeInstance::finish(const ServeInputs& in, Checks& checks) {
  retire(in);
  for (const Verdict& v : verdicts_) {
    checks.add(v.name, v.ok,
               fmt("%s (%d deployments)", v.detail.c_str(), deployments_));
  }
  checks.add("serve: sampled codes equal a direct encode on their epoch",
             mismatched_ == 0 && verified_ > 0,
             fmt("%zu of %zu differ, worst relative difference %.3g",
                 mismatched_, verified_, worst_));
}

}  // namespace perfbench
