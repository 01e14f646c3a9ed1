// Shared plumbing of the benchmark driver: clock helpers, the check list
// every output check reports into, and typed access to the frozen workload
// configuration (perfbench/config.json).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "spans.hpp"
#include "util/json.hpp"

namespace perfbench {

using extdict::util::Json;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double seconds_since(Clock::time_point a) {
  return seconds_between(a, Clock::now());
}

inline Json to_json(const std::vector<double>& values) {
  Json out = Json::array();
  for (double v : values) out.push_back(v);
  return out;
}

inline double num(const Json& cfg, const char* key) {
  return cfg.at(key).as_double();
}

inline std::int64_t integer(const Json& cfg, const char* key) {
  return static_cast<std::int64_t>(cfg.at(key).as_double());
}

/// Output checks of one run. A failed check makes the run incorrect; the
/// list (name, verdict, measured detail) goes into the raw result.
class Checks {
 public:
  void add(const std::string& name, bool ok, const std::string& detail) {
    Json entry = Json::object();
    entry["name"] = name;
    entry["ok"] = ok;
    entry["detail"] = detail;
    list_.push_back(std::move(entry));
    all_ok_ = all_ok_ && ok;
  }
  [[nodiscard]] bool ok() const noexcept { return all_ok_; }
  [[nodiscard]] const Json& list() const noexcept { return list_; }

 private:
  Json list_ = Json::array();
  bool all_ok_ = true;
};

/// Exact counts of one run. `set` records a count; setting the same name
/// again (a repeat of the same work) must give the same value, or the
/// repeat check fails.
class Counts {
 public:
  void set(const std::string& name, double value, Checks& checks) {
    if (const Json* seen = doc_.find(name)) {
      if (seen->as_double() != value) {
        checks.add("count repeats: " + name, false,
                   std::to_string(seen->as_double()) + " then " +
                       std::to_string(value));
      }
      return;
    }
    doc_[name] = value;
  }
  [[nodiscard]] const Json& json() const noexcept { return doc_; }

 private:
  Json doc_ = Json::object();
};

std::string fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));

/// Peak resident set size of this process so far, in KiB.
std::uint64_t peak_rss_kb();

/// CPU time of the calling thread, and of the whole process, in seconds.
/// With steal-time accounting (paravirtualised kernels), the kernel leaves
/// out the time the hypervisor gave the vCPU to other guests, so on a shared
/// host these read the work done rather than the wait for a core.
double thread_cpu_s();
double process_cpu_s();

/// One reading of the host speed probe: the median CPU milliseconds over
/// `trials` runs, after one untimed run that warms the caches, of two fixed
/// single-threaded kernels that call nothing of the library. `core_ms` times a 128x128 matrix-vector product in cache, 100
/// times, which runs at the core's clock; `l3_ms` times two sums over a
/// 16 MiB array, which runs at the speed of the shared L3.
struct SpeedProbe {
  double core_ms = 0, l3_ms = 0;
  [[nodiscard]] Json json() const;
};

[[nodiscard]] SpeedProbe speed_probe(int trials = 5);

}  // namespace perfbench
