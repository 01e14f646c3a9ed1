#include "common.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cstdarg>
#include <cstdio>

namespace perfbench {

std::string fmt(const char* format, ...) {
  char buf[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

std::uint64_t peak_rss_kb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_maxrss);
}

namespace {

double clock_s(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }

Json SpeedProbe::json() const {
  Json out = Json::object();
  out["core_ms"] = core_ms;
  out["l3_ms"] = l3_ms;
  return out;
}

SpeedProbe speed_probe(int trials) {
  constexpr int kN = 128;
  constexpr int kReps = 100;
  constexpr std::size_t kL3Doubles = std::size_t{2} << 20;  // 16 MiB
  static const std::vector<double> a = [] {
    std::vector<double> m(kN * kN);
    for (int i = 0; i < kN * kN; ++i) m[i] = 1.0 / (1 + i % 97);
    return m;
  }();
  static const std::vector<double> big(kL3Doubles, 1.0);
  static volatile double sink;
  std::vector<double> x(kN, 1.0), y(kN), core, l3;
  for (int trial = -1; trial < trials; ++trial) {
    double t0 = thread_cpu_s();
    for (int rep = 0; rep < kReps; ++rep) {
      for (int i = 0; i < kN; ++i) {
        double s = 0;
        for (int j = 0; j < kN; ++j) s += a[i * kN + j] * x[j];
        y[i] = s;
      }
      for (int j = 0; j < kN; ++j) x[j] = 1 + 1e-3 * y[j];
    }
    if (trial >= 0) core.push_back((thread_cpu_s() - t0) * 1e3);
    t0 = thread_cpu_s();
    double s[4] = {0, 0, 0, 0};
    for (int rep = 0; rep < 2; ++rep) {
      for (std::size_t i = 0; i < kL3Doubles; i += 4) {
        for (int k = 0; k < 4; ++k) s[k] += big[i + static_cast<std::size_t>(k)];
      }
    }
    if (trial >= 0) l3.push_back((thread_cpu_s() - t0) * 1e3);
    sink = sink + x[0] + s[0] + s[1] + s[2] + s[3];
  }
  const auto mid = static_cast<std::ptrdiff_t>(trials / 2);
  std::nth_element(core.begin(), core.begin() + mid, core.end());
  std::nth_element(l3.begin(), l3.begin() + mid, l3.end());
  return {.core_ms = core[static_cast<std::size_t>(mid)],
          .l3_ms = l3[static_cast<std::size_t>(mid)]};
}

}  // namespace perfbench
