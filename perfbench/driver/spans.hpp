// In-memory span recorder for the traced benchmark run.
//
// Every call the benchmark makes into a library layer is wrapped in a span:
// name ("<layer>.<call>"), start, end, the span that caused it and the
// request it serves. Spans go to a per-thread buffer (no lock on the hot
// path) and are written once, at exit. An untraced run passes a null
// Tracer, and a Scope over a null tracer reads no clock.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0: a root span
  std::uint64_t request = 0;  ///< 0: not tied to a request
  Clock::time_point start;
  Clock::time_point end;
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Records a finished span and returns its id. `parent` 0 means "the
  /// span open on this thread", if any; `id` 0 draws a fresh id (pass one
  /// from next_id() when children were recorded first).
  std::uint64_t record(const char* name, Clock::time_point start,
                       Clock::time_point end, std::uint64_t parent = 0,
                       std::uint64_t request = 0, std::uint64_t id = 0);

  [[nodiscard]] std::uint64_t next_id() noexcept;
  [[nodiscard]] std::size_t span_count() const;

  /// Writes every span as one JSON object per line, times in microseconds
  /// from the tracer's creation. Call after every recording thread joined.
  void write_jsonl(const std::string& path) const;

 private:
  friend class Scope;
  std::vector<Span>& buffer();

  const Clock::time_point origin_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;  // guarded by mu_
};

/// RAII span: opens at construction, records at destruction, and is the
/// implicit parent of spans opened on the same thread meanwhile.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, std::uint64_t request = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

 private:
  Tracer* tracer_;
  const char* name_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t request_;
  Clock::time_point start_;
};

}  // namespace perfbench
