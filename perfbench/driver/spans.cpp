#include "spans.hpp"

#include <cstdio>
#include <stdexcept>

namespace perfbench {
namespace {

thread_local const Tracer* tl_owner = nullptr;
thread_local std::vector<Span>* tl_buffer = nullptr;
thread_local std::uint64_t tl_open_span = 0;

double micros(Clock::time_point t, Clock::time_point origin) {
  return std::chrono::duration<double, std::micro>(t - origin).count();
}

}  // namespace

Tracer::Tracer() : origin_(Clock::now()) {}

std::uint64_t Tracer::next_id() noexcept {
  return next_id_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<Span>& Tracer::buffer() {
  if (tl_owner != this) {
    const std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<std::vector<Span>>());
    buffers_.back()->reserve(1 << 14);
    tl_buffer = buffers_.back().get();
    tl_owner = this;
  }
  return *tl_buffer;
}

std::uint64_t Tracer::record(const char* name, Clock::time_point start,
                             Clock::time_point end, std::uint64_t parent,
                             std::uint64_t request, std::uint64_t id) {
  if (id == 0) id = next_id();
  buffer().push_back({name, id, parent != 0 ? parent : tl_open_span, request,
                      start, end});
  return id;
}

std::size_t Tracer::span_count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& b : buffers_) n += b->size();
  return n;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write spans to " + path);
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& b : buffers_) {
    for (const Span& s : *b) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                   "\"request\":%llu,\"start_us\":%.3f,\"end_us\":%.3f}\n",
                   s.name, static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request),
                   micros(s.start, origin_), micros(s.end, origin_));
    }
  }
  if (std::fclose(f) != 0) throw std::runtime_error("short write to " + path);
}

Scope::Scope(Tracer* tracer, const char* name, std::uint64_t request)
    : tracer_(tracer), name_(name), request_(request) {
  if (tracer_ == nullptr) return;
  id_ = tracer_->next_id();
  parent_ = tl_open_span;
  tl_open_span = id_;
  start_ = Clock::now();
}

Scope::~Scope() {
  if (tracer_ == nullptr) return;
  const Clock::time_point end = Clock::now();
  tl_open_span = parent_;
  tracer_->buffer().push_back({name_, id_, parent_, request_, start_, end});
}

}  // namespace perfbench
