#include "trace.h"

#include <cstdio>

namespace mrcpbench {

Tracer::Scope::Scope(Tracer& tracer, const char* name)
    : tracer_(tracer), start_(std::chrono::steady_clock::now()) {
  if (!tracer_.enabled_) return;
  saved_parent_ = tracer_.open_;
  index_ = static_cast<int>(tracer_.spans_.size());
  tracer_.spans_.push_back(Span{name, tracer_.now_ns(), 0, saved_parent_});
  tracer_.open_ = index_;
}

double Tracer::Scope::close() {
  if (seconds_ >= 0.0) return seconds_;
  const auto end = std::chrono::steady_clock::now();
  seconds_ = std::chrono::duration<double>(end - start_).count();
  if (index_ >= 0) {
    tracer_.spans_[static_cast<std::size_t>(index_)].end_ns = tracer_.now_ns();
    tracer_.open_ = saved_parent_;
  }
  return seconds_;
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

std::string Tracer::to_json() const {
  std::string out = "{\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d}}",
                  i == 0 ? "" : ",", s.name,
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                  s.parent);
    out += buf;
  }
  out += "]}\n";
  return out;
}

}  // namespace mrcpbench
