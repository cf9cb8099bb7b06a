// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own code around calls into the
// repository's public functions (nothing inside src/ is instrumented).
// Each span keeps its name, start, end and parent; they are written out
// once, when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace mrcpbench {

struct Span {
  const char* name = "";  ///< string literal; spans never own their name
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index into Tracer::spans(), -1 for a root span
};

class Tracer {
 public:
  /// A disabled tracer records nothing; Scope still measures, so callers
  /// can read a duration either way.
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// RAII span: opened on construction, closed by close() or the
  /// destructor. Nested scopes become children of the innermost open one.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name);
    ~Scope() { close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Close the span and return its duration in seconds (idempotent).
    double close();

   private:
    Tracer& tracer_;
    int index_ = -1;
    int saved_parent_ = -1;
    std::chrono::steady_clock::time_point start_;
    double seconds_ = -1.0;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace-event JSON ("X" complete events, microseconds), with
  /// the parent index carried in args.
  std::string to_json() const;

 private:
  std::int64_t now_ns() const;

  bool enabled_;
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  int open_ = -1;
};

}  // namespace mrcpbench
