#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// In-memory span recorder for the traced run. Spans are recorded by the
/// benchmark's own files around each call into a layer's public API
/// (nothing inside src/ is instrumented), kept in memory, and written out
/// once when the run ends. Single-threaded: only the benchmark's driving
/// thread records.
class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;  // since the tracer was created
    int64_t end_ns = 0;
    int64_t parent = -1;       // index of the enclosing span, -1 for a root
    uint64_t request_id = 0;   // shared by every span of one request; 0 = none
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Opens a span under the innermost open one; returns its index (-1
  /// when disabled).
  int64_t Begin(std::string name);
  void End(int64_t index);

  /// Records an already-timed span (open-loop requests are timed from
  /// their scheduled send, which the recorder cannot observe itself).
  void Record(std::string name, std::chrono::steady_clock::time_point start,
              std::chrono::steady_clock::time_point end, uint64_t request_id);

  /// Writes one JSON object per line: name, start_us, end_us, parent,
  /// request_id. Returns false when the file cannot be written.
  bool Write(const std::string& path) const;

 private:
  int64_t NowNs() const;

  bool enabled_;
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<int64_t> open_;  // stack of open span indices
};

/// RAII span: Begin in the constructor, End in the destructor.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name)
      : tracer_(tracer), index_(tracer->Begin(std::move(name))) {}
  ~ScopedSpan() { tracer_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int64_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
