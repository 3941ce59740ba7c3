#include "trace.h"

#include <cstdio>

namespace perfbench {

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int64_t Tracer::Begin(std::string name) {
  if (!enabled_) return -1;
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int64_t>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int64_t index) {
  if (index < 0) return;
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void Tracer::Record(std::string name,
                    std::chrono::steady_clock::time_point start,
                    std::chrono::steady_clock::time_point end,
                    uint64_t request_id) {
  if (!enabled_) return;
  auto ns = [&](std::chrono::steady_clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  };
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.request_id = request_id;
  span.start_ns = ns(start);
  span.end_ns = ns(end);
  spans_.push_back(std::move(span));
}

bool Tracer::Write(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                 "\"parent\":%lld,\"request_id\":%llu}\n",
                 s.name.c_str(), static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns) / 1e3,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request_id));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
