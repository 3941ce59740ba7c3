#include "stats.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

size_t MinSamplesFor(double q) {
  return static_cast<size_t>(std::ceil(10.0 / (1.0 - q) - 1e-9));
}

std::optional<double> TailQuantile(const std::vector<double>& values,
                                   double q) {
  if (values.size() < MinSamplesFor(q)) return std::nullopt;
  return Quantile(values, q);
}

bool BacklogGrows(const StepOutcome& step, double latency_limit_ms) {
  const double allowed =
      std::max(8.0, step.offered_rate * latency_limit_ms / 1000.0);
  return static_cast<double>(step.backlog_at_end) > allowed;
}

bool StepMeetsLimit(const StepOutcome& step, double latency_limit_ms) {
  const std::optional<double> p99 = TailQuantile(step.latency_ms, 0.99);
  if (!p99.has_value() || *p99 > latency_limit_ms) return false;
  if (step.attempted == 0) return false;
  if (static_cast<double>(step.failed) >
      0.001 * static_cast<double>(step.attempted)) {
    return false;
  }
  return !BacklogGrows(step, latency_limit_ms);
}

MaxRateSearch SearchMaxRate(
    double start_rate, double resolution, size_t max_probes, size_t attempts,
    double latency_limit_ms,
    const std::function<StepOutcome(double rate)>& probe) {
  MaxRateSearch out;
  auto run = [&](double rate) {
    for (size_t a = 0; a < attempts && out.probes.size() < max_probes; ++a) {
      out.probes.push_back(probe(rate));
      if (StepMeetsLimit(out.probes.back(), latency_limit_ms)) return true;
    }
    return false;
  };
  double lo = 0.0;
  double hi = start_rate;
  // Grow until a step fails (or the probe budget runs out).
  while (out.probes.size() < max_probes) {
    if (!run(hi)) break;
    lo = hi;
    hi *= 2.0;
  }
  if (lo == 0.0) {
    // Even the start rate failed: search downwards for a passing rate.
    double fail = start_rate;
    double rate = start_rate / 2.0;
    while (out.probes.size() < max_probes && lo == 0.0) {
      if (run(rate)) {
        lo = rate;
      } else {
        fail = rate;
        rate /= 2.0;
      }
    }
    hi = fail;
    if (lo == 0.0) return out;
  }
  while (out.probes.size() < max_probes && hi / lo > 1.0 + resolution) {
    const double mid = std::sqrt(lo * hi);
    if (run(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  out.max_rate = lo;
  return out;
}

double CrawlerSelfMicrosPerItem(double crawl_micros, double render_micros,
                                double parse_micros, double normalize_micros,
                                size_t items) {
  if (items == 0) return 0.0;
  const double self =
      crawl_micros - render_micros - parse_micros - normalize_micros;
  return std::max(0.0, self) / static_cast<double>(items);
}

double WallMicros(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double ThreadCpuMicros(const std::function<void()>& fn) {
  timespec a{};
  timespec b{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &a);
  fn();
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &b);
  return static_cast<double>(b.tv_sec - a.tv_sec) * 1e6 +
         static_cast<double>(b.tv_nsec - a.tv_nsec) / 1e3;
}

}  // namespace perfbench
