#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

// The benchmark's own statistics: percentile rules, the max-rate search,
// and derived-metric arithmetic. Kept free of any CATS type so
// selftest.cc can pin every rule on synthetic inputs.
namespace perfbench {

/// Nearest-rank quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// Samples a q-quantile needs so that at least ten samples lie beyond it:
/// ceil(10 / (1 - q)), so 1000 for p99 and 20 for p50.
size_t MinSamplesFor(double q);

/// The q-quantile, or nullopt when `values` holds fewer than
/// MinSamplesFor(q) samples: a p99 from 150 requests is the second-worst
/// request, not a tail.
std::optional<double> TailQuantile(const std::vector<double>& values,
                                   double q);

/// What one fixed-rate step of open-loop traffic produced.
struct StepOutcome {
  double offered_rate = 0.0;  // requests per second on the schedule
  std::vector<double> latency_ms;  // completed-ok requests only
  uint64_t attempted = 0;
  uint64_t failed = 0;  // errors + overloads + unanswered
  /// Requests sent but unanswered at the end of the send window.
  uint64_t backlog_at_end = 0;
};

/// The backlog grows when more requests are outstanding at the end of the
/// send window than Little's law allows at the latency limit
/// (offered_rate x limit), with a floor of a few requests for low rates.
bool BacklogGrows(const StepOutcome& step, double latency_limit_ms);

/// A step meets the limit when its p99 exists (enough samples) and is at
/// most `latency_limit_ms`, at most 0.1% of attempts failed, and the
/// backlog does not grow.
bool StepMeetsLimit(const StepOutcome& step, double latency_limit_ms);

/// Highest offered rate that meets the limit, found by probing rates:
/// doubling up from `start_rate` until a rate fails (halving down from it
/// when it fails at once), then geometric bisection until
/// hi/lo <= 1 + resolution. A rate fails only when `attempts` probes at it
/// all fail: a host stall can fail one probe below the knee, while a rate
/// past the knee fails every time. Returns the highest rate that passed
/// (0 when none did) and every probe made, at most `max_probes`.
struct MaxRateSearch {
  double max_rate = 0.0;
  std::vector<StepOutcome> probes;
};
MaxRateSearch SearchMaxRate(
    double start_rate, double resolution, size_t max_probes, size_t attempts,
    double latency_limit_ms,
    const std::function<StepOutcome(double rate)>& probe);

/// Crawler self time per item: the crawl's wall time minus what the
/// simulator (render), the page parser and the record normalizer took,
/// over the items crawled. Never negative.
double CrawlerSelfMicrosPerItem(double crawl_micros, double render_micros,
                                double parse_micros, double normalize_micros,
                                size_t items);

/// Wall-clock duration of `fn` in microseconds — the timer every per-layer
/// metric uses. Pooled calls (thread-pool fan-out) are timed by the wall
/// clock, never by the calling thread's CPU time, which misses the work
/// the workers do.
double WallMicros(const std::function<void()>& fn);

/// Wall-clock seconds elapsed since `start`.
double SecondsSince(std::chrono::steady_clock::time_point start);

/// CPU time the calling thread spent in `fn`, in microseconds. Only the
/// self-test uses it, to show why WallMicros is the right timer.
double ThreadCpuMicros(const std::function<void()>& fn);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
