// perfbench_selftest: pins the benchmark's own statistics on synthetic
// inputs. perfbench/run.py runs it after every build; a failure fails the
// run before any workload is measured.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "stats.h"
#include "util/thread_pool.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
  }
}

std::vector<double> Ramp(size_t n) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

/// A fake server with a hard knee: at or below `capacity` every request
/// takes 1 ms; above it every request waits 50 ms and the backlog grows.
perfbench::StepOutcome FakeStep(double rate, double capacity) {
  perfbench::StepOutcome step;
  step.offered_rate = rate;
  const double seconds = std::max(2.0, 1100.0 / rate);  // as real probes are
  const size_t n = static_cast<size_t>(rate * seconds);
  step.attempted = n;
  const bool over = rate > capacity;
  step.latency_ms.assign(n, over ? 50.0 : 1.0);
  step.backlog_at_end =
      over ? static_cast<uint64_t>((rate - capacity) * seconds) : 0;
  return step;
}

void TestPercentileRule() {
  using perfbench::TailQuantile;
  Expect(perfbench::MinSamplesFor(0.99) == 1000, "p99 needs 1000 samples");
  Expect(perfbench::MinSamplesFor(0.50) == 20, "p50 needs 20 samples");
  Expect(!TailQuantile(Ramp(999), 0.99).has_value(),
         "a p99 from 999 samples is refused");
  Expect(!TailQuantile(Ramp(150), 0.99).has_value(),
         "a p99 from 150 samples is refused");
  const auto p99 = TailQuantile(Ramp(1000), 0.99);
  Expect(p99.has_value() && *p99 == 990.0,
         "p99 of 1..1000 is 990 (ten samples lie beyond it)");
  Expect(perfbench::Quantile(Ramp(100), 0.5) == 50.0, "median of 1..100");
  Expect(perfbench::Median({3.0, 1.0, 2.0}) == 2.0, "median of 3 values");
}

void TestMaxRateSearch() {
  // Resolution: the search must land within 5% below the true capacity,
  // and never above it.
  for (double capacity : {730.0, 2500.0, 9100.0}) {
    const perfbench::MaxRateSearch search = perfbench::SearchMaxRate(
        500.0, 0.05, 20, 1, 10.0,
        [&](double rate) { return FakeStep(rate, capacity); });
    Expect(search.max_rate <= capacity && search.max_rate >= capacity / 1.05,
           "max-rate search resolves capacity " + std::to_string(capacity) +
               " to within 5%, got " + std::to_string(search.max_rate));
  }
  // A capacity below the start rate is found by searching downwards.
  const perfbench::MaxRateSearch low = perfbench::SearchMaxRate(
      500.0, 0.05, 20, 1, 10.0, [](double rate) { return FakeStep(rate, 300.0); });
  Expect(low.max_rate <= 300.0 && low.max_rate >= 300.0 / 1.05,
         "max-rate search below the start rate");

  // A stall that fails the first probe at a rate below the knee: with two
  // attempts the rate still passes, with one it is lost.
  for (size_t attempts : {size_t{1}, size_t{2}}) {
    bool stalled = false;
    const perfbench::MaxRateSearch search = perfbench::SearchMaxRate(
        1000.0, 0.05, 30, attempts, 10.0, [&](double rate) {
          perfbench::StepOutcome step = FakeStep(rate, 3000.0);
          if (rate == 2000.0 && !stalled) {
            stalled = true;
            step.latency_ms.assign(step.latency_ms.size(), 80.0);
          }
          return step;
        });
    const bool found = search.max_rate >= 3000.0 / 1.05;
    Expect(found == (attempts == 2),
           "a retried probe survives a one-off stall (attempts=" +
               std::to_string(attempts) + ")");
  }
  const perfbench::MaxRateSearch capped = perfbench::SearchMaxRate(
      500.0, 0.05, 3, 2, 10.0, [](double rate) { return FakeStep(rate, 9000.0); });
  Expect(capped.probes.size() == 3, "the search stops at max_probes");

  // Backlog rule: Little's law at the limit, with a floor of 8.
  perfbench::StepOutcome step = FakeStep(1000.0, 2000.0);
  step.backlog_at_end = 10;  // 1000/s x 10 ms allows 10 outstanding
  Expect(!perfbench::BacklogGrows(step, 10.0), "backlog at the bound holds");
  step.backlog_at_end = 11;
  Expect(perfbench::BacklogGrows(step, 10.0), "backlog past the bound grows");
  Expect(!perfbench::StepMeetsLimit(step, 10.0),
         "a growing backlog fails the step even with a low p99");
  step.backlog_at_end = 0;
  Expect(perfbench::StepMeetsLimit(step, 10.0), "a clean step passes");
  step.failed = 3;  // 3 of 2000 > 0.1%
  Expect(!perfbench::StepMeetsLimit(step, 10.0),
         "more than 0.1% failed requests fail the step");
  step.failed = 2;
  Expect(perfbench::StepMeetsLimit(step, 10.0), "0.1% failed still passes");
  step.failed = 0;
  step.latency_ms.resize(999);
  Expect(!perfbench::StepMeetsLimit(step, 10.0),
         "a step without enough samples for its p99 fails");
}

void TestDerivedMetrics() {
  Expect(perfbench::CrawlerSelfMicrosPerItem(1000.0, 400.0, 300.0, 100.0, 50) ==
             4.0,
         "crawler self time = (crawl - render - parse - normalize) / items");
  Expect(perfbench::CrawlerSelfMicrosPerItem(100.0, 400.0, 0.0, 0.0, 10) == 0.0,
         "crawler self time never goes negative");
  Expect(perfbench::CrawlerSelfMicrosPerItem(100.0, 0.0, 0.0, 0.0, 0) == 0.0,
         "crawler self time of zero items is zero");
}

void TestWallClockForPooledWork() {
  // Four pool workers each sleep 50 ms while the caller waits: the wall
  // clock sees ~50 ms, the caller's CPU clock almost nothing. A rate
  // computed from CPU time (the BM_FeatureExtraction/4 defect) would be
  // orders of magnitude too high.
  cats::ThreadPool pool(4);
  auto work = [&] {
    pool.ParallelFor(4, [](size_t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    });
  };
  const double wall = perfbench::WallMicros(work);
  const double cpu = perfbench::ThreadCpuMicros(work);
  Expect(wall >= 50'000.0, "wall-clock timing covers the pooled work");
  Expect(cpu < 0.5 * wall, "caller CPU time misses the pooled work");
}

}  // namespace

int main() {
  TestPercentileRule();
  TestMaxRateSearch();
  TestDerivedMetrics();
  TestWallClockForPooledWork();
  if (failures > 0) {
    std::fprintf(stderr, "perfbench selftest: %d failure(s)\n", failures);
    return 1;
  }
  std::fprintf(stderr, "perfbench selftest: ok\n");
  return 0;
}
