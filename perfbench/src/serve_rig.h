#ifndef PERFBENCH_SERVE_RIG_H_
#define PERFBENCH_SERVE_RIG_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "collect/store.h"
#include "loadgen.h"
#include "report.h"
#include "serve/server.h"
#include "serve/tcp_server.h"
#include "setup.h"

namespace perfbench {


/// A scoring server in this process (ServeLoop + TcpServer with default
/// options, booted from the deployment's model dir) and the benchmark's
/// load client connected to it over loopback. Member order makes the
/// client close first, then the transport, then the loop.
struct ServeRig {
  /// The first 32 of `items` become the loop's held-out probe rows
  /// (model swaps and the drift reference).
  ServeRig(const Deployment& deployment,
           const std::vector<cats::collect::CollectedItem>& items);
  ~ServeRig();
  ServeRig(const ServeRig&) = delete;
  ServeRig& operator=(const ServeRig&) = delete;

  /// Stops transport and loop (drain), so the books can be checked.
  void Stop();

  cats::serve::ServeLoop loop;
  std::unique_ptr<cats::serve::TcpServer> server;
  std::unique_ptr<LoadClient> client;
};

/// score_item traffic over a fixed item set, in a seeded order.
class ScoreItemSource : public RequestSource {
 public:
  ScoreItemSource(const std::vector<cats::collect::CollectedItem>& items,
                  uint64_t seed);
  std::string Next(uint32_t request_id) override;
  void OnResponse(uint32_t, const cats::serve::Message*) override {}

 private:
  std::vector<std::string> frames_;  // pre-encoded, request id stamped per send
  std::vector<size_t> order_;
  size_t cursor_ = 0;
};

/// Fixed offered rates and the latency limit of one serve workload.
struct ServeRates {
  double nominal = 0.0;
  double high = 0.0;
  double latency_limit_ms = 0.0;
};

/// Fixed rates (requests/s) and p99 limit (ms) for score_item traffic of
/// natural-size items: crawl_detect's traced serve leg.
inline constexpr ServeRates kScoreRates{.nominal = 1000.0, .high = 3000.0,
                                        .latency_limit_ms = 25.0};

/// Keeps every core busy at SCHED_IDLE priority while it lives, so no
/// core halts: a thread woken on a halted core of a virtual machine waits
/// for the host to resume that core, a delay that swings with the
/// neighbours' load and would swamp the latency under test. The spinners
/// yield to every ordinary thread at once (the idle=poll of a benchmark
/// box, applied only during the latency windows).
class IdleSpinners {
 public:
  IdleSpinners();
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// How the fixed-rate traffic of one run is laid out: `rounds` rounds of
/// one nominal window then one high window, back to back. Each window is
/// long enough on its own for a p99 (>= 1000 requests), and every latency
/// metric is the median over its windows, so a host stall that spoils one
/// window does not move the run's figure.
struct PhasePlan {
  size_t rounds = 4;
  double nominal_window_s = 1.0;
  double high_window_s = 0.5;
  /// Traced run: odd rounds record request spans, even rounds do not, and
  /// the p50 ratio between them is bench.trace_overhead_share.
  bool alternate_tracing = false;
};

/// Window length that holds ~1200 requests at `rate` (>= 1000 for a p99
/// after Poisson variation), or `share_s` if longer.
double WindowSeconds(double rate, double share_s);

/// Runs `plan` with traffic from `source` and records:
/// lat_p50_ms / lat_p99_ms = serve.lat_p99_ms (nominal), serve.lat_p99_ms.high,
/// serve.queue_wait_ms.high, serve.batch_requests_mean,
/// serve.worker_idle_share, serve.loop_wakeups_per_frame,
/// serve.overload_share, serve.item_cache_size, bench.send_lag_p99_ms
/// (nominal), core.comments_extracted_per_request and, when the plan
/// alternates tracing, bench.trace_overhead_share. Checks the percentile
/// rule and that the generator kept its schedule.
void RunServePhases(ServeRig* rig, RequestSource* source,
                    const ServeRates& rates, const PhasePlan& plan,
                    uint64_t seed, Tracer* tracer, RunReport* report);

/// serve.inproc_p50_us: ServeLoop::Call from one caller on `requests` of
/// `source`'s requests (service time without transport), and
/// serve.transport_us from the TCP p50 already in `report`.
void MeasureInproc(ServeRig* rig, RequestSource* source, size_t requests,
                   Tracer* tracer, RunReport* report);

/// Untimed open-loop traffic at `rate` for 0.5 s, part of every serve
/// set-up.
void WarmUp(ServeRig* rig, RequestSource* source, double rate, uint64_t seed);

/// Stops the rig and checks the ServeStats books balance.
void StopAndCheckBooks(ServeRig* rig, RunReport* report);

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_RIG_H_
