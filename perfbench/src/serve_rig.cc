#include "serve_rig.h"

#include <sched.h>

#include <algorithm>
#include <random>

#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "stats.h"

namespace perfbench {
namespace {

/// Connections the load client spreads its requests over (at most nproc on
/// the 4-core box the benchmark is sized for).
constexpr size_t kConnections = 4;
constexpr size_t kProbeItems = 32;
constexpr double kWarmupSeconds = 0.5;

/// The registry and ServeStats values the serve-side layer metrics are
/// deltas of.
struct ServeCounters {
  uint64_t received = 0;
  uint64_t overload_rejected = 0;
  uint64_t pop_stall_micros = 0;
  uint64_t loop_wakeups = 0;
  uint64_t frames_read = 0;
  uint64_t comments_processed = 0;
  uint64_t batches = 0;
  double batch_requests_sum = 0.0;

  static ServeCounters Read(const cats::serve::ServeLoop& loop) {
    const cats::obs::MetricsSnapshot snap =
        cats::obs::MetricsRegistry::Global().Snapshot();
    ServeCounters c;
    c.received = loop.stats().received.load();
    c.overload_rejected = loop.stats().overload_rejected.load();
    c.pop_stall_micros =
        snap.CounterValue(cats::obs::kServeAdmissionPopStallMicrosTotal);
    c.loop_wakeups = snap.CounterValue(cats::obs::kServeTcpLoopWakeupsTotal);
    c.frames_read = snap.CounterValue(cats::obs::kServeTcpFramesReadTotal);
    c.comments_processed =
        snap.CounterValue(cats::obs::kExtractorCommentsProcessedTotal);
    if (const auto* h = snap.FindHistogram(cats::obs::kServeBatchRequests)) {
      c.batches = h->total_count;
      c.batch_requests_sum = h->sum;
    }
    return c;
  }
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

ServeRig::ServeRig(const Deployment& deployment,
                   const std::vector<cats::collect::CollectedItem>& items)
    : loop(cats::serve::ServeOptions{}) {
  std::vector<cats::collect::CollectedItem> probe(
      items.begin(),
      items.begin() + static_cast<std::ptrdiff_t>(
                          std::min(kProbeItems, items.size())));
  cats::Status st = loop.Start(deployment.model_dir, std::move(probe));
  if (!st.ok()) Fail("serve loop start: " + st.ToString());
  server = std::make_unique<cats::serve::TcpServer>(
      &loop, cats::serve::TcpServerOptions{});
  st = server->Start();
  if (!st.ok()) Fail("tcp server start: " + st.ToString());
  client = std::make_unique<LoadClient>(server->port(), kConnections);
}

ServeRig::~ServeRig() { Stop(); }

void ServeRig::Stop() {
  client.reset();
  if (server != nullptr) server->Stop();
  loop.Stop(cats::serve::StopMode::kDrain);
}

ScoreItemSource::ScoreItemSource(
    const std::vector<cats::collect::CollectedItem>& items, uint64_t seed) {
  frames_.reserve(items.size());
  for (const auto& item : items) {
    frames_.push_back(
        cats::serve::EncodeFrame(cats::serve::MakeScoreItemRequest(0, item)));
  }
  order_.resize(items.size());
  for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
  std::mt19937_64 rng(seed);
  std::shuffle(order_.begin(), order_.end(), rng);
}

std::string ScoreItemSource::Next(uint32_t request_id) {
  std::string frame = frames_[order_[cursor_]];
  cursor_ = (cursor_ + 1) % order_.size();
  StampRequestId(&frame, request_id);
  return frame;
}

IdleSpinners::IdleSpinners() {
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned i = 0; i < cores; ++i) {
    threads_.emplace_back([this] {
      sched_param param{};
      sched_setscheduler(0, SCHED_IDLE, &param);
      while (!stop_.load(std::memory_order_relaxed)) {
        __builtin_ia32_pause();  // spare a hyperthread sibling's pipeline
      }
    });
  }
}

IdleSpinners::~IdleSpinners() {
  stop_.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads_) t.join();
}

double WindowSeconds(double rate, double share_s) {
  return std::max(share_s, 1200.0 / rate);
}

void RunServePhases(ServeRig* rig, RequestSource* source,
                    const ServeRates& rates, const PhasePlan& plan,
                    uint64_t seed, Tracer* tracer, RunReport* report) {
  Tracer off(false);
  std::vector<double> send_lag_ms;
  std::vector<double> p50s, p99s, high_p50s, high_p99s;
  std::vector<double> traced_p50s, untraced_p50s;
  uint64_t nominal_ok = 0;
  double nominal_seconds = 0.0;
  ServeCounters nominal_delta;  // summed over the nominal windows
  const ServeCounters start = ServeCounters::Read(rig->loop);
  bool enough_samples = true;
  const IdleSpinners spinners;
  for (size_t round = 0; round < plan.rounds; ++round) {
    Tracer* t = plan.alternate_tracing && round % 2 == 0 ? &off : tracer;
    const ServeCounters before = ServeCounters::Read(rig->loop);
    const StepOutcome nominal =
        rig->client->Run(rates.nominal, plan.nominal_window_s,
                         seed ^ (0x4E4F4D + round), source, t, &send_lag_ms);
    const ServeCounters after = ServeCounters::Read(rig->loop);
    nominal_delta.pop_stall_micros += after.pop_stall_micros - before.pop_stall_micros;
    nominal_delta.loop_wakeups += after.loop_wakeups - before.loop_wakeups;
    nominal_delta.frames_read += after.frames_read - before.frames_read;
    nominal_delta.comments_processed +=
        after.comments_processed - before.comments_processed;
    nominal_ok += nominal.latency_ms.size();
    nominal_seconds += plan.nominal_window_s;
    const StepOutcome high =
        rig->client->Run(rates.high, plan.high_window_s,
                         seed ^ (0x484947 + round), source, t, nullptr);
    report->attempted += nominal.attempted + high.attempted;
    report->failed += nominal.failed + high.failed;

    const auto p50 = TailQuantile(nominal.latency_ms, 0.50);
    const auto p99 = TailQuantile(nominal.latency_ms, 0.99);
    const auto hp50 = TailQuantile(high.latency_ms, 0.50);
    const auto hp99 = TailQuantile(high.latency_ms, 0.99);
    if (!p99 || !hp99) {
      enough_samples = false;
      continue;
    }
    p50s.push_back(*p50);
    p99s.push_back(*p99);
    high_p50s.push_back(*hp50);
    high_p99s.push_back(*hp99);
    (t == &off ? untraced_p50s : traced_p50s).push_back(*p50);
  }
  const ServeCounters end = ServeCounters::Read(rig->loop);
  report->Check(enough_samples,
                "at least 1000 ok requests in every fixed-rate window (p99 "
                "rule)");
  if (p50s.empty()) return;

  const double p50 = Median(p50s);
  report->Set("lat_p50_ms", p50, "ms");
  report->Set("lat_p99_ms", Median(p99s), "ms");
  report->Set("serve.lat_p99_ms", Median(p99s), "ms");
  report->Set("serve.lat_p99_ms.high", Median(high_p99s), "ms");
  report->Set("serve.queue_wait_ms.high", Median(high_p50s) - p50, "ms");
  if (plan.alternate_tracing && !traced_p50s.empty() && !untraced_p50s.empty()) {
    report->Set("bench.trace_overhead_share",
                Median(traced_p50s) / Median(untraced_p50s) - 1.0, "ratio");
  }

  // The nominal run is the generator's, not the server's, when the
  // typical send is late by a good part of the typical latency. The p99
  // lag is reported but not gated: on a shared host it is scheduler
  // wake-up jitter, which delays a 200 us sleep by ~1 ms at p99.
  report->Set("bench.send_lag_p99_ms", Quantile(send_lag_ms, 0.99), "ms");
  report->Set("bench.send_lag_p50_ms", Median(send_lag_ms), "ms");
  report->Check(Median(send_lag_ms) < 0.5 * p50,
                "the open loop kept its schedule (median send lag below "
                "half the nominal p50)");

  const double workers =
      static_cast<double>(rig->loop.options().num_workers);
  report->Set("serve.batch_requests_mean",
              Ratio(end.batch_requests_sum - start.batch_requests_sum,
                    static_cast<double>(end.batches - start.batches)),
              "count");
  report->Set("serve.worker_idle_share",
              Ratio(static_cast<double>(nominal_delta.pop_stall_micros),
                    workers * nominal_seconds * 1e6),
              "ratio");
  report->Set("serve.loop_wakeups_per_frame",
              Ratio(static_cast<double>(nominal_delta.loop_wakeups),
                    static_cast<double>(nominal_delta.frames_read)),
              "ratio");
  report->Set("serve.overload_share",
              Ratio(static_cast<double>(end.overload_rejected -
                                        start.overload_rejected),
                    static_cast<double>(end.received - start.received)),
              "ratio");
  report->Set("serve.item_cache_size",
              cats::obs::MetricsRegistry::Global()
                  .Snapshot()
                  .GaugeValue(cats::obs::kServeItemCacheSize),
              "count");
  report->Set("core.comments_extracted_per_request",
              Ratio(static_cast<double>(nominal_delta.comments_processed),
                    static_cast<double>(nominal_ok)),
              "count");
}

void MeasureInproc(ServeRig* rig, RequestSource* source, size_t requests,
                   Tracer* tracer, RunReport* report) {
  std::vector<double> micros;
  micros.reserve(requests);
  ScopedSpan span(tracer, "serve.inproc");
  for (size_t i = 0; i < requests; ++i) {
    // The source's own request, decoded back from its frame, so a delta
    // source keeps its mirror of the server's cache exact.
    const uint32_t id = 0x80000000u + static_cast<uint32_t>(i);
    cats::serve::FrameReader reader;
    reader.Feed(source->Next(id));
    auto request = reader.Next();
    if (!request.ok()) Fail("in-process request: " + request.status().ToString());
    cats::serve::Message response;
    micros.push_back(WallMicros(
        [&] { response = rig->loop.Call(std::move(request).value()); }));
    report->Check(response.type == cats::serve::MessageType::kOk,
                  "in-process requests answered ok");
    source->OnResponse(id, &response);
  }
  const double p50_us = Median(micros);
  report->Set("serve.inproc_p50_us", p50_us, "us");
  auto tcp = report->metrics.find("lat_p50_ms");
  if (tcp != report->metrics.end()) {
    report->Set("serve.transport_us", tcp->second.first * 1e3 - p50_us, "us");
  }
}

void WarmUp(ServeRig* rig, RequestSource* source, double rate, uint64_t seed) {
  Tracer off(false);
  rig->client->Run(rate, kWarmupSeconds, seed ^ 0x5741524D, source, &off,
                   nullptr);
}

void StopAndCheckBooks(ServeRig* rig, RunReport* report) {
  rig->Stop();
  const cats::serve::ServeStats& s = rig->loop.stats();
  report->Check(s.received.load() == s.accepted.load() +
                                         s.overload_rejected.load() +
                                         s.rejected.load(),
                "ServeStats: received == accepted + overload_rejected + "
                "rejected");
  report->Check(s.accepted.load() ==
                    s.ok.load() + s.errors.load() + s.shed.load(),
                "ServeStats: accepted == ok + errors + shed");
}

}  // namespace perfbench
