// serve_delta: an in-process scoring server driven over loopback TCP by the
// benchmark's own load client. Set-up caches long-history items; traffic
// then mixes ~80% score_comment_delta (1-3 new comments on a cached item)
// with ~20% score_item (new held-out items entering the FIFO cache).
// Re-extracting the whole history dominates, the cache is mutated on every
// request, and the score_item share keeps transport, decode, admission,
// per-item staging, small-batch predict and drift observation on the path.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <random>
#include <unordered_map>

#include "layers.h"
#include "ml/metrics.h"
#include "report.h"
#include "serve_rig.h"
#include "setup.h"
#include "stats.h"

namespace perfbench {
namespace {

using cats::collect::CollectedItem;

constexpr int kSetupReps = 3;
constexpr size_t kInprocRequests = 400;
constexpr double kSearchResolution = 0.05;
constexpr size_t kSearchProbes = 14;
constexpr size_t kSearchAttempts = 2;
// Shares of the run's seconds: the interleaved fixed-rate windows, the
// closed-loop capacity windows, and the rate search. The traced run
// alternates untraced and traced rounds and skips capacity and search.
constexpr double kWindowShare = 0.65;
constexpr double kCapacityShare = 0.15;
constexpr double kSearchShare = 0.2;
constexpr size_t kMinRounds = 4;
constexpr size_t kCapacityWindows = 3;
// Outstanding requests of the capacity loop: 8 per connection, well below
// the admission queue (128), so nothing is refused.
constexpr size_t kCapacityDepth = 32;

constexpr ServeRates kDeltaRates{.nominal = 600.0, .high = 1200.0,
                                 .latency_limit_ms = 50.0};

// Held-out platform: serve_delta's new items.
constexpr const char* kHeldOutPlatform = "jademall";
constexpr double kHeldOutScale = 0.02;

// serve_delta's working set: long-history items, far below the default
// item_cache_capacity (4096) together with every new item.
constexpr size_t kWorkingSetItems = 256;
constexpr size_t kMinHistory = 100;
constexpr size_t kMaxHistory = 300;
constexpr uint64_t kWorkingSetIdOffset = 1ull << 40;

/// As many rounds of the shortest windows (each still >= 1000 requests)
/// as the window share holds, and at least kMinRounds: the more windows,
/// the less one host stall moves their median.
PhasePlan Plan(const ServeRates& rates, double seconds, bool traced) {
  PhasePlan plan;
  plan.nominal_window_s = WindowSeconds(rates.nominal, 0.0);
  plan.high_window_s = WindowSeconds(rates.high, 0.0);
  plan.rounds = std::max(
      kMinRounds, static_cast<size_t>(kWindowShare * seconds /
                                      (plan.nominal_window_s +
                                       plan.high_window_s)));
  plan.alternate_tracing = traced;
  return plan;
}

/// One set-up of a serve workload: the model, the held-out platform and a
/// warmed-up server.
struct ServeSetup {
  Deployment deployment;
  CrawledPlatform held_out;
  std::vector<int> held_out_labels;
  std::unique_ptr<ServeRig> rig;
};

void BuildServeSetup(uint64_t seed, const std::string& model_dir,
                     ServeSetup* out) {
  out->rig.reset();
  *out = ServeSetup{};
  out->deployment = BuildDeployment(seed, model_dir);
  out->held_out.spec = SeededSpec(kHeldOutPlatform, kHeldOutScale, seed ^ 0x4E1D);
  out->held_out.market =
      GenerateMarket(out->held_out.spec, *out->deployment.language);
  CrawlInto(*out->held_out.market, out->held_out.spec,
            out->held_out.spec.default_weather, kPageSize, &out->held_out);
  out->held_out_labels =
      TrueLabels(*out->held_out.market, out->held_out.store.items());
  out->rig =
      std::make_unique<ServeRig>(out->deployment, out->held_out.store.items());
}

/// Checks served scores against offline scoring, bit for bit: each item
/// is scored alone through the detector's staging + classifier path (what
/// Detect runs per item), and Detect on that item must flag it exactly
/// when that score clears the threshold, with the same score.
void CheckIdentity(const cats::core::Detector& detector,
                   const std::vector<CollectedItem>& items,
                   const std::vector<std::optional<double>>& served,
                   const std::string& what, RunReport* report) {
  size_t mismatches = 0;
  for (size_t i = 0; i < items.size(); ++i) {
    std::optional<double> offline;
    cats::core::StagedBatch staged = detector.StageForScoring({items[i]});
    if (!staged.pending.empty()) {
      cats::core::FeatureVector row;
      std::copy_n(staged.rows.begin(), row.size(), row.begin());
      auto scored = detector.ScoreFeatures({row});
      if (!scored.ok()) Fail("offline ScoreFeatures: " + scored.status().ToString());
      offline = (*scored)[0];
    }
    auto detected = detector.Detect({items[i]});
    if (!detected.ok()) Fail("offline Detect: " + detected.status().ToString());
    std::vector<cats::core::Detection> flags = detected->detections;
    flags.insert(flags.end(), detected->degraded_detections.begin(),
                 detected->degraded_detections.end());
    const bool over = offline.has_value() &&
                      *offline >= detector.decision_threshold();
    if (served[i] != offline) ++mismatches;
    if (over != (flags.size() == 1)) ++mismatches;
    if (over && flags.size() == 1 && flags[0].score != *offline) ++mismatches;
  }
  report->Check(mismatches == 0, what);
}

double AucOf(const std::vector<int>& labels, const std::vector<double>& scores,
             RunReport* report) {
  const bool both = std::count(labels.begin(), labels.end(), 1) > 0 &&
                    std::count(labels.begin(), labels.end(), 0) > 0;
  report->Check(both, "the scored items hold both classes (AUC defined)");
  return both ? cats::ml::RocAuc(labels, scores) : 0.0;
}

/// items_per_s on the serve workloads: replies per second of a closed loop
/// that keeps kCapacityDepth requests outstanding, the median over
/// kCapacityWindows windows. This is the server's capacity; each request
/// scores exactly one item.
void RecordCapacity(ServeRig* rig, RequestSource* source, double seconds,
                    Tracer* tracer, RunReport* report) {
  std::vector<double> per_window;
  const double window = seconds / kCapacityWindows;
  for (size_t w = 0; w < kCapacityWindows; ++w) {
    const StepOutcome step =
        rig->client->RunClosed(kCapacityDepth, window, source, tracer);
    report->Check(step.failed == 0, "no request of the capacity loop failed");
    per_window.push_back(static_cast<double>(step.latency_ms.size()) / window);
  }
  report->Set("items_per_s", Median(per_window), "items/s");
}

/// serve.max_qps (ledger only): the highest offered open-loop rate that
/// meets the workload's limit (stats.h SearchMaxRate). Not gated: on a
/// shared host the knee moves with the neighbours' load.
void RecordMaxRate(ServeRig* rig, RequestSource* source, const ServeRates& rates,
                   double budget_seconds, uint64_t seed, Tracer* tracer,
                   RunReport* report) {
  size_t probe_index = 0;
  const MaxRateSearch search = SearchMaxRate(
      rates.high, kSearchResolution, kSearchProbes, kSearchAttempts,
      rates.latency_limit_ms,
      [&](double rate) {
        // Expected: ~2 doublings, ~5 bisection steps, a few retries.
        const double seconds = std::max(budget_seconds / 9.0, 1100.0 / rate);
        return rig->client->Run(rate, seconds, seed + 7919 * ++probe_index,
                                source, tracer, nullptr);
      });
  report->Set("serve.max_qps", search.max_rate, "req/s");
  report->Set("serve.search_probes", static_cast<double>(search.probes.size()),
              "count");
}

/// serve_delta traffic: ~80% score_comment_delta on the cached working set,
/// ~20% score_item for new items. Never sends two deltas for one item at
/// once, so the client's mirror of each cached item matches the server's.
class DeltaSource : public RequestSource {
 public:
  DeltaSource(std::vector<CollectedItem> working_set,
              const std::vector<CollectedItem>* new_items, uint64_t seed)
      : mirror_(std::move(working_set)),
        in_flight_(mirror_.size(), false),
        rng_(seed) {
    for (const auto& item : *new_items) {
      new_frames_.push_back(cats::serve::EncodeFrame(
          cats::serve::MakeScoreItemRequest(0, item)));
    }
  }

  std::string Next(uint32_t request_id) override {
    std::optional<size_t> target;
    if (std::uniform_real_distribution<double>(0.0, 1.0)(rng_) >= 0.2) {
      for (size_t tries = 0; tries < mirror_.size() && !target; ++tries) {
        const size_t i = cursor_;
        cursor_ = (cursor_ + 1) % mirror_.size();
        if (!in_flight_[i]) target = i;
      }
    }
    if (!target.has_value()) {
      const size_t i = new_cursor_;
      new_cursor_ = (new_cursor_ + 1) % new_frames_.size();
      new_pending_[request_id] = i;
      std::string frame = new_frames_[i];
      StampRequestId(&frame, request_id);
      return frame;
    }
    // 1-3 new comments, re-using earlier comment texts of the same item
    // under fresh comment ids.
    CollectedItem& item = mirror_[*target];
    const size_t count = std::uniform_int_distribution<size_t>(1, 3)(rng_);
    std::vector<cats::collect::CommentRecord> delta;
    for (size_t k = 0; k < count; ++k) {
      cats::collect::CommentRecord c =
          item.comments[std::uniform_int_distribution<size_t>(
              0, item.comments.size() - 1)(rng_)];
      c.comment_id = next_comment_id_++;
      delta.push_back(std::move(c));
    }
    in_flight_[*target] = true;
    std::string frame = cats::serve::EncodeFrame(
        cats::serve::MakeScoreCommentDeltaRequest(request_id,
                                                  item.item.item_id, delta));
    pending_[request_id] = Pending{*target, std::move(delta)};
    return frame;
  }

  void OnResponse(uint32_t request_id,
                  const cats::serve::Message* response) override {
    if (auto it = new_pending_.find(request_id); it != new_pending_.end()) {
      const size_t index = it->second;
      new_pending_.erase(it);
      if (response != nullptr &&
          response->type == cats::serve::MessageType::kOk) {
        auto score = response->payload.GetDouble("score");
        new_scores_.emplace(index, score.ok() ? *score : 0.0);
      }
      return;
    }
    auto it = pending_.find(request_id);
    if (it == pending_.end()) return;
    Pending pending = std::move(it->second);
    pending_.erase(it);
    in_flight_[pending.index] = false;
    if (response == nullptr) {
      lost_ = true;  // unknown whether the server applied it
      return;
    }
    if (response->type == cats::serve::MessageType::kOverloaded) return;
    if (response->type != cats::serve::MessageType::kOk) {
      lost_ = true;
      return;
    }
    CollectedItem& item = mirror_[pending.index];
    for (auto& c : pending.delta) item.comments.push_back(std::move(c));
    auto score = response->payload.GetDouble("score");
    const std::optional<double> served =
        score.ok() ? std::optional<double>(*score) : std::nullopt;
    ++deltas_ok_;
    // A seeded sample of rescored states for the full-rescore check.
    if (checks_.size() < kMaxChecks &&
        std::uniform_real_distribution<double>(0.0, 1.0)(check_rng_) < 0.05) {
      checks_.push_back(Check{pending.index, item.comments.size(), served});
    }
  }

  struct Check {
    size_t index;
    size_t history;  // comments in the item when this delta was scored
    std::optional<double> served;
  };
  static constexpr size_t kMaxChecks = 100;

  const std::vector<CollectedItem>& mirror() const { return mirror_; }
  const std::vector<Check>& checks() const { return checks_; }
  /// First score served per new item (index into the new items).
  const std::unordered_map<size_t, double>& new_scores() const {
    return new_scores_;
  }
  bool lost() const { return lost_; }
  uint64_t deltas_ok() const { return deltas_ok_; }

 private:
  struct Pending {
    size_t index;
    std::vector<cats::collect::CommentRecord> delta;
  };

  std::vector<CollectedItem> mirror_;
  std::vector<std::string> new_frames_;
  std::vector<bool> in_flight_;
  std::mt19937_64 rng_;
  std::mt19937_64 check_rng_{0xC4EC};
  size_t cursor_ = 0;
  size_t new_cursor_ = 0;
  uint64_t next_comment_id_ = 1ull << 50;
  std::unordered_map<uint32_t, Pending> pending_;
  std::unordered_map<uint32_t, size_t> new_pending_;
  std::unordered_map<size_t, double> new_scores_;
  std::vector<Check> checks_;
  bool lost_ = false;
  uint64_t deltas_ok_ = 0;
};

/// Long-history items: a taobao-dialect platform with heavy comment
/// volume, crawled fault-free; kWorkingSetItems of its items with at least
/// kMinHistory comments, cut to histories of 100-300 comments.
std::vector<CollectedItem> LongHistoryItems(const Deployment& deployment,
                                            uint64_t seed,
                                            std::vector<int>* labels) {
  cats::platform::PlatformSpec spec = SeededSpec("taobao", 0.02, seed ^ 0x10C);
  spec.market.num_normal_items = kWorkingSetItems;
  spec.market.num_fraud_items = kWorkingSetItems / 2;
  spec.market.mean_organic_comments_normal = 200.0;
  spec.market.mean_organic_comments_fraud = 150.0;
  spec.market.campaign.mean_spam_comments_per_item = 60.0;
  auto market = GenerateMarket(spec, *deployment.language);
  CrawledPlatform crawled;
  CrawlInto(*market, spec, cats::fault::FaultProfile::None(), kPageSize,
            &crawled);
  std::vector<const CollectedItem*> long_items;
  for (const CollectedItem& item : crawled.store.items()) {
    if (item.comments.size() >= kMinHistory) long_items.push_back(&item);
  }
  if (long_items.size() < kWorkingSetItems) {
    Fail("too few long-history items for serve_delta");
  }
  long_items.resize(kWorkingSetItems);
  // Histories spread evenly over [kMinHistory, kMaxHistory] whatever the
  // seed (shortest target to the shortest item), so the per-request work
  // does not move with the seed.
  std::stable_sort(long_items.begin(), long_items.end(),
                   [](const CollectedItem* a, const CollectedItem* b) {
                     return a->comments.size() < b->comments.size();
                   });
  std::vector<CollectedItem> out;
  for (size_t i = 0; i < long_items.size(); ++i) {
    const size_t target =
        kMinHistory + (kMaxHistory - kMinHistory) * i / (kWorkingSetItems - 1);
    CollectedItem item = *long_items[i];
    item.comments.resize(std::min(item.comments.size(), target));
    // Keep clear of the held-out platform's ids, which share the server's
    // item cache as serve_delta's new items.
    item.item.item_id += kWorkingSetIdOffset;
    for (auto& c : item.comments) c.item_id = item.item.item_id;
    labels->push_back(market->IsFraudItem(long_items[i]->item.item_id) ? 1 : 0);
    out.push_back(std::move(item));
  }
  return out;
}

}  // namespace

RunReport RunServeDelta(const RunOptions& options) {
  RunReport report;
  Tracer tracer(options.trace);
  const std::string model_dir = options.out_dir + "/model-serve_delta";

  std::vector<double> setup_s;
  ServeSetup setup;
  std::vector<int> labels;
  std::vector<double> cached_scores;
  std::unique_ptr<DeltaSource> source;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    source.reset();
    BuildServeSetup(options.seed, model_dir, &setup);
    labels.clear();
    std::vector<CollectedItem> working_set =
        LongHistoryItems(setup.deployment, options.seed, &labels);
    source = std::make_unique<DeltaSource>(
        std::move(working_set), &setup.held_out.store.items(), options.seed);
    // Cache the working set, then warm up on the mix.
    cached_scores.clear();
    for (const CollectedItem& item : source->mirror()) {
      const cats::serve::Message reply = setup.rig->loop.Call(
          cats::serve::MakeScoreItemRequest(0, item));
      if (reply.type != cats::serve::MessageType::kOk) {
        Fail("caching the serve_delta working set failed");
      }
      cached_scores.push_back(reply.payload.GetDouble("score").ok()
                                  ? *reply.payload.GetDouble("score")
                                  : 0.0);
    }
    WarmUp(setup.rig.get(), source.get(), kDeltaRates.nominal, options.seed);
    setup_s.push_back(SecondsSince(start));
  }
  report.Set("setup_s", Median(setup_s), "s");

  const double s = options.seconds;
  RunServePhases(setup.rig.get(), source.get(), kDeltaRates,
                 Plan(kDeltaRates, s, options.trace), options.seed, &tracer,
                 &report);
  if (options.trace) {
    MeasureInproc(setup.rig.get(), source.get(), kInprocRequests, &tracer,
                  &report);
    MeasureItemLayers(source->mirror(), setup.deployment.cats->detector(),
                      &tracer, &report);
    MeasureCrawlLayers({&setup.held_out}, &tracer, &report);
    report.Set("util.json.parse_us_per_kb",
               report.metrics["util.json.parse_us_per_kb.payloads"].first,
               "us/KiB");
  } else {
    RecordCapacity(setup.rig.get(), source.get(), kCapacityShare * s, &tracer,
                   &report);
    // Peak memory of serving; the search below overloads on purpose.
    report.Set("peak_rss_mb", PeakRssMb(), "MB");
    RecordMaxRate(setup.rig.get(), source.get(), kDeltaRates,
                  kSearchShare * s, options.seed, &tracer, &report);
  }

  // Correctness: each sampled delta rescore equals an offline full rescore
  // of the merged item, bit for bit.
  report.Check(!source->lost(), "every delta got a definite answer");
  report.Check(source->deltas_ok() > 0, "deltas were scored");
  std::vector<CollectedItem> merged;
  std::vector<std::optional<double>> served;
  for (const DeltaSource::Check& check : source->checks()) {
    CollectedItem item = source->mirror()[check.index];
    item.comments.resize(check.history);
    merged.push_back(std::move(item));
    served.push_back(check.served);
  }
  report.Check(!merged.empty(), "some delta rescores were sampled");
  CheckIdentity(setup.deployment.cats->detector(), merged, served,
                "a delta rescore equals a full rescore of the merged item",
                &report);
  // auc: the first score served for every item this run sent as a
  // score_item, the cached working set and the new items alike.
  std::vector<int> auc_labels = labels;
  std::vector<double> auc_scores = cached_scores;
  for (const auto& [index, score] : source->new_scores()) {
    auc_labels.push_back(setup.held_out_labels[index]);
    auc_scores.push_back(score);
  }
  report.Set("auc", AucOf(auc_labels, auc_scores, &report), "ratio");

  StopAndCheckBooks(setup.rig.get(), &report);
  if (options.trace) {
    report.Set("peak_rss_mb", PeakRssMb(), "MB");
    report.Check(tracer.Write(SpanPath(options)), "the span file was written");
  }
  return report;
}

}  // namespace perfbench
