// crawl_detect: the paper's offline crawl-then-detect path, as a
// third-party analyst runs it. Each timed pass crawls the three built-in
// dialects (taobao, jademall, bazaar) single-threaded under each platform's
// default weather on a virtual clock with no throttle, then runs one
// Detector::Detect with default options over every crawled item. Page
// rendering, JSON parsing, normalizing, segmenting, pooled batch
// extraction and batch predict do all the work; the serve path does none.

#include <algorithm>
#include <chrono>
#include <unordered_map>

#include "federate/federation.h"
#include "layers.h"
#include "ml/metrics.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "report.h"
#include "serve_rig.h"
#include "setup.h"
#include "stats.h"

namespace perfbench {
namespace {

using cats::collect::CollectedItem;

constexpr int kSetupReps = 3;
constexpr size_t kMinPasses = 3;
/// Platform scale: ~820 items and ~11k comments per platform.
constexpr double kScale = 0.02;
constexpr size_t kInprocRequests = 400;

struct CrawlSetup {
  Deployment deployment;
  std::vector<CrawledPlatform> platforms;  // spec + market; stores per pass
  size_t truth_items = 0;
};

/// What one timed pass produced.
struct Pass {
  std::vector<CrawledPlatform> crawled;
  std::vector<CollectedItem> items;  // merged, ids namespaced per platform
  std::vector<int> labels;           // aligned with items
  cats::core::DetectionReport report;
  double seconds = 0.0;
};

Pass RunPass(const CrawlSetup& setup, Tracer* tracer) {
  Pass pass;
  const auto start = std::chrono::steady_clock::now();
  ScopedSpan pass_span(tracer, "pass");
  pass.crawled.resize(setup.platforms.size());
  for (size_t p = 0; p < setup.platforms.size(); ++p) {
    const CrawledPlatform& platform = setup.platforms[p];
    ScopedSpan span(tracer, "crawl." + platform.spec.profile.platform_id);
    pass.crawled[p].spec = platform.spec;
    pass.crawled[p].market = platform.market;
    CrawlInto(*platform.market, platform.spec, platform.spec.default_weather,
              kPageSize, &pass.crawled[p]);
  }
  {
    // One detection plane over every platform: ids are namespaced per
    // platform the way the federation merges its shards.
    ScopedSpan span(tracer, "merge");
    pass.items.reserve(setup.truth_items);
    for (size_t p = 0; p < pass.crawled.size(); ++p) {
      const uint64_t offset = (p + 1) * cats::federate::kFederationIdStride;
      for (const CollectedItem& item : pass.crawled[p].store.items()) {
        pass.labels.push_back(
            setup.platforms[p].market->IsFraudItem(item.item.item_id) ? 1 : 0);
        CollectedItem copy = item;
        copy.item.item_id += offset;
        for (auto& c : copy.comments) c.item_id = copy.item.item_id;
        pass.items.push_back(std::move(copy));
      }
    }
  }
  {
    ScopedSpan span(tracer, "detect");
    auto report = setup.deployment.cats->detector().Detect(pass.items);
    if (!report.ok()) Fail("Detect: " + report.status().ToString());
    pass.report = std::move(report).value();
  }
  pass.seconds = SecondsSince(start);
  return pass;
}

/// Per-pass checks: every platform crawled exactly its ground truth, and
/// every scanned item landed in exactly one report bucket.
void CheckPass(const CrawlSetup& setup, const Pass& pass, RunReport* report) {
  for (size_t p = 0; p < pass.crawled.size(); ++p) {
    const auto& market = *setup.platforms[p].market;
    const auto& store = pass.crawled[p].store;
    report->Check(store.items().size() == market.items().size() &&
                      store.num_comments() == market.comments().size() &&
                      store.shops().size() == market.shops().size(),
                  "crawl of " + setup.platforms[p].spec.profile.platform_id +
                      " equals the platform's ground truth");
  }
  const cats::core::DetectionReport& r = pass.report;
  report->Check(r.items_scanned == setup.truth_items &&
                    r.items_scanned == r.items_quarantined +
                                           r.items_filtered_low_sales +
                                           r.items_filtered_no_signal +
                                           r.items_filtered_no_comments +
                                           r.items_classified,
                "every scanned item lands in exactly one report bucket");
}

/// The detector's score for every item (0 for items stage 1 removed), and
/// a check that Detect's flagged items carry exactly those scores.
std::vector<double> ScoresOf(const cats::core::Detector& detector,
                             const Pass& pass, RunReport* report) {
  cats::core::StagedBatch staged = detector.StageForScoring(pass.items);
  std::vector<cats::core::FeatureVector> rows(staged.pending.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    std::copy_n(staged.rows.begin() + static_cast<std::ptrdiff_t>(i * rows[i].size()),
                rows[i].size(), rows[i].begin());
  }
  auto scored = detector.ScoreFeatures(rows);
  if (!scored.ok()) Fail("ScoreFeatures: " + scored.status().ToString());
  std::unordered_map<uint64_t, double> by_id;
  for (size_t i = 0; i < rows.size(); ++i) {
    by_id[staged.pending[i].item_id] = (*scored)[i];
  }
  size_t mismatches = 0;
  int64_t flagged = 0;  // Detect's flags minus the items over threshold
  for (const auto* list :
       {&pass.report.detections, &pass.report.degraded_detections}) {
    for (const cats::core::Detection& d : *list) {
      auto it = by_id.find(d.item_id);
      if (it == by_id.end() || it->second != d.score) ++mismatches;
      ++flagged;
    }
  }
  for (const auto& [id, score] : by_id) {
    if (score >= detector.decision_threshold()) --flagged;
  }
  report->Check(mismatches == 0 && flagged == 0,
                "Detect flags exactly the items whose score clears the "
                "threshold, with the same scores");
  std::vector<double> scores;
  scores.reserve(pass.items.size());
  for (const CollectedItem& item : pass.items) {
    auto it = by_id.find(item.item.item_id);
    scores.push_back(it == by_id.end() ? 0.0 : it->second);
  }
  return scores;
}

/// The traced run's serve leg: serve-side layers measured on the crawled
/// items, so every workload reports the same per-layer metrics.
void ServeProbe(const CrawlSetup& setup, const std::vector<CollectedItem>& items,
                uint64_t seed, Tracer* tracer, RunReport* report) {
  ServeRig rig(setup.deployment, items);
  ScoreItemSource source(items, seed);
  RunReport leg;
  WarmUp(&rig, &source, kScoreRates.nominal, seed);
  PhasePlan plan;
  plan.rounds = 1;
  plan.nominal_window_s = WindowSeconds(kScoreRates.nominal, 0.0);
  plan.high_window_s = WindowSeconds(kScoreRates.high, 0.0);
  RunServePhases(&rig, &source, kScoreRates, plan, seed, tracer, &leg);
  MeasureInproc(&rig, &source, kInprocRequests, tracer, &leg);
  StopAndCheckBooks(&rig, &leg);
  for (const auto& [name, value] : leg.metrics) {
    if (name.rfind("serve.", 0) == 0 || name.rfind("bench.", 0) == 0) {
      report->metrics[name] = value;
    }
  }
  for (const std::string& failure : leg.check_failures) {
    report->Check(false, "serve leg: " + failure);
  }
}

}  // namespace

RunReport RunCrawlDetect(const RunOptions& options) {
  RunReport report;
  Tracer tracer(options.trace);
  const std::string model_dir = options.out_dir + "/model-crawl_detect";

  // Set-up, repeated so setup_s is a median: model, the three platforms,
  // and one untimed warm-up pass.
  std::vector<double> setup_s;
  CrawlSetup setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    setup = CrawlSetup{};
    setup.deployment = BuildDeployment(options.seed, model_dir);
    for (const std::string& name : cats::platform::BuiltinPlatformNames()) {
      CrawledPlatform platform;
      platform.spec = SeededSpec(name, kScale, options.seed);
      platform.market = GenerateMarket(platform.spec, *setup.deployment.language);
      setup.truth_items += platform.market->items().size();
      setup.platforms.push_back(std::move(platform));
    }
    Tracer off(false);
    CheckPass(setup, RunPass(setup, &off), &report);
    setup_s.push_back(SecondsSince(start));
  }
  report.Set("setup_s", Median(setup_s), "s");

  // Timed passes until the run's seconds are spent. The traced run
  // alternates untraced and traced passes; their median ratio is the
  // tracing overhead.
  std::vector<double> items_per_s;
  std::vector<double> traced_s;
  std::vector<double> untraced_s;
  std::vector<double> pass_p50_ms;
  std::vector<double> pass_p99_ms;
  bool enough_samples = true;
  Tracer off(false);
  Pass last;
  const auto start = std::chrono::steady_clock::now();
  while (items_per_s.size() < kMinPasses || SecondsSince(start) < options.seconds) {
    const bool traced = options.trace && items_per_s.size() % 2 == 1;
    Pass pass = RunPass(setup, traced ? &tracer : &off);
    CheckPass(setup, pass, &report);
    items_per_s.push_back(static_cast<double>(setup.truth_items) / pass.seconds);
    (traced ? traced_s : untraced_s).push_back(pass.seconds);
    std::vector<double> item_latency_ms;
    for (const CrawledPlatform& p : pass.crawled) {
      item_latency_ms.insert(item_latency_ms.end(), p.item_latency_ms.begin(),
                             p.item_latency_ms.end());
    }
    const auto p50 = TailQuantile(item_latency_ms, 0.50);
    const auto p99 = TailQuantile(item_latency_ms, 0.99);
    if (p99.has_value()) {
      pass_p50_ms.push_back(*p50);
      pass_p99_ms.push_back(*p99);
    } else {
      enough_samples = false;
    }
    // failed_share for a batch job: items the platforms hold but the
    // report does not cover.
    report.attempted += setup.truth_items;
    report.failed += setup.truth_items -
                     std::min(setup.truth_items, pass.report.items_scanned);
    last = std::move(pass);
  }
  report.Set("items_per_s", Median(items_per_s), "items/s");
  report.Set("crawl_detect.passes", static_cast<double>(items_per_s.size()),
             "count");
  // Per-item collection latency: each pass's p50 and p99 (a pass holds
  // ~2500 items), reported as the median over passes.
  report.Check(enough_samples, "at least 1000 items per pass (p99 rule)");
  report.Set("lat_p50_ms", Median(pass_p50_ms), "ms");
  report.Set("lat_p99_ms", Median(pass_p99_ms), "ms");
  const cats::core::Detector& detector = setup.deployment.cats->detector();
  report.Set("auc", cats::ml::RocAuc(last.labels, ScoresOf(detector, last, &report)),
             "ratio");

  if (options.trace) {
    report.Set("bench.trace_overhead_share",
               Median(traced_s) / Median(untraced_s) - 1.0, "ratio");
    std::vector<const CrawledPlatform*> crawled;
    for (const CrawledPlatform& p : last.crawled) crawled.push_back(&p);
    MeasureCrawlLayers(crawled, &tracer, &report);
    report.Set("util.json.parse_us_per_kb",
               report.metrics["util.json.parse_us_per_kb.pages"].first,
               "us/KiB");
    MeasureItemLayers(last.items, detector, &tracer, &report);
    // Comments the pooled extractor processed per item in one Detect.
    auto& registry = cats::obs::MetricsRegistry::Global();
    const uint64_t before = registry.Snapshot().CounterValue(
        cats::obs::kExtractorCommentsProcessedTotal);
    if (!detector.Detect(last.items).ok()) Fail("Detect failed");
    const uint64_t after = registry.Snapshot().CounterValue(
        cats::obs::kExtractorCommentsProcessedTotal);
    report.Set("core.comments_extracted_per_request",
               static_cast<double>(after - before) /
                   static_cast<double>(last.items.size()),
               "count");
    ServeProbe(setup, last.items, options.seed, &tracer, &report);
    report.Check(tracer.Write(SpanPath(options)), "the span file was written");
  }
  report.Set("peak_rss_mb", PeakRssMb(), "MB");
  return report;
}

}  // namespace perfbench
