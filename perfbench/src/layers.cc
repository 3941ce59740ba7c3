#include "layers.h"

#include <algorithm>
#include <string>

#include "collect/normalizer.h"
#include "core/feature_extractor.h"
#include "core/rule_filter.h"
#include "drift/drift_detector.h"
#include "platform/api.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "stats.h"
#include "text/token_ids.h"

namespace perfbench {
namespace {

using cats::collect::CollectedItem;

/// Rows per predict call on the serve path's side of ml.*: the serve
/// workers' micro-batches are at most 16 requests.
constexpr size_t kServeBatchRows = 8;

enum class Endpoint { kShops, kItems, kComments };

struct CrawlWalk {
  double render_us = 0.0;
  double json_us = 0.0;
  double parse_us = 0.0;
  double normalize_us = 0.0;
  size_t pages = 0;
  size_t records = 0;
  size_t bytes = 0;
};

/// Walks every page of one paginated endpoint, timing each layer. Returns
/// the ids of the records it normalized (shop ids or item ids), so the
/// caller can walk the next level down.
std::vector<uint64_t> WalkEndpoint(cats::platform::MarketplaceApi* api,
                                   const cats::collect::SchemaNormalizer& norm,
                                   const std::string& route, Endpoint kind,
                                   Tracer* tracer, CrawlWalk* walk) {
  const cats::platform::PlatformProfile& profile = norm.profile();
  std::vector<uint64_t> ids;
  for (size_t page_index = 0;; ++page_index) {
    const std::string path =
        route + profile.PageQuery(page_index, api->page_size());
    cats::Result<std::string> body = cats::Status::Internal("not run");
    walk->render_us += WallMicros([&] {
      ScopedSpan span(tracer, "platform.render");
      body = api->Get(path);
    });
    if (!body.ok()) {
      if (body.status().code() == cats::StatusCode::kOutOfRange) break;
      Fail("replay of " + path + ": " + body.status().ToString());
    }
    walk->bytes += body->size();
    walk->json_us += WallMicros([&] {
      ScopedSpan span(tracer, "util.json.parse");
      if (!cats::JsonValue::Parse(*body).ok()) Fail("unparseable page " + path);
    });
    cats::Result<cats::collect::Page> page = cats::Status::Internal("not run");
    walk->parse_us += WallMicros([&] {
      ScopedSpan span(tracer, "collect.parse_page");
      page = norm.ParsePage(*body, api->page_size());
    });
    if (!page.ok()) Fail("page parse of " + path + ": " + page.status().ToString());
    ++walk->pages;
    walk->normalize_us += WallMicros([&] {
      ScopedSpan span(tracer, "collect.normalize");
      for (const cats::JsonValue& record : page->data) {
        switch (kind) {
          case Endpoint::kShops: {
            auto shop = norm.NormalizeShop(record);
            if (shop.ok()) ids.push_back(shop->shop_id);
            break;
          }
          case Endpoint::kItems: {
            auto item = norm.NormalizeItem(record);
            if (item.ok()) ids.push_back(item->item_id);
            break;
          }
          case Endpoint::kComments: {
            if (!norm.NormalizeComment(record).ok()) {
              Fail("comment normalize failed on " + path);
            }
            break;
          }
        }
      }
    });
    walk->records += page->data.size();
    if (!page->has_more) break;
  }
  return ids;
}

std::vector<cats::core::FeatureVector> SerialRows(
    const cats::core::FeatureExtractor& extractor,
    const std::vector<CollectedItem>& items) {
  std::vector<cats::core::FeatureVector> rows;
  rows.reserve(items.size());
  for (const CollectedItem& item : items) rows.push_back(extractor.Extract(item));
  return rows;
}

}  // namespace

void MeasureCrawlLayers(const std::vector<const CrawledPlatform*>& platforms,
                        Tracer* tracer, RunReport* report) {
  CrawlWalk total;
  double crawl_us = 0.0;
  uint64_t requests = 0;
  uint64_t pages_fetched = 0;
  size_t items = 0;
  for (const CrawledPlatform* platform : platforms) {
    ScopedSpan span(tracer, "replay." + platform->spec.profile.platform_id);
    cats::platform::ApiOptions api_options;
    api_options.page_size = kPageSize;
    api_options.profile = platform->spec.profile;
    api_options.faults = cats::fault::FaultProfile::None();
    api_options.seed = platform->spec.api_seed;
    cats::platform::MarketplaceApi api(platform->market.get(), api_options);
    cats::collect::SchemaNormalizer norm(&api.profile());

    CrawlWalk walk;
    const cats::platform::PlatformProfile& profile = api.profile();
    for (uint64_t shop : WalkEndpoint(&api, norm, profile.ShopsRoute(),
                                      Endpoint::kShops, tracer, &walk)) {
      for (uint64_t item :
           WalkEndpoint(&api, norm, profile.ItemsRoute(shop), Endpoint::kItems,
                        tracer, &walk)) {
        WalkEndpoint(&api, norm, profile.CommentsRoute(item),
                     Endpoint::kComments, tracer, &walk);
      }
    }
    report->Set("collect.parse_page_us." + profile.platform_id,
                walk.parse_us / static_cast<double>(walk.pages), "us");
    total.render_us += walk.render_us;
    total.json_us += walk.json_us;
    total.parse_us += walk.parse_us;
    total.normalize_us += walk.normalize_us;
    total.pages += walk.pages;
    total.records += walk.records;
    total.bytes += walk.bytes;
    crawl_us += platform->crawl_seconds * 1e6;
    requests += platform->stats.requests;
    pages_fetched += platform->stats.pages_fetched;
    items += platform->store.items().size();
  }
  const double pages = static_cast<double>(total.pages);
  const double render_per_page = total.render_us / pages;
  const double parse_per_page = total.parse_us / pages;
  const double normalize_per_record =
      total.normalize_us / static_cast<double>(total.records);
  report->Set("platform.render_us_per_page", render_per_page, "us");
  report->Set("util.json.parse_us_per_kb.pages",
              total.json_us / (static_cast<double>(total.bytes) / 1024.0),
              "us/KiB");
  report->Set("collect.parse_page_us", parse_per_page, "us");
  report->Set("collect.normalize_us_per_record", normalize_per_record, "us");
  report->Set("collect.requests_per_page",
              static_cast<double>(requests) /
                  static_cast<double>(std::max<uint64_t>(1, pages_fetched)),
              "ratio");
  // The crawl renders once per request, parses once per fetched page and
  // normalizes every record it banked (plus the listings it walked).
  report->Set("collect.crawler_self_us_per_item",
              CrawlerSelfMicrosPerItem(
                  crawl_us, render_per_page * static_cast<double>(requests),
                  parse_per_page * static_cast<double>(pages_fetched),
                  total.normalize_us, items),
              "us");
}

void MeasureItemLayers(const std::vector<CollectedItem>& items,
                       const cats::core::Detector& detector, Tracer* tracer,
                       RunReport* report) {
  const double n_items = static_cast<double>(items.size());
  const cats::core::SemanticModel& model = detector.extractor().model();

  // text: the token-id segmenter over every comment.
  size_t comments = 0;
  for (const CollectedItem& item : items) comments += item.comments.size();
  {
    const cats::text::IdSegmenter& segmenter = model.token_index->segmenter();
    cats::text::TokenArena arena;
    ScopedSpan span(tracer, "text.segment");
    const double us = WallMicros([&] {
      for (const CollectedItem& item : items) {
        arena.Reset();
        for (const auto& c : item.comments) segmenter.SegmentToIds(c.content, &arena);
      }
    });
    report->Set("text.segment_us_per_comment",
                us / static_cast<double>(std::max<size_t>(1, comments)), "us");
  }

  // core: validation, pooled and serial extraction, rules, staging.
  {
    ScopedSpan span(tracer, "core.validate");
    const double us = WallMicros([&] {
      for (const CollectedItem& item : items) detector.validator().Validate(item);
    });
    report->Set("core.validate_us_per_item", us / n_items, "us");
  }
  const cats::core::FeatureExtractor pooled(&model,
                                            cats::core::FeatureExtractorOptions{});
  const cats::core::FeatureExtractor serial(
      &model, cats::core::FeatureExtractorOptions{.num_threads = 1});
  std::vector<cats::core::FeatureVector> rows;
  {
    ScopedSpan span(tracer, "core.extract");
    const double us = WallMicros([&] { rows = pooled.ExtractAll(items); });
    report->Set("core.extract_us_per_item", us / n_items, "us");
  }
  {
    ScopedSpan span(tracer, "core.extract.serial");
    std::vector<cats::core::FeatureVector> serial_rows;
    const double us = WallMicros([&] { serial_rows = SerialRows(serial, items); });
    report->Set("core.extract_us_per_item.serial", us / n_items, "us");
    report->Check(serial_rows == rows,
                  "pooled and serial extraction produce the same features");
  }
  {
    const cats::core::RuleFilter filter;
    ScopedSpan span(tracer, "core.rules");
    const double us = WallMicros([&] {
      for (size_t i = 0; i < items.size(); ++i) filter.Evaluate(items[i], rows[i]);
    });
    report->Set("core.rules_us_per_item", us / n_items, "us");
  }
  {
    ScopedSpan span(tracer, "core.stage");
    const double us = WallMicros([&] {
      for (const CollectedItem& item : items) {
        detector.StageForScoring({item}, nullptr, &serial);
      }
    });
    report->Set("core.stage_us_per_request", us / n_items, "us");
  }

  // ml: one batch over every row, and serve-sized batches.
  std::vector<float> flat;
  flat.reserve(rows.size() * cats::core::kNumFeatures);
  for (const auto& row : rows) flat.insert(flat.end(), row.begin(), row.end());
  std::vector<double> scores;
  {
    ScopedSpan span(tracer, "ml.predict.batch");
    const double us = WallMicros([&] {
      scores = detector.classifier().PredictProbaBatch(
          flat.data(), rows.size(), cats::core::kNumFeatures);
    });
    report->Set("ml.predict_us_per_row.batch", us / n_items, "us");
  }
  std::vector<std::vector<double>> small_scores;
  {
    size_t calls = 0;
    ScopedSpan span(tracer, "ml.predict.small");
    const double us = WallMicros([&] {
      for (size_t i = 0; i < rows.size(); i += kServeBatchRows, ++calls) {
        std::vector<cats::core::FeatureVector> batch(
            rows.begin() + static_cast<std::ptrdiff_t>(i),
            rows.begin() + static_cast<std::ptrdiff_t>(
                               std::min(rows.size(), i + kServeBatchRows)));
        auto scored = detector.ScoreFeatures(batch);
        if (!scored.ok()) Fail("ScoreFeatures: " + scored.status().ToString());
        small_scores.push_back(std::move(scored).value());
      }
    });
    report->Set("ml.predict_us_per_call.small",
                us / static_cast<double>(std::max<size_t>(1, calls)), "us");
  }

  // drift: the serve path observes each micro-batch's scores.
  {
    cats::drift::DriftDetector drift(cats::drift::DriftDetectorOptions{});
    drift.SetReference(scores);
    ScopedSpan span(tracer, "drift.observe");
    const double us = WallMicros([&] {
      for (const auto& batch : small_scores) drift.ObserveBatch(batch);
    });
    report->Set("drift.observe_us_per_batch",
                us / static_cast<double>(std::max<size_t>(1, small_scores.size())),
                "us");
  }

  // serve codec: what one score_item request costs to encode and decode.
  {
    double encode_us = 0.0;
    double frame_us = 0.0;
    double payload_us = 0.0;
    double json_us = 0.0;
    size_t payload_bytes = 0;
    ScopedSpan span(tracer, "serve.codec");
    for (size_t i = 0; i < items.size(); ++i) {
      const cats::serve::Message request =
          cats::serve::MakeScoreItemRequest(static_cast<uint32_t>(i), items[i]);
      std::string frame;
      encode_us += WallMicros([&] { frame = cats::serve::EncodeFrame(request); });
      cats::Result<cats::serve::Message> decoded = cats::Status::Internal("not run");
      frame_us += WallMicros([&] {
        cats::serve::FrameReader reader;
        reader.Feed(frame);
        decoded = reader.Next();
      });
      if (!decoded.ok()) Fail("frame decode: " + decoded.status().ToString());
      payload_us += WallMicros([&] {
        if (!cats::serve::CollectedItemFromJson(decoded->payload).ok()) {
          Fail("payload decode failed");
        }
      });
      const std::string_view payload(frame.data() + cats::serve::kFrameHeaderBytes,
                                     frame.size() - cats::serve::kFrameHeaderBytes);
      payload_bytes += payload.size();
      json_us += WallMicros([&] { (void)cats::JsonValue::Parse(payload); });
    }
    report->Set("serve.encode_us", encode_us / n_items, "us");
    report->Set("serve.frame_decode_us", frame_us / n_items, "us");
    report->Set("serve.payload_decode_us", payload_us / n_items, "us");
    report->Set("util.json.parse_us_per_kb.payloads",
                json_us / (static_cast<double>(payload_bytes) / 1024.0),
                "us/KiB");
  }
}

}  // namespace perfbench
