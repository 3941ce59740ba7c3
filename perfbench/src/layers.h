#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <vector>

#include "collect/store.h"
#include "core/detector.h"
#include "report.h"
#include "setup.h"
#include "trace.h"

// Per-layer timings, taken from outside: every number comes from calling a
// module's public API from the benchmark's own code, timed by the wall
// clock. Nothing inside src/ is instrumented.
namespace perfbench {

/// The crawl path, over every route the crawls in `platforms` walked:
/// replays each page against a fault-free copy of the platform's API and
/// times the simulator's render (MarketplaceApi::Get), the JSON parse of
/// the body, the dialect's page parse (SchemaNormalizer::ParsePage) and
/// the record normalizers. The crawler's own share is the recorded crawl
/// wall time minus those parts. Sets platform.*, collect.* and
/// util.json.parse_us_per_kb.pages.
void MeasureCrawlLayers(const std::vector<const CrawledPlatform*>& platforms,
                        Tracer* tracer, RunReport* report);

/// The scoring path over `items`: segmentation, validation, pooled and
/// serial extraction, stage-1 rules, one-item staging, batch and
/// serve-sized predict, drift observation, and the serve codec (frame
/// encode, frame decode, payload decode, payload JSON parse). Sets text.*,
/// core.* (except comments_extracted_per_request), ml.*, drift.*,
/// serve.{encode,frame_decode,payload_decode}_us and
/// util.json.parse_us_per_kb.payloads.
void MeasureItemLayers(const std::vector<cats::collect::CollectedItem>& items,
                       const cats::core::Detector& detector, Tracer* tracer,
                       RunReport* report);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
