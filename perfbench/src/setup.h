#ifndef PERFBENCH_SETUP_H_
#define PERFBENCH_SETUP_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "collect/crawler.h"
#include "collect/store.h"
#include "core/cats.h"
#include "fault/fault_plan.h"
#include "platform/language_model.h"
#include "platform/marketplace.h"
#include "platform/profile.h"

namespace perfbench {

/// The model every workload scores with, built from the run seed alone:
/// a generated comment corpus trains the semantic model (word2vec pinned to
/// one thread, so the model and every score repeat exactly for a seed), a
/// generated labeled taobao platform trains the GBDT, and the result is
/// saved through the manifest path and loaded back — the same bytes the
/// serving plane boots from. Nothing is read from a cache shared across
/// runs.
struct Deployment {
  std::unique_ptr<cats::platform::SyntheticLanguage> language;
  std::string model_dir;
  std::unique_ptr<cats::core::Cats> cats;  // loaded back from model_dir
};

/// Builds a Deployment into `model_dir` (created fresh). Fails the run on
/// any error: a benchmark without its model has nothing to measure.
Deployment BuildDeployment(uint64_t seed, const std::string& model_dir);

/// One generated platform and the store a crawl of it produced. Every
/// pass's crawl of a platform shares the one generated market.
struct CrawledPlatform {
  cats::platform::PlatformSpec spec;
  std::shared_ptr<const cats::platform::Marketplace> market;
  cats::collect::DataStore store;
  cats::collect::CrawlStats stats;
  double crawl_seconds = 0.0;
  /// Wall time between consecutive item completions (the crawler's item
  /// sink): the time to collect one item's comment pages.
  std::vector<double> item_latency_ms;
};

/// A built-in platform spec (platform/profile.h) whose market and fault
/// plan are reseeded from `seed`.
cats::platform::PlatformSpec SeededSpec(const std::string& name, double scale,
                                        uint64_t seed);

/// Generates the spec's marketplace.
std::unique_ptr<cats::platform::Marketplace> GenerateMarket(
    const cats::platform::PlatformSpec& spec,
    const cats::platform::SyntheticLanguage& language);

/// Crawls `market` single-threaded through its own MarketplaceApi under
/// `weather`, on a virtual clock with no throttle. Fills everything in
/// CrawledPlatform except spec and market.
void CrawlInto(const cats::platform::Marketplace& market,
               const cats::platform::PlatformSpec& spec,
               const cats::fault::FaultProfile& weather, size_t page_size,
               CrawledPlatform* out);

/// Page size every workload's simulated API serves.
inline constexpr size_t kPageSize = 50;

/// Ground-truth fraud labels aligned with `items`.
std::vector<int> TrueLabels(const cats::platform::Marketplace& market,
                            const std::vector<cats::collect::CollectedItem>& items);

/// Peak resident set size of this process so far, in MB.
double PeakRssMb();

/// Aborts the run with a message (exit code 2, no result line).
[[noreturn]] void Fail(const std::string& message);

}  // namespace perfbench

#endif  // PERFBENCH_SETUP_H_
