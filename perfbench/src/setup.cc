#include "setup.h"

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <utility>

#include "fault/clock.h"
#include "platform/api.h"
#include "platform/comment_generator.h"
#include "platform/presets.h"
#include "util/logging.h"
#include "util/random.h"

namespace perfbench {
namespace {

// Semantic-model corpus, sized so one set-up stays at a few seconds with
// word2vec on one thread (the shared on-disk cache the other benches use
// made set-up time bimodal: 12 s cold, 0.2 s warm).
constexpr int kBenignCorpusDocs = 24000;
constexpr int kSpamTemplates = 300;
constexpr int kSpamPerTemplate = 12;
constexpr int kSentimentDocs = 3000;
// Labeled training platform (taobao dialect, D0 shape).
constexpr double kTrainScale = 0.03;

uint64_t Mix(uint64_t seed, uint64_t salt) {
  return (seed + salt) * 0x9E3779B97F4A7C15ull;
}

/// Virtual time, no throttle: the crawl's cost is the work, not pacing.
cats::collect::CrawlerOptions UnthrottledCrawler() {
  cats::collect::CrawlerOptions options;
  options.requests_per_second = 1e9;
  options.burst = 1e9;
  return options;
}

}  // namespace

void Fail(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

cats::platform::PlatformSpec SeededSpec(const std::string& name, double scale,
                                        uint64_t seed) {
  auto spec = cats::platform::BuiltinPlatform(name, scale);
  if (!spec.ok()) Fail(spec.status().ToString());
  spec->market.seed = Mix(seed, spec->market.seed);
  spec->api_seed = Mix(seed, spec->api_seed);
  return std::move(spec).value();
}

std::unique_ptr<cats::platform::Marketplace> GenerateMarket(
    const cats::platform::PlatformSpec& spec,
    const cats::platform::SyntheticLanguage& language) {
  return std::make_unique<cats::platform::Marketplace>(
      cats::platform::Marketplace::Generate(spec.market, &language));
}

void CrawlInto(const cats::platform::Marketplace& market,
               const cats::platform::PlatformSpec& spec,
               const cats::fault::FaultProfile& weather, size_t page_size,
               CrawledPlatform* out) {
  cats::fault::FakeClock clock;
  cats::platform::ApiOptions api_options;
  api_options.page_size = page_size;
  api_options.profile = spec.profile;
  api_options.faults = weather;
  api_options.seed = spec.api_seed;
  api_options.clock = &clock;
  cats::platform::MarketplaceApi api(&market, api_options);
  cats::collect::Crawler crawler(&api, UnthrottledCrawler(), &clock);

  using Clock = std::chrono::steady_clock;
  Clock::time_point last = Clock::now();
  const Clock::time_point start = last;
  out->item_latency_ms.clear();
  out->item_latency_ms.reserve(market.items().size());
  crawler.set_item_sink([&](const cats::collect::CollectedItem&) {
    const Clock::time_point now = Clock::now();
    out->item_latency_ms.push_back(
        std::chrono::duration<double, std::milli>(now - last).count());
    last = now;
    return true;
  });
  cats::Status st = crawler.Crawl(&out->store);
  out->crawl_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  if (!st.ok()) Fail("crawl of " + spec.profile.platform_id + ": " + st.ToString());
  out->stats = crawler.stats();
}

std::vector<int> TrueLabels(
    const cats::platform::Marketplace& market,
    const std::vector<cats::collect::CollectedItem>& items) {
  std::vector<int> labels;
  labels.reserve(items.size());
  for (const cats::collect::CollectedItem& ci : items) {
    labels.push_back(market.IsFraudItem(ci.item.item_id) ? 1 : 0);
  }
  return labels;
}

Deployment BuildDeployment(uint64_t seed, const std::string& model_dir) {
  cats::SetLogLevel(cats::LogLevel::kWarning);
  Deployment out;
  out.language = std::make_unique<cats::platform::SyntheticLanguage>(
      cats::platform::DefaultLanguageOptions());
  const cats::platform::SyntheticLanguage& language = *out.language;

  std::vector<std::string> corpus;
  corpus.reserve(kBenignCorpusDocs + kSpamTemplates * kSpamPerTemplate);
  std::vector<std::pair<std::string, bool>> sentiment_corpus;
  sentiment_corpus.reserve(kSentimentDocs);
  {
    cats::platform::CommentGenerator generator(&language);
    cats::Rng rng(Mix(seed, 0xC0FFEE));
    for (int i = 0; i < kBenignCorpusDocs; ++i) {
      corpus.push_back(generator.GenerateBenign(rng.Beta(4.0, 2.0), &rng));
    }
    for (int i = 0; i < kSpamTemplates; ++i) {
      const bool stealth = rng.Bernoulli(0.3);
      auto tmpl = generator.GenerateSpamTemplate(&rng, stealth);
      for (int j = 0; j < kSpamPerTemplate; ++j) {
        corpus.push_back(
            generator.GenerateSpamFromTemplate(tmpl, &rng, stealth));
      }
    }
    for (int i = 0; i < kSentimentDocs; ++i) {
      const bool positive = (i % 2) == 0;
      sentiment_corpus.emplace_back(
          generator.GenerateSentimentTrainingDoc(positive, &rng), positive);
    }
  }

  cats::core::CatsOptions options;
  options.semantic.word2vec.dim = 48;
  options.semantic.word2vec.epochs = 3;
  options.semantic.word2vec.num_threads = 1;  // Hogwild races are not repeatable
  options.semantic.word2vec.seed = Mix(seed, 0x2019);
  options.semantic.expansion.max_words = 200;
  options.semantic.expansion.min_similarity = 0.65f;
  options.semantic.expansion.min_centroid_similarity = 0.5f;
  options.semantic.expansion.max_iterations = 3;
  cats::core::Cats trainer(options);
  cats::Status st = trainer.BuildSemanticModel(
      corpus, language.BuildSegmentationDictionary(),
      language.PositiveSeeds(4), language.NegativeSeeds(4), sentiment_corpus);
  if (!st.ok()) Fail("semantic model: " + st.ToString());

  cats::platform::MarketplaceConfig train_config =
      cats::platform::TaobaoD0Config(kTrainScale);
  train_config.seed = Mix(seed, 0xD0D0);
  cats::platform::PlatformSpec train_spec = SeededSpec("taobao", kTrainScale, seed);
  train_spec.market = train_config;
  auto train_market = GenerateMarket(train_spec, language);
  CrawledPlatform train;
  CrawlInto(*train_market, train_spec, cats::fault::FaultProfile::None(),
            kPageSize, &train);
  st = trainer.TrainDetector(train.store.items(),
                             TrueLabels(*train_market, train.store.items()));
  if (!st.ok()) Fail("detector training: " + st.ToString());

  std::filesystem::remove_all(model_dir);
  std::filesystem::create_directories(model_dir);
  st = trainer.SaveModel(model_dir);
  if (!st.ok()) Fail("model save: " + st.ToString());
  out.model_dir = model_dir;
  out.cats = std::make_unique<cats::core::Cats>();
  st = out.cats->LoadModel(model_dir);
  if (!st.ok()) Fail("model load: " + st.ToString());
  return out;
}

}  // namespace perfbench
