// cats_perfbench: runs one benchmark workload and prints its report.
//
//   cats_perfbench --workload crawl_detect|serve_delta
//                  --seed N --seconds S --trace 0|1 --out-dir DIR
//
// The last line of stdout is one JSON object: correct, attempted, failed,
// check_failures and every metric the run measured ({"value","unit"}).
// perfbench/run.py selects the metrics BENCHMARK.json names from it. With
// --trace 1 the run also writes DIR/spans-<workload>-<seed>.jsonl.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "report.h"
#include "setup.h"
#include "util/json.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: cats_perfbench --workload crawl_detect|serve_delta "
               "--seed N --seconds S --trace 0|1 --out-dir DIR\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      Usage();
    }
  }
  if (!have_seed || options.out_dir.empty() || options.seconds <= 0.0) Usage();
  std::filesystem::create_directories(options.out_dir);

  perfbench::RunReport report;
  if (options.workload == "crawl_detect") {
    report = perfbench::RunCrawlDetect(options);
  } else if (options.workload == "serve_delta") {
    report = perfbench::RunServeDelta(options);
  } else {
    Usage();
  }
  std::filesystem::remove_all(options.out_dir + "/model-" + options.workload);

  cats::JsonValue out = cats::JsonValue::Object();
  out.Set("correct", cats::JsonValue::Bool(report.correct));
  out.Set("attempted",
          cats::JsonValue::Int(static_cast<int64_t>(report.attempted)));
  out.Set("failed", cats::JsonValue::Int(static_cast<int64_t>(report.failed)));
  cats::JsonValue failures = cats::JsonValue::Array();
  for (const std::string& f : report.check_failures) {
    failures.Append(cats::JsonValue::String(f));
  }
  out.Set("check_failures", std::move(failures));
  cats::JsonValue metrics = cats::JsonValue::Object();
  for (const auto& [name, value] : report.metrics) {
    cats::JsonValue m = cats::JsonValue::Object();
    m.Set("value", cats::JsonValue::Number(value.first));
    m.Set("unit", cats::JsonValue::String(value.second));
    metrics.Set(name, std::move(m));
  }
  out.Set("metrics", std::move(metrics));
  std::printf("%s\n", out.Serialize().c_str());
  return report.correct ? 0 : 1;
}
