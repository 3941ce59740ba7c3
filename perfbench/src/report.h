#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// The command line of one run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory inside the checkout (model dir, span file, ledger).
  std::string out_dir;
};

/// Everything one run measured and checked. `metrics` is the full ledger
/// (end-to-end and per-layer); main.cc prints the subset BENCHMARK.json
/// names and writes the whole ledger beside the span file.
struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> check_failures;
  std::map<std::string, std::pair<double, std::string>> metrics;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Records one correctness check; a failed check fails the run.
  void Check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    check_failures.push_back(what);
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
};

/// Where a traced run writes its spans: <out_dir>/spans-<workload>-<seed>.jsonl.
inline std::string SpanPath(const RunOptions& options) {
  return options.out_dir + "/spans-" + options.workload + "-" +
         std::to_string(options.seed) + ".jsonl";
}

RunReport RunCrawlDetect(const RunOptions& options);
RunReport RunServeDelta(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
