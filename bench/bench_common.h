// Shared plumbing for the table-reproduction benches.
//
// Every bench binary runs argument-free. POETBIN_BENCH_SCALE (a float,
// default 1.0) scales dataset sizes so CI can run quick sanity sweeps
// (e.g. POETBIN_BENCH_SCALE=0.25) while the default prints the full-size
// numbers.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.h"

namespace poetbin::bench {

// POETBIN_BENCH_SCALE env var, clamped to [0.05, 4].
double bench_scale();

// The three paper configurations at bench scale (M1/C1/S1 of Table 1).
PipelineConfig config_mnist();
PipelineConfig config_cifar10();
PipelineConfig config_svhn();

struct DatasetRun {
  std::string paper_name;  // MNIST / CIFAR-10 / SVHN
  std::string family;      // digits / textures / house_numbers
  PipelineConfig config;
  PipelineResult result;
};

// Runs all three pipelines (expensive; each bench that needs trained models
// calls this once).
std::vector<DatasetRun> run_all_pipelines(bool verbose = false);

// Accuracy as "98.15"-style percent string.
std::string pct(double accuracy);

void print_header(const std::string& title, const std::string& paper_ref);

// Collects named metrics and, when POETBIN_BENCH_JSON names a path, writes
// them there as one JSON object on destruction:
//   {"bench": "<name>", "scale": <s>, "metrics": {"<key>": <value>, ...}}
// CI merges the per-bench files into the bench_results.json artifact — the
// raw material of the perf-regression record. No env var, no file.
class JsonResults {
 public:
  explicit JsonResults(std::string bench_name);
  ~JsonResults();

  JsonResults(const JsonResults&) = delete;
  JsonResults& operator=(const JsonResults&) = delete;

  void add(const std::string& key, double value);

 private:
  std::string name_;
  std::vector<std::pair<std::string, double>> metrics_;
};

// Prints the available SIMD word backends (and the default dispatch) and
// records "backends_mask" (sum of 1 << backend) in `json` — the key
// tools/bench_diff.py uses to detect runner-hardware changes between CI
// runs. Call once per bench, after the header.
void report_word_backends(JsonResults& json);

}  // namespace poetbin::bench
