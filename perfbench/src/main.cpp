// poetbin_perfbench: runs one benchmark workload and prints its metrics.
//
//   poetbin_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                     [--work-dir <dir>] [--trace-out <file>]
//                     [--tiny] [--inject-wrong]
//
// --trace 0 measures the workload once. --trace 1 measures it twice on the
// same seed, each pass with half the time, the second with spans recorded
// around every call into a library layer; it adds the per-layer metrics and
// the traced-minus-untraced difference of every metric of the first pass
// (trace_overhead.<name>), and writes the spans to --trace-out. The last
// line of stdout is one JSON object with every metric the run set:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// run.py keeps the metrics BENCHMARK.json names for the mode. A wrong
// answer anywhere makes `correct` false and the exit code 1.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common.h"
#include "trace.h"

namespace {

using perfbench::Sheet;

std::string number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

// Every metric the run set, by name with its unit. run.py picks out the
// ones BENCHMARK.json names for the mode.
void print_result(const Sheet& sheet) {
  std::string json = "{\"correct\": ";
  json += sheet.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(sheet.attempted);
  json += ", \"failed\": " + std::to_string(sheet.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : sheet.metrics) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + number(metric.value) +
            ", \"unit\": \"" + metric.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "poetbin_perfbench: %s\nusage: poetbin_perfbench --workload "
               "<serve-...|offline-...> "
               "--seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>] "
               "[--trace-out <file>] [--tiny] [--inject-wrong]\n",
               why);
  std::exit(2);
}

void run(const perfbench::RunConfig& config, perfbench::Tracer* tracer,
         Sheet* sheet) {
  if (config.workload.rfind("serve-", 0) == 0) {
    perfbench::run_serving(config, tracer, sheet);
  } else if (config.workload.rfind("offline-", 0) == 0) {
    perfbench::run_offline(config, tracer, sheet);
  } else {
    usage(("unknown workload '" + config.workload + "'").c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  config.work_dir = ".bench_build/work";
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      config.workload = value();
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      config.trace = value() == "1";
    } else if (arg == "--work-dir") {
      config.work_dir = value();
    } else if (arg == "--trace-out") {
      trace_out = value();
    } else if (arg == "--tiny") {
      config.tiny = true;
    } else if (arg == "--inject-wrong") {
      config.inject_wrong = true;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!(config.seconds > 0)) usage("--seconds must be positive");
  std::filesystem::create_directories(config.work_dir);
  if (trace_out.empty()) {
    trace_out = config.work_dir + "/trace-" + config.workload + ".jsonl";
  }
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);

  if (!config.trace) {
    Sheet sheet;
    run(config, nullptr, &sheet);
    print_result(sheet);
    return sheet.failed == 0 ? 0 : 1;
  }

  perfbench::RunConfig half = config;
  half.seconds = config.seconds / 2;
  Sheet untraced;
  run(half, nullptr, &untraced);
  perfbench::Tracer tracer;
  Sheet traced;
  run(half, &tracer, &traced);
  traced.attempted += untraced.attempted;
  traced.failed += untraced.failed;
  for (const auto& [name, metric] : untraced.metrics) {
    const auto it = traced.metrics.find(name);
    if (it == traced.metrics.end()) continue;
    traced.set("trace_overhead." + name, it->second.value - metric.value,
               metric.unit);
  }
  for (const auto& [name, totals] : tracer.totals()) {
    std::printf("# span %-40s count=%llu total=%.3fms self=%.3fms\n",
                name.c_str(), static_cast<unsigned long long>(totals.count),
                1e-6 * totals.total_ns, 1e-6 * totals.self_ns);
  }
  if (tracer.write(trace_out)) {
    std::printf("# trace: %zu spans in %s\n", tracer.size(), trace_out.c_str());
  } else {
    std::fprintf(stderr, "poetbin_perfbench: cannot write %s\n",
                 trace_out.c_str());
  }
  print_result(traced);
  return traced.failed == 0 ? 0 : 1;
}
