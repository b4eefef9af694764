// The offline workload: repeated conv Runtime::predict over a fixed set of
// frames.
//
//   offline-conv   16,384 frames of 4x16x16 bits through the conv model:
//                  the only workload where core.rinc_conv runs; its
//                  classifier runs the core.batch_eval dataset pass.
//
// It uses a fixed one-thread engine: a fork-join pass over several threads
// waits for the slowest virtual CPU on every call, and on a shared host
// that made call latency swing by a factor of two or more from run to run.
// Besides whole-dataset throughput (throughput.predictions_per_s), it
// reports the latency of a small and a large call (`low`: 256 frames,
// `high`: 1024 frames) and the CPU time per frame of the large calls. The
// host switches this guest's CPUs between a fast and a slower state (the
// same call takes about 4.5 or 8 ms) many times a second, so a median of
// the calls lands in either state with the mix; cpu_us_per_prediction is
// the 10th percentile over the calls, which stays in the fast state unless
// the host is slow nine tenths of the time. Every call does the same work,
// so what varies between calls is the host.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/packed_model.h"
#include "models.h"
#include "serve/runtime.h"
#include "serving.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using poetbin::Runtime;

constexpr std::size_t kThreads = 1;
constexpr double kMeasureShare = 0.85;  // of --seconds, in rounds
constexpr std::size_t kMinRounds = 3;
constexpr std::size_t kCallsPerRound = 8;  // of each call size
constexpr std::size_t kMinCalls = 1100;  // >= 10 samples beyond the p99
constexpr std::size_t kReloads = 31;

struct OfflineSpec {
  std::size_t rows = 0;        // dataset size
  std::size_t low_rows = 0;    // rows per `low` call
  std::size_t high_rows = 0;   // rows per `high` call
  std::size_t width = 0;       // input bits per row
};

OfflineSpec spec_for(const RunConfig& config) {
  if (config.workload != "offline-conv") {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 config.workload.c_str());
    std::exit(2);
  }
  return {.rows = config.tiny ? 2048u : 16384u,
          .low_rows = 256,
          .high_rows = 1024,
          .width = kConvInput.flat()};
}

// `n_slices` consecutive slices of `rows_per` rows, wrapping the dataset.
std::vector<poetbin::BitMatrix> slices(const Inputs& inputs,
                                       std::size_t rows_per,
                                       std::size_t n_slices) {
  std::vector<poetbin::BitMatrix> out;
  for (std::size_t s = 0; s < n_slices; ++s) {
    const std::size_t begin = (s * rows_per) % inputs.rows();
    out.push_back(to_matrix(inputs, begin, begin + rows_per));
  }
  return out;
}

// Makes `n_calls` predict calls over `slices` round robin, going on from
// the slice after the last call already in `ms`; appends each call's time
// to `ms` and, when `cpu_us` is given, the calling thread's CPU time per
// row to it (the one-thread engine runs the whole pass on the caller);
// checks every answer.
void time_calls(const Runtime& runtime,
                const std::vector<poetbin::BitMatrix>& slices,
                std::size_t rows_per, const std::vector<int>& expected,
                std::size_t n_calls, const char* span, Tracer* tracer,
                Sheet* sheet, std::vector<double>* ms,
                std::vector<double>* cpu_us = nullptr) {
  for (std::size_t call = 0; call < n_calls; ++call) {
    const std::size_t s = ms->size() % slices.size();
    const std::size_t begin = (s * rows_per) % expected.size();
    const double cpu0 = cpu_us != nullptr ? thread_cpu_s() : 0.0;
    const std::int64_t t0 = now_ns();
    const std::vector<int> classes = runtime.predict(slices[s]);
    const std::int64_t t1 = now_ns();
    if (cpu_us != nullptr) {
      cpu_us->push_back(1e6 * (thread_cpu_s() - cpu0) /
                        static_cast<double>(rows_per));
    }
    if (tracer != nullptr) {
      tracer->add(span, t0, t1, Tracer::kNoParent,
                  static_cast<std::uint32_t>(begin));
    }
    ms->push_back(1e-6 * static_cast<double>(t1 - t0));
    sheet->attempted += classes.size();
    for (std::size_t i = 0; i < classes.size(); ++i) {
      if (classes[i] != expected[begin + i]) ++sheet->failed;
    }
  }
}

// The conv predict split at its layer boundary: the conv pass, then the
// classifier on the conv output, each through its own public call. The
// classifier's dataset pass is the core.batch_eval figure.
void trace_conv_layers(const Runtime& runtime, const poetbin::BitMatrix& data,
                       const std::vector<int>& expected, double min_seconds,
                       Tracer* tracer, Sheet* sheet) {
  const Runtime::Snapshot snap = runtime.snapshot();
  std::vector<double> conv_ns, classifier_ns;
  const std::int64_t until =
      now_ns() + static_cast<std::int64_t>(min_seconds * 1e9);
  for (std::size_t call = 0; call < 3 || now_ns() < until; ++call) {
    const std::int64_t t0 = now_ns();
    const poetbin::BitMatrix bits =
        snap->conv->eval_dataset_batched(data, runtime.engine());
    const std::int64_t t1 = now_ns();
    const std::vector<int> classes =
        snap->model.predict_dataset_batched(bits, runtime.engine());
    const std::int64_t t2 = now_ns();
    const std::uint32_t root = tracer->add("replay.conv_predict", t0, t2);
    tracer->add("core.rinc_conv.eval_dataset_batched", t0, t1, root);
    tracer->add("core.batch_eval.classifier_predict", t1, t2, root);
    conv_ns.push_back(static_cast<double>(t1 - t0));
    classifier_ns.push_back(static_cast<double>(t2 - t1));
    sheet->attempted += classes.size();
    if (classes != expected) ++sheet->failed;
  }
  const double per_frame = median(conv_ns) / static_cast<double>(data.rows());
  const double ops = conv_word_ops_per_frame(*snap->conv);
  sheet->set("core.rinc_conv.ns_per_frame", per_frame, "ns");
  sheet->set("core.rinc_conv.word_ops_per_frame", ops, "ops");
  sheet->set("core.rinc_conv.word_ops_per_ns", ops / per_frame, "ops/ns");
  const double per_example =
      median(classifier_ns) / static_cast<double>(data.rows());
  const double dense_ops = dense_word_ops_per_example(snap->model);
  sheet->set("core.batch_eval.ns_per_example", per_example, "ns");
  sheet->set("core.batch_eval.word_ops_per_example", dense_ops, "ops");
  sheet->set("core.batch_eval.word_ops_per_ns", dense_ops / per_example,
             "ops/ns");
  sheet->set("core.rinc_conv.classifier_share",
             median(classifier_ns) / (median(conv_ns) + median(classifier_ns)),
             "ratio");
}

}  // namespace

void run_offline(const RunConfig& config, Tracer* tracer, Sheet* sheet) {
  const OfflineSpec spec = spec_for(config);
  const double seconds = config.seconds;

  // --- model file, dataset and expected answers (untimed) -----------------
  const std::string path = config.work_dir + "/conv.pbm";
  const poetbin::ConvModel model = make_conv_model(config.seed);
  if (!poetbin::write_packed_conv_model_file(model, path).ok()) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    std::exit(2);
  }
  const Inputs inputs = random_inputs(config.seed, 7, spec.rows, spec.width);
  const poetbin::BitMatrix data = to_matrix(inputs, 0, spec.rows);
  std::vector<int> expected =
      load_runtime(path, {.threads = kThreads}).predict(data);
  poetbin::Rng rng(config.seed ^ 0x5c0ffeeULL);
  for (std::size_t s = 0; s < 64; ++s) {
    const std::size_t i = rng.next_index(spec.rows);
    const poetbin::BitVector row = row_bits(inputs, i);
    sheet->check(model.predict(row) == expected[i],
                 "fused predict vs scalar predict");
  }
  if (config.inject_wrong) {
    expected[0] = (expected[0] + 1) % 10;  // self-test: must be caught
  }
  const std::vector<poetbin::BitMatrix> windows = slices(inputs, 64, 1);
  const std::vector<poetbin::BitMatrix> smalls =
      slices(inputs, spec.low_rows, 16);
  const std::vector<poetbin::BitMatrix> batches =
      slices(inputs, spec.high_rows, 16);

  // --- set-up, throughput and call latency, in rounds ----------------------
  // A round sets up a fresh Runtime (load and a first correct 64-row
  // answer), then makes one whole-dataset call and kCallsPerRound calls of
  // each size on the measured Runtime. Rounds repeat for most of
  // --seconds, so every figure spans the whole run and a stretch in which
  // the host slows the guest weighs on each of them alike. A traced run
  // goes on until each size has kMinCalls calls, for its p99s.
  std::unique_ptr<Runtime> runtime =
      std::make_unique<Runtime>(load_runtime(path, {.threads = kThreads}));
  const std::vector<poetbin::BitMatrix> whole{data};
  std::vector<double> setup_s, whole_ms, cpu_us, low_ms, high_ms;
  std::size_t threads_used = 0;
  const std::int64_t until =
      now_ns() + static_cast<std::int64_t>(kMeasureShare * seconds * 1e9);
  for (std::size_t round = 0;
       round < kMinRounds || now_ns() < until ||
       (tracer != nullptr &&
        std::min(low_ms.size(), high_ms.size()) < kMinCalls);
       ++round) {
    {
      const std::int64_t t0 = now_ns();
      const Runtime fresh = load_runtime(path, {.threads = kThreads});
      const std::vector<int> first = fresh.predict(windows[0]);
      const std::int64_t t1 = now_ns();
      sheet->check(std::equal(first.begin(), first.end(), expected.begin()),
                   "first predict after setup");
      setup_s.push_back(1e-9 * static_cast<double>(t1 - t0));
    }
    // Threads that worked in the first whole-dataset call (at least 1% of
    // it on a CPU): the caller, which takes part in every pass, and the
    // pool, if any.
    const std::map<long, std::uint64_t> run0 =
        round == 0 ? thread_run_ns() : std::map<long, std::uint64_t>{};
    const std::int64_t whole0 = now_ns();
    time_calls(*runtime, whole, spec.rows, expected, 1,
               "serve.runtime.predict", tracer, sheet, &whole_ms);
    if (round == 0) {
      threads_used = busy_threads(
          run0, thread_run_ns(),
          static_cast<std::uint64_t>(now_ns() - whole0) / 100);
    }
    time_calls(*runtime, smalls, spec.low_rows, expected, kCallsPerRound,
               "serve.runtime.predict_small", tracer, sheet, &low_ms);
    time_calls(*runtime, batches, spec.high_rows, expected, kCallsPerRound,
               "serve.runtime.predict_batch", tracer, sheet, &high_ms,
               &cpu_us);
  }
  sheet->set("setup_s", median(setup_s), "s");
  sheet->set("throughput.predictions_per_s",
             static_cast<double>(spec.rows) / (1e-3 * median(whole_ms)),
             "1/s");
  sheet->set("cpu_us_per_prediction", quantile(cpu_us, 0.10), "us");

  sheet->set("low.latency_p50_ms", median(low_ms), "ms");
  sheet->set("tail.low.latency_p99_ms", segmented_p99(low_ms), "ms");
  sheet->set("high.latency_p50_ms", median(high_ms), "ms");
  sheet->set("tail.high.latency_p99_ms", segmented_p99(high_ms), "ms");
  std::printf("# budget: threads_used=%zu engine_threads=%zu rows=%zu "
              "width=%zu\n",
              threads_used, runtime->threads(), spec.rows, spec.width);
  std::printf("# phase whole  calls=%zu rows/call=%zu median=%.4fms\n",
              whole_ms.size(), spec.rows, median(whole_ms));
  std::printf("# phase low    calls=%zu rows/call=%zu p10=%.4fms p50=%.4fms "
              "p99=%.4fms\n",
              low_ms.size(), spec.low_rows, quantile(low_ms, 0.10),
              median(low_ms), segmented_p99(low_ms));
  std::printf("# phase high   calls=%zu rows/call=%zu p10=%.4fms p50=%.4fms "
              "p99=%.4fms cpu_p10=%.4fus/frame cpu_p50=%.4fus/frame\n",
              high_ms.size(), spec.high_rows, quantile(high_ms, 0.10),
              median(high_ms), segmented_p99(high_ms), quantile(cpu_us, 0.10),
              median(cpu_us));

  // --- reload: a model push while nothing else runs ------------------------
  std::vector<double> reload_ms;
  for (std::size_t r = 0; r < kReloads; ++r) {
    const std::int64_t t0 = now_ns();
    const bool ok = runtime->reload().ok();
    const std::int64_t t1 = now_ns();
    sheet->check(ok, "Runtime::reload");
    reload_ms.push_back(1e-6 * static_cast<double>(t1 - t0));
  }
  sheet->set("reload.round_trip_ms", median(reload_ms), "ms");

  if (tracer != nullptr) {
    trace_conv_layers(*runtime, data, expected, 0.1 * seconds, tracer, sheet);
    sheet->set("budget.threads", static_cast<double>(threads_used),
               "threads");
    measure_load_and_reload(path, tracer, sheet);
  }
  sheet->set("rss_mb", peak_rss_mb(), "MB");
}

}  // namespace perfbench
