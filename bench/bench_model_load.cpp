// Model load: text parse vs packed load, plus hot-swap latency under live
// predict_one traffic.
//
// The packed format (core/packed_model.h) exists so a serving worker can
// read a model in and serve without text parsing: the row measures exactly
// that trade on a level-1 RINC model with wide leaf LUTs, where the text
// form has to parse 2^arity table characters per leaf while the packed
// load reads the file once, validates it in one pass and adopts the
// buffer: the loaded LUTs and the compiled program read the tables where
// they sit in it. The trusting depth (PackedVerify::kTrustChecksum — what
// Runtime::load runs) checks structure only; the full-verification depth
// (what pack/unpack tooling and every writer's own check run) adds the CRC
// pass and is recorded alongside, with the CRC pass over the file timed on
// its own. Loaded-model equivalence is
// checked bit for bit on every run.
//
// Runtime::load of the packed file is timed twice, with the serving
// default 8 MiB prediction cache and with none, in a process that has
// already destroyed a cached Runtime: a cache table whose setup grows with
// its capacity (a heap-recycled table zeroed by calloc, for one) shows up
// as runtime_load_cache_ms pulling away from runtime_load_nocache_ms.
//
// The hot-swap half loads the packed file into a Runtime, hammers
// predict_one from 4 threads, and measures reload() latency mid-traffic —
// the publish half of the RCU swap that serve --watch and kReload ride.
//
// Acceptance (gated only at POETBIN_BENCH_SCALE >= 1): trusting packed
// load >= 50x faster than the text parse. Prediction mismatches are a hard
// failure at any scale.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/model_parts.h"
#include "core/packed_model.h"
#include "core/poetbin.h"
#include "core/rinc.h"
#include "core/serialize.h"
#include "dt/lut.h"
#include "serve/runtime.h"
#include "util/bitvector.h"
#include "util/rng.h"

namespace {

using namespace poetbin;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kSwapThreads = 4;
constexpr std::size_t kSwaps = 20;

Lut random_lut(std::size_t arity, std::size_t n_features, Rng& rng) {
  std::vector<std::size_t> inputs(arity);
  for (auto& input : inputs) input = rng.next_index(n_features);
  BitVector table(std::size_t{1} << arity);
  for (std::size_t a = 0; a < table.size(); ++a) table.set(a, rng.next_bool());
  return Lut(std::move(inputs), std::move(table));
}

RincModule random_rinc(std::size_t level, std::size_t fanin,
                       std::size_t leaf_arity, std::size_t n_features,
                       Rng& rng) {
  if (level == 0) {
    return RincModule::make_leaf(random_lut(leaf_arity, n_features, rng));
  }
  std::vector<RincModule> children;
  for (std::size_t c = 0; c < fanin; ++c) {
    children.push_back(
        random_rinc(level - 1, fanin, leaf_arity, n_features, rng));
  }
  std::vector<double> alphas(fanin);
  for (auto& alpha : alphas) alpha = rng.next_double() + 0.1;
  return RincModule::make_internal(std::move(children), MatModule(alphas));
}

// 10-class random model with `leaf_arity`-input leaves: the knob that makes
// the text form expensive (2^arity table chars per leaf) at serving-realistic
// model sizes.
PoetBin random_model(std::size_t p, std::size_t leaf_arity,
                     std::size_t n_features, Rng& rng) {
  PoetBinConfig config;
  config.rinc.lut_inputs = p;
  config.n_classes = 10;
  const std::size_t n_modules = config.n_classes * p;
  std::vector<RincModule> modules;
  for (std::size_t m = 0; m < n_modules; ++m) {
    modules.push_back(random_rinc(1, p, leaf_arity, n_features, rng));
  }
  const QuantizerParams quantizer;
  const std::size_t n_combos = std::size_t{1} << p;
  std::vector<SparseOutputNeuron> neurons(config.n_classes);
  for (std::size_t c = 0; c < config.n_classes; ++c) {
    neurons[c].input_modules.resize(p);
    neurons[c].weights.assign(p, 0.0f);
    neurons[c].codes.resize(n_combos);
    for (std::size_t j = 0; j < p; ++j) {
      neurons[c].input_modules[j] = c * p + j;
    }
    for (std::size_t a = 0; a < n_combos; ++a) {
      neurons[c].codes[a] = rng.next_index(quantizer.levels());
    }
  }
  return PoetBin::from_parts(config, std::move(modules), std::move(neurons),
                             quantizer);
}

std::string temp_path(const char* name) {
  // Bench mains are single-threaded at env-read time.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir && *dir ? dir : "/tmp") + "/" + name;
}

template <typename Fn>
double time_ms(Fn load) {
  const auto t0 = Clock::now();
  load();
  const auto t1 = Clock::now();
  return 1e3 * std::chrono::duration<double>(t1 - t0).count();
}

double median(std::vector<double> times) {
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

template <typename Fn>
double median_ms(Fn load, std::size_t reps) {
  std::vector<double> times;
  times.reserve(reps);
  for (std::size_t r = 0; r < reps; ++r) times.push_back(time_ms(load));
  return median(std::move(times));
}

// Medians of `a` and `b` over `rounds` rounds of one `a` rep followed by
// `b_per_round` `b` reps, so both medians sample the same stretch of
// machine state and a ratio of them does not swing with it.
template <typename FnA, typename FnB>
std::pair<double, double> interleaved_medians_ms(FnA a, FnB b,
                                                 std::size_t rounds,
                                                 std::size_t b_per_round) {
  std::vector<double> a_times;
  std::vector<double> b_times;
  a_times.reserve(rounds);
  b_times.reserve(rounds * b_per_round);
  for (std::size_t r = 0; r < rounds; ++r) {
    a_times.push_back(time_ms(a));
    for (std::size_t k = 0; k < b_per_round; ++k) b_times.push_back(time_ms(b));
  }
  return {median(std::move(a_times)), median(std::move(b_times))};
}

// Median Runtime::load of `path`; each Runtime is destroyed after its
// sample's clock stops, so teardown is never timed and every sample after
// the first follows a destroyed Runtime of the same options.
double median_runtime_load_ms(const std::string& path,
                              std::size_t cache_bytes, std::size_t reps) {
  std::vector<double> times;
  times.reserve(reps);
  for (std::size_t r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    const Runtime::LoadResult loaded =
        Runtime::load(path, {.threads = 1, .cache_bytes = cache_bytes});
    const auto t1 = Clock::now();
    if (!loaded.ok()) std::abort();
    times.push_back(1e3 * std::chrono::duration<double>(t1 - t0).count());
  }
  return median(std::move(times));
}

}  // namespace

int main() {
  bench::print_header(
      "Model load: text parse vs packed load + hot swap under traffic",
      "level-1 RINC, 10 classes; acceptance: trusting packed load >= 50x "
      "text parse");
  bench::JsonResults json("model_load");
  bench::report_word_backends(json);

  // Leaf arity 12 at full scale (80 modules x 13 nodes, 4096-entry leaf
  // tables, ~2.7 MB text / ~0.6 MB packed); 10 on quick CI sweeps.
  const double scale = bench::bench_scale();
  const std::size_t p = 8;
  const std::size_t leaf_arity = scale >= 1.0 ? 12 : 10;
  const std::size_t n_features = 1024;
  Rng rng(20260807);
  const PoetBin model = random_model(p, leaf_arity, n_features, rng);

  const std::string text_file = temp_path("poetbin_bench_load.txt");
  const std::string packed_file = temp_path("poetbin_bench_load.pbm");
  if (!write_model_file(model, text_file).ok() ||
      !write_packed_model_file(model, packed_file).ok()) {
    std::printf("  ERROR: could not write bench model files\n");
    return 1;
  }

  // The gated ratio's two sides run interleaved: 5 text reps, each
  // followed by 3 trusting packed reps.
  const std::size_t reps = 5;
  const auto [text_ms, packed_ms] = interleaved_medians_ms(
      [&] {
        const IoResult<LoadedModel> loaded = read_model_file_any(text_file);
        if (!loaded.ok()) std::abort();
      },
      [&] {
        const IoResult<LoadedModel> loaded = read_model_file_any(
            packed_file, PackedVerify::kTrustChecksum);
        if (!loaded.ok()) std::abort();
      },
      reps, 3);
  const double packed_full_ms = median_ms(
      [&] {
        const IoResult<LoadedModel> loaded = read_model_file_any(packed_file);
        if (!loaded.ok()) std::abort();
      },
      reps);
  std::vector<std::uint8_t> packed_bytes;
  if (std::FILE* in = std::fopen(packed_file.c_str(), "rb")) {
    for (int c = std::fgetc(in); c != EOF; c = std::fgetc(in)) {
      packed_bytes.push_back(static_cast<std::uint8_t>(c));
    }
    std::fclose(in);
  }
  std::uint32_t crc_sink = 0;
  const double crc_ms = median_ms(
      [&] {
        crc_sink ^= model_io::crc32(packed_bytes.data(), packed_bytes.size());
      },
      reps);
  const double speedup = text_ms / packed_ms;
  std::printf("  leaf arity %zu (%zu modules): text parse %8.3f ms, packed "
              "full %8.3f ms, packed trusting %7.3f ms  -> %.0fx\n",
              leaf_arity, model.modules().size(), text_ms, packed_full_ms,
              packed_ms, speedup);
  std::printf("  CRC32 pass over the %zu-byte packed file: %7.3f ms "
              "(checksum %08x)\n",
              packed_bytes.size(), crc_ms, crc_sink);

  // Runtime setup with and without the prediction cache, both timed after
  // a cached Runtime has come and gone in this process.
  constexpr std::size_t kCacheBytes = 8u << 20;
  if (!Runtime::load(packed_file, {.threads = 1, .cache_bytes = kCacheBytes})
           .ok()) {
    std::printf("  ERROR: could not load %s\n", packed_file.c_str());
    return 1;
  }
  const double runtime_cache_ms =
      median_runtime_load_ms(packed_file, kCacheBytes, 3 * reps);
  const double runtime_nocache_ms =
      median_runtime_load_ms(packed_file, 0, 3 * reps);
  std::printf("  Runtime::load: %7.3f ms with the 8 MiB prediction cache, "
              "%7.3f ms without\n",
              runtime_cache_ms, runtime_nocache_ms);

  // Bit-identity across the formats: scalar predictions of the two loads
  // must agree on random examples.
  std::size_t mismatches = 0;
  {
    const IoResult<LoadedModel> from_text = read_model_file_any(text_file);
    const IoResult<LoadedModel> from_packed = read_model_file_any(packed_file);
    for (std::size_t i = 0; i < 256; ++i) {
      BitVector bits(n_features);
      Rng example_rng = rng.fork(i);
      for (std::size_t w = 0; w < bits.word_count(); ++w) {
        bits.words()[w] = example_rng.next_u64();
      }
      bits.mask_tail_word();
      if (from_text->model.predict(bits) != from_packed->model.predict(bits)) {
        ++mismatches;
      }
    }
  }
  if (mismatches > 0) {
    std::printf("  ERROR: %zu text-vs-packed prediction mismatches\n",
                mismatches);
    return 1;
  }

  // Hot-swap latency: reload() the packed file while 4 threads hammer
  // predict_one. Every response must stay a valid prediction of the same
  // model bytes, whatever version served it.
  Runtime::LoadResult loaded = Runtime::load(packed_file, {.threads = 1});
  if (!loaded.ok()) {
    std::printf("  ERROR: %s\n", loaded.error().message.c_str());
    return 1;
  }
  Runtime runtime = std::move(loaded).value();
  BitVector probe(n_features);
  Rng probe_rng = rng.fork(999);
  for (std::size_t w = 0; w < probe.word_count(); ++w) {
    probe.words()[w] = probe_rng.next_u64();
  }
  probe.mask_tail_word();
  const int expected = runtime.predict_one(probe);

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> wrong{0};
  std::vector<std::thread> hammers;
  hammers.reserve(kSwapThreads);
  for (std::size_t t = 0; t < kSwapThreads; ++t) {
    hammers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        if (runtime.predict_one(probe) != expected) {
          wrong.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::vector<double> swap_times;
  swap_times.reserve(kSwaps);
  for (std::size_t s = 0; s < kSwaps; ++s) {
    const auto t0 = Clock::now();
    const IoStatus swapped = runtime.reload();
    const auto t1 = Clock::now();
    if (!swapped.ok()) {
      stop.store(true);
      for (auto& h : hammers) h.join();
      std::printf("  ERROR: reload failed: %s\n", swapped.error().message.c_str());
      return 1;
    }
    swap_times.push_back(1e3 * std::chrono::duration<double>(t1 - t0).count());
  }
  stop.store(true);
  for (auto& h : hammers) h.join();
  std::sort(swap_times.begin(), swap_times.end());
  const double hot_swap_ms = swap_times[swap_times.size() / 2];
  std::printf("  hot swap under %zu predict_one threads: %zu reloads, "
              "median %.3f ms, final version %llu\n",
              kSwapThreads, kSwaps, hot_swap_ms,
              static_cast<unsigned long long>(runtime.model_version()));
  if (wrong.load() > 0) {
    std::printf("  ERROR: %zu predictions changed across hot swaps\n",
                wrong.load());
    return 1;
  }

  std::remove(text_file.c_str());
  std::remove(packed_file.c_str());

  json.add("text_parse_ms", text_ms);
  json.add("packed_load_full_ms", packed_full_ms);
  json.add("packed_load_ms", packed_ms);
  json.add("crc_ms", crc_ms);
  json.add("runtime_load_cache_ms", runtime_cache_ms);
  json.add("runtime_load_nocache_ms", runtime_nocache_ms);
  json.add("hot_swap_ms", hot_swap_ms);
  json.add("load_speedup", speedup);

  const bool pass = speedup >= 50.0;
  json.add("acceptance_pass", pass ? 1.0 : 0.0);
  if (scale < 1.0) {
    std::printf("acceptance check skipped (scale < 1.0); measured %s target\n",
                pass ? "above" : "below");
    return 0;
  }
  std::printf("acceptance (packed load >= 50x text parse): %s\n",
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
