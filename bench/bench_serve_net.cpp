// Network serving: the micro-batched NetServer over real loopback TCP with
// zipf-skewed pipelined clients.
//
// The workload is the serving shape the front end was built for: 8 client
// threads, each pipelining bursts of 16 predict requests over its own
// connection against one single-threaded worker with a 64-wide micro-batch
// window. Every response is checked bit for bit against the per-bit
// scalar walk (tests/reference) of the requested key, so the row doubles
// as an e2e bit-identity test under concurrency.
//
// Acceptance (gated only at POETBIN_BENCH_SCALE >= 1): windowed uncached
// throughput at least the lowest of five runs of the commit before
// per-example gather evaluation (kBaselineMinKqps, measured on a 4-vCPU
// AVX-512 Xeon alternating with this code). Bit-identity is a hard
// failure at any scale.
//
// Two pipelined rows run: the prediction cache OFF — the gated row, so the
// target keeps measuring the uncached dispatch path — and the cache ON
// (informational here; the dedicated cache sweep with its own acceptance
// lives in bench_serve_cache). A third, ungated row measures light
// traffic: one client sends one request at a time and pauses 2 x max_wait
// between requests, so every window is a lone request and its latency
// shows whether the window waits out max_wait.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/poetbin.h"
#include "core/rinc.h"
#include "dt/lut.h"
#include "reference/scalar_reference.h"
#include "serve/net_client.h"
#include "serve/net_server.h"
#include "serve/runtime.h"
#include "util/bitvector.h"
#include "util/rng.h"
#include "util/zipf.h"

namespace {

using namespace poetbin;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kClientThreads = 8;
constexpr std::size_t kPipelineDepth = 16;
constexpr std::size_t kKeySpace = 1024;
constexpr double kZipfTheta = 0.99;
constexpr std::chrono::microseconds kMaxWait{200};
// Windowed uncached kqps of the commit before per-example gather
// evaluation: the lowest of five runs alternating with this code on a
// 4-vCPU AVX-512 Xeon (runs 375, 411, 408, 392, 450 kqps; median 408).
constexpr double kBaselineMinKqps = 374.8;

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

// Same 10-class random model shape as bench_batch_eval: realistic output
// layer without a training run.
PoetBin random_model(std::size_t p, std::size_t n_features, Rng& rng) {
  PoetBinConfig config;
  config.rinc.lut_inputs = p;
  config.n_classes = 10;
  const std::size_t n_modules = config.n_classes * p;
  std::vector<RincModule> modules;
  for (std::size_t m = 0; m < n_modules; ++m) {
    modules.push_back(random_rinc(1, p, p, n_features, rng));
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

struct ModeResult {
  double seconds = 0.0;
  std::size_t requests = 0;
  std::size_t transport_errors = 0;
  std::size_t mismatches = 0;
  double p50_ms = 0.0, p99_ms = 0.0, p999_ms = 0.0;
  ServeStats stats;
};

double percentile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const std::size_t at = std::min(
      sorted.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(sorted.size())));
  return sorted[at];
}

// Runs one server configuration to completion and measures it. The key
// pool and the expected scalar predictions are shared, read-only.
ModeResult run_mode(const PoetBin& model, const std::vector<BitVector>& pool,
                    const std::vector<int>& expected, std::size_t cache_bytes,
                    std::size_t bursts_per_thread) {
  Runtime runtime(model, {.threads = 1, .cache_bytes = cache_bytes});
  NetServer server(runtime,
                   {.port = 0, .max_batch = 64, .max_wait = kMaxWait});
  std::string error;
  if (!server.start(&error)) {
    std::printf("  ERROR: %s\n", error.c_str());
    return {};
  }

  std::vector<std::vector<double>> latencies(kClientThreads);
  std::vector<std::size_t> errors(kClientThreads, 0);
  std::vector<std::size_t> mismatches(kClientThreads, 0);
  std::vector<std::thread> clients;
  clients.reserve(kClientThreads);
  const auto t0 = Clock::now();
  for (std::size_t t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&, t] {
      NetClient client;
      if (!client.connect("127.0.0.1", server.port())) {
        errors[t] += bursts_per_thread * kPipelineDepth;
        return;
      }
      FastZipf zipf(0x5eedULL * (t + 1), kZipfTheta, pool.size());
      std::vector<const BitVector*> burst(kPipelineDepth);
      std::vector<std::size_t> keys(kPipelineDepth);
      std::vector<wire::Response> responses;
      latencies[t].reserve(bursts_per_thread);
      for (std::size_t b = 0; b < bursts_per_thread; ++b) {
        for (std::size_t i = 0; i < kPipelineDepth; ++i) {
          keys[i] = zipf.next();
          burst[i] = &pool[keys[i]];
        }
        const auto s0 = Clock::now();
        if (!client.predict_pipelined(burst, &responses)) {
          errors[t] += kPipelineDepth;
          return;
        }
        const auto s1 = Clock::now();
        latencies[t].push_back(
            1e3 * std::chrono::duration<double>(s1 - s0).count());
        for (std::size_t i = 0; i < kPipelineDepth; ++i) {
          if (responses[i].status != wire::Status::kOk) {
            ++errors[t];
          } else if (responses[i].prediction != expected[keys[i]]) {
            ++mismatches[t];
          }
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  const auto t1 = Clock::now();

  ModeResult result;
  result.stats = server.stats();
  server.stop();
  result.seconds = std::chrono::duration<double>(t1 - t0).count();
  result.requests = kClientThreads * bursts_per_thread * kPipelineDepth;
  std::vector<double> merged;
  for (auto& thread_latencies : latencies) {
    merged.insert(merged.end(), thread_latencies.begin(),
                  thread_latencies.end());
  }
  std::sort(merged.begin(), merged.end());
  result.p50_ms = percentile(merged, 0.50);
  result.p99_ms = percentile(merged, 0.99);
  result.p999_ms = percentile(merged, 0.999);
  for (const std::size_t e : errors) result.transport_errors += e;
  for (const std::size_t m : mismatches) result.mismatches += m;
  return result;
}

// Light traffic: one uncached client, one request at a time, a pause of
// 2 x max_wait before each, so no request ever shares a window. Latency is
// per request (round trip).
ModeResult run_light(const PoetBin& model, const std::vector<BitVector>& pool,
                     const std::vector<int>& expected,
                     std::size_t n_requests) {
  Runtime runtime(model, {.threads = 1});
  NetServer server(runtime,
                   {.port = 0, .max_batch = 64, .max_wait = kMaxWait});
  ModeResult result;
  std::string error;
  NetClient client;
  if (!server.start(&error) ||
      !client.connect("127.0.0.1", server.port(),
                      std::chrono::milliseconds(5000), &error)) {
    std::printf("  ERROR: %s\n", error.c_str());
    return result;
  }
  FastZipf zipf(0x119417ULL, kZipfTheta, pool.size());
  std::vector<double> latencies;
  latencies.reserve(n_requests);
  wire::Response response;
  for (std::size_t i = 0; i < n_requests; ++i) {
    std::this_thread::sleep_for(2 * kMaxWait);
    const std::size_t key = zipf.next();
    const auto s0 = Clock::now();
    if (!client.predict(pool[key], &response)) {
      result.transport_errors += n_requests - i;
      break;
    }
    latencies.push_back(
        1e3 * std::chrono::duration<double>(Clock::now() - s0).count());
    if (response.status != wire::Status::kOk) {
      ++result.transport_errors;
    } else if (response.prediction != expected[key]) {
      ++result.mismatches;
    }
  }
  result.stats = server.stats();
  server.stop();
  result.requests = latencies.size();
  std::sort(latencies.begin(), latencies.end());
  result.p50_ms = percentile(latencies, 0.50);
  result.p99_ms = percentile(latencies, 0.99);
  result.p999_ms = percentile(latencies, 0.999);
  return result;
}

void report(const char* label, const ModeResult& r) {
  std::printf("  %-22s %9.0f req/s  burst p50 %7.3f ms  p99 %7.3f ms  "
              "p999 %7.3f ms  mean fill %.1f\n",
              label, static_cast<double>(r.requests) / r.seconds, r.p50_ms,
              r.p99_ms, r.p999_ms, r.stats.mean_window_fill());
}

}  // namespace

int main() {
  bench::print_header(
      "Network serving: micro-batched TCP front end",
      "8 pipelined clients (depth 16, zipf 0.99) on loopback; acceptance: "
      "uncached kqps >= the pre-gather commit's lowest of five runs");
  bench::JsonResults json("serve_net");

  Rng rng(20260807);
  const std::size_t p = 6;
  const std::size_t n_features = 256;
  const PoetBin model = random_model(p, n_features, rng);

  std::vector<BitVector> pool;
  pool.reserve(kKeySpace);
  for (std::size_t k = 0; k < kKeySpace; ++k) {
    BitVector bits(n_features);
    Rng key_rng = rng.fork(k);
    for (std::size_t w = 0; w < bits.word_count(); ++w) {
      bits.words()[w] = key_rng.next_u64();
    }
    bits.mask_tail_word();
    pool.push_back(std::move(bits));
  }
  std::vector<int> expected(kKeySpace);
  for (std::size_t k = 0; k < kKeySpace; ++k) {
    expected[k] = reference::predict_walk(model, pool[k]);
  }

  const std::size_t bursts_per_thread = std::max(
      std::size_t{20},
      static_cast<std::size_t>(150 * bench::bench_scale()));
  std::printf("P=%zu model, %zu features, %zu keys, %zu clients x %zu "
              "bursts x %zu deep:\n",
              p, n_features, kKeySpace, kClientThreads, bursts_per_thread,
              kPipelineDepth);

  const ModeResult micro = run_mode(model, pool, expected,
                                    /*cache_bytes=*/0, bursts_per_thread);
  report("micro-batch (window 64)", micro);
  const ModeResult cached = run_mode(model, pool, expected,
                                     /*cache_bytes=*/8u << 20,
                                     bursts_per_thread);
  report("micro-batch + cache", cached);
  const std::size_t light_requests = std::max(
      std::size_t{200},
      static_cast<std::size_t>(2000 * bench::bench_scale()));
  const ModeResult light = run_light(model, pool, expected, light_requests);
  std::printf("  %-22s %zu requests one at a time, %lld us apart: "
              "p50 %.3f ms  p99 %.3f ms  mean fill %.2f\n",
              "light (1 client)", light.requests,
              static_cast<long long>(2 * kMaxWait.count()), light.p50_ms,
              light.p99_ms, light.stats.mean_window_fill());

  if (micro.requests == 0 || cached.requests == 0 || light.requests == 0 ||
      micro.transport_errors > 0 || cached.transport_errors > 0 ||
      light.transport_errors > 0) {
    std::printf("  ERROR: transport failures (micro %zu, cached %zu, "
                "light %zu)\n",
                micro.transport_errors, cached.transport_errors,
                light.transport_errors);
    return 1;
  }
  if (micro.mismatches > 0 || cached.mismatches > 0 ||
      light.mismatches > 0) {
    std::printf("  ERROR: served predictions disagree with the scalar walk "
                "(micro %zu, cached %zu, light %zu)\n",
                micro.mismatches, cached.mismatches, light.mismatches);
    return 1;
  }

  const double micro_rps = static_cast<double>(micro.requests) / micro.seconds;
  const double cached_rps =
      static_cast<double>(cached.requests) / cached.seconds;
  std::printf("  -> uncached %.0f kqps vs baseline floor %.0f kqps\n",
              micro_rps / 1e3, kBaselineMinKqps);
  std::printf("  -> cache on vs off: %.2fx (hit rate %.1f%%, informational)\n",
              cached_rps / micro_rps, 100.0 * cached.stats.cache_hit_rate());
  const bool pass = micro_rps / 1e3 >= kBaselineMinKqps;

  json.add("serve_net_micro_kqps", micro_rps / 1e3);
  json.add("serve_net_micro_cached_kqps", cached_rps / 1e3);
  json.add("serve_net_cache_hit_rate", cached.stats.cache_hit_rate());
  json.add("serve_net_speedup_cache", cached_rps / micro_rps);
  json.add("serve_net_micro_p50_ms", micro.p50_ms);
  json.add("serve_net_micro_p99_ms", micro.p99_ms);
  json.add("serve_net_micro_p999_ms", micro.p999_ms);
  json.add("serve_net_micro_mean_fill", micro.stats.mean_window_fill());
  json.add("serve_net_light_p50_ms", light.p50_ms);
  json.add("serve_net_light_p99_ms", light.p99_ms);
  json.add("serve_net_light_mean_fill", light.stats.mean_window_fill());
  json.add("acceptance_pass", pass ? 1.0 : 0.0);

  if (bench::bench_scale() < 1.0) {
    std::printf("acceptance check skipped (scale < 1.0); measured %s target\n",
                pass ? "above" : "below");
    return 0;
  }
  std::printf("acceptance (uncached kqps >= baseline floor): %s\n",
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
