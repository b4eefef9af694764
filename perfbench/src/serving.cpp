// The serving workloads: an in-process NetServer with the `poetbin_cli
// serve` defaults, driven over loopback TCP by the open-loop generator.
//
//   serve-zipf-reload  zipf(0.99) keys over a 4096-key pool and a kReload of
//                      the same packed file every 200 ms: most requests hit
//                      the prediction cache, and every reload exercises the
//                      load/publish/invalidate/refill side.
//   serve-uniform      every request a fresh random input and no reloads:
//                      every request misses the cache and goes through a
//                      micro-batch window and the 64-wide word pass.
//
// Each run sets up the server several times (setup_s is the median), warms
// up, then measures a `low` and a `high` phase at fixed absolute rates, in
// alternating chunks. A traced run also finds, on a fixed geometric rate
// ladder, the highest rate that meets the workload's p99 limit with nothing
// failed and no growing backlog.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/packed_model.h"
#include "models.h"
#include "serve/net_client.h"
#include "serve/net_server.h"
#include "serve/runtime.h"
#include "serving.h"
#include "util/rng.h"
#include "util/zipf.h"

namespace perfbench {

namespace {

using poetbin::NetServer;
using poetbin::Runtime;
using poetbin::ServeStats;

struct ServingSpec {
  bool zipf = false;
  double low_rps = 0.0;
  double high_rps = 0.0;
  double p99_limit_ms = 0.0;
  double reload_period_ms = 0.0;  // 0 = no reloads
};

// Fixed absolute rates. `low` leaves most windows to close on the 200 us
// leader timeout. `high` is about a third of the rate the seed sustains on
// an idle 4-vCPU x86 guest and about half of it while the host is busy with
// other guests: nearer capacity, host contention tips the server into
// queueing and the latency stops repeating from run to run.
ServingSpec spec_for(const std::string& workload) {
  if (workload == "serve-zipf-reload") {
    return {.zipf = true, .low_rps = 10000, .high_rps = 40000,
            .p99_limit_ms = 20.0, .reload_period_ms = 200};
  }
  if (workload == "serve-uniform") {
    return {.zipf = false, .low_rps = 4000, .high_rps = 25000,
            .p99_limit_ms = 20.0, .reload_period_ms = 0};
  }
  std::fprintf(stderr, "perfbench: unknown workload '%s'\n", workload.c_str());
  std::exit(2);
}

constexpr std::size_t kConnections = 2;
constexpr std::size_t kKeyPool = 4096;
constexpr double kZipfTheta = 0.99;
constexpr std::size_t kCacheBytes = 8u << 20;  // `serve` default
constexpr std::size_t kSetupRepeats = 21;
// A p99 needs at least ten samples beyond it.
constexpr std::size_t kMinSamples = 1100;
// The rate ladder: kLadderBase * kLadderRatio^k requests per second. Steps
// are 5% apart, finer than the maximum rate's run-to-run spread.
constexpr double kLadderBase = 1000.0;
constexpr double kLadderRatio = 1.05;
constexpr int kLadderSpan = 40;  // search up to 1.05^40 = 7x the high rate
constexpr int kCoarseStep = 4;   // rungs per step while looking for the knee
constexpr int kStaircaseProbes = 16;
constexpr std::size_t kReloadProbes = 31;
// Length of one chunk of the alternating low and high phases.
constexpr double kChunkSeconds = 1.0;

double ladder_rate(int k) { return kLadderBase * std::pow(kLadderRatio, k); }

poetbin::RuntimeOptions server_runtime_options() {
  return {.threads = 1, .cache_bytes = kCacheBytes};
}

// Everything the workload checks answers against, built before any timing.
class Oracle {
 public:
  Oracle(const std::string& model_path, const poetbin::PoetBin& scalar,
         const RunConfig& config, Sheet* sheet)
      : scalar_(scalar), config_(config), sheet_(sheet) {
    fused_ = std::make_unique<Runtime>(
        load_runtime(model_path, {.threads = 4}));
  }

  // Rows of `stream`, their frames and their expected classes from the
  // fused Runtime::predict, spot-checked against the scalar predict.
  std::shared_ptr<KeySet> keys(std::uint64_t stream, std::size_t n) {
    auto keys = std::make_shared<KeySet>();
    keys->rows = random_inputs(config_.seed, stream, n, kDenseFeatures);
    keys->frames.reserve(n * 80);
    for (std::size_t i = 0; i < n; ++i) {
      poetbin::wire::encode_predict_request(row_bits(keys->rows, i),
                                            &keys->frames);
    }
    keys->frame_size = n == 0 ? 0 : keys->frames.size() / n;
    keys->expected.reserve(n);
    constexpr std::size_t kChunk = 1 << 16;
    for (std::size_t begin = 0; begin < n; begin += kChunk) {
      const std::size_t end = std::min(n, begin + kChunk);
      for (const int c : fused_->predict(to_matrix(keys->rows, begin, end))) {
        keys->expected.push_back(static_cast<std::uint16_t>(c));
      }
    }
    poetbin::Rng rng(config_.seed ^ (stream * 0x51ed27ULL));
    for (std::size_t s = 0; s < std::min<std::size_t>(n, 64); ++s) {
      const std::size_t i = rng.next_index(n);
      sheet_->check(
          scalar_.predict(row_bits(keys->rows, i)) == keys->expected[i],
          "fused predict vs scalar predict");
    }
    if (config_.inject_wrong && !injected_ && n > 0) {
      // Self-test: one wrong expectation on the hottest key (zipf) or on the
      // first request (uniform) must surface as a failed operation.
      keys->expected[0] = static_cast<std::uint16_t>((keys->expected[0] + 1) %
                                                     scalar_.n_classes());
      injected_ = true;
    }
    return keys;
  }

 private:
  const poetbin::PoetBin& scalar_;
  const RunConfig& config_;
  Sheet* sheet_;
  std::unique_ptr<Runtime> fused_;
  bool injected_ = false;
};

// Builds one phase's seeded schedule: Poisson arrivals at `rate` for
// `seconds` (and at least `min_count` requests), each on a random
// connection, plus a reload every reload_period_ms when the spec has them.
// Zipf phases draw keys from the shared pool; uniform phases get fresh
// rows of their own stream.
Phase make_phase(const std::string& name, double rate, double seconds,
                 std::size_t min_count, std::uint64_t stream,
                 const ServingSpec& spec, const RunConfig& config,
                 const std::shared_ptr<const KeySet>& pool, Oracle* oracle) {
  Phase phase;
  phase.name = name;
  phase.rate_rps = rate;
  poetbin::Rng rng(config.seed * 0x2545f4914f6cdd1dULL + stream);
  poetbin::FastZipf zipf(rng.next_u64(), kZipfTheta, kKeyPool);
  const double horizon_ns = seconds * 1e9;
  double t = 0.0;
  std::uint32_t n_predicts = 0;
  while (true) {
    t += -std::log(1.0 - rng.next_double()) / rate * 1e9;
    if (t > horizon_ns && n_predicts >= min_count) break;
    Request r;
    r.at_ns = static_cast<std::int64_t>(t);
    r.conn = static_cast<std::uint8_t>(rng.next_index(kConnections));
    r.frame = spec.zipf ? static_cast<std::uint32_t>(zipf.next()) : n_predicts;
    phase.requests.push_back(r);
    ++n_predicts;
  }
  phase.keys = spec.zipf ? pool : oracle->keys(stream, n_predicts);
  phase.from_pool = spec.zipf;
  for (Request& r : phase.requests) r.expected = phase.keys->expected[r.frame];
  if (spec.reload_period_ms > 0) {
    const std::int64_t period =
        static_cast<std::int64_t>(spec.reload_period_ms * 1e6);
    std::vector<Request> merged;
    merged.reserve(phase.requests.size() + 64);
    std::int64_t next_reload = period;
    std::uint8_t reload_conn = 0;
    for (const Request& r : phase.requests) {
      while (next_reload <= r.at_ns) {
        merged.push_back(Request{.at_ns = next_reload,
                                 .conn = reload_conn,
                                 .kind = RequestKind::kReload});
        reload_conn = static_cast<std::uint8_t>((reload_conn + 1) %
                                                kConnections);
        next_reload += period;
      }
      merged.push_back(r);
    }
    phase.requests = std::move(merged);
  }
  return phase;
}

struct PhaseSummary {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double lag_p50_ms = 0.0;
  double lag_p99_ms = 0.0;
  bool generator_ok = true;  // the generator kept to its schedule
  bool backlog_steady = true;
  bool meets = false;        // p99 limit, nothing failed, backlog steady
};

PhaseSummary summarize(const Phase& phase, const PhaseOutcome& out,
                       const ServingSpec& spec) {
  PhaseSummary s;
  s.p50_ms = quantile(out.latency_ms, 0.50);
  s.p99_ms = segmented_p99(out.latency_ms);
  s.lag_p50_ms = quantile(out.lag_ms, 0.50);
  s.lag_p99_ms = quantile(out.lag_ms, 0.99);
  // A phase is the generator's fault, not the server's, when the generator
  // itself sent late by more than a quarter of the latency limit.
  s.generator_ok = s.lag_p99_ms <= spec.p99_limit_ms / 4;
  // A growing backlog shows as latency that climbs through the phase; a
  // transient stall does not move the median of a whole quarter. The climb
  // allowed is a quarter of the latency limit, as for the generator's lag:
  // near capacity the queue wanders by a few milliseconds without growing.
  const std::size_t quarter = out.latency_ms.size() / 4;
  const double first_q = median(std::vector<double>(
      out.latency_ms.begin(),
      out.latency_ms.begin() + static_cast<std::ptrdiff_t>(quarter)));
  const double last_q = median(std::vector<double>(
      out.latency_ms.end() - static_cast<std::ptrdiff_t>(quarter),
      out.latency_ms.end()));
  s.backlog_steady = last_q - first_q <= spec.p99_limit_ms / 4;
  s.meets = out.failed() == 0 && !out.aborted && out.unsent == 0 &&
            s.p99_ms <= spec.p99_limit_ms && s.generator_ok &&
            s.backlog_steady && out.latency_ms.size() >= kMinSamples;
  std::printf(
      "# phase %-12s rate=%.0f/s sent=%llu succeeded=%llu failed=%llu "
      "(wrong=%llu error=%llu transport=%llu unanswered=%llu) unsent=%llu "
      "p50=%.4fms p99=%.4fms lag_p50=%.4fms "
      "lag_p99=%.4fms backlog=%zu "
      "backlog_steady=%s generator=%s generator_ran=%.3f meets_limits=%s\n",
      phase.name.c_str(), phase.rate_rps,
      static_cast<unsigned long long>(out.sent),
      static_cast<unsigned long long>(out.succeeded),
      static_cast<unsigned long long>(out.failed()),
      static_cast<unsigned long long>(out.wrong),
      static_cast<unsigned long long>(out.errors),
      static_cast<unsigned long long>(out.transport),
      static_cast<unsigned long long>(out.unanswered),
      static_cast<unsigned long long>(out.unsent), s.p50_ms,
      s.p99_ms,
      s.lag_p50_ms, s.lag_p99_ms, out.backlog_at_last_send,
      s.backlog_steady ? "yes" : "no",
      s.generator_ok ? "on-schedule" : "BEHIND", out.generator_ran_share,
      s.meets ? "yes" : "no");
  return s;
}

ServeStats query_stats(LoadGenerator* gen, Sheet* sheet) {
  const std::vector<Request> one{Request{.kind = RequestKind::kStats}};
  const PhaseOutcome out = gen->run(one, FrameTable{}, PhaseLimits{});
  sheet->attempted += out.sent;
  sheet->failed += out.failed();
  return out.stats;
}

ServeStats delta(const ServeStats& after, const ServeStats& before) {
  ServeStats d;
  d.requests = after.requests - before.requests;
  d.batches = after.batches - before.batches;
  d.timeouts = after.timeouts - before.timeouts;
  d.errors = after.errors - before.errors;
  d.cache_hits = after.cache_hits - before.cache_hits;
  d.cache_misses = after.cache_misses - before.cache_misses;
  d.cache_inserts = after.cache_inserts - before.cache_inserts;
  d.cache_evictions = after.cache_evictions - before.cache_evictions;
  d.cache_stale = after.cache_stale - before.cache_stale;
  return d;
}

// Adds one chunk's outcome to its phase's (the per-request send and
// answer times stay with the chunk).
void append(PhaseOutcome* phase, const PhaseOutcome& chunk) {
  const double sent = static_cast<double>(phase->sent + chunk.sent);
  if (sent > 0) {  // weighted by requests: a phase's chunks share one rate
    phase->generator_ran_share =
        (phase->generator_ran_share * static_cast<double>(phase->sent) +
         chunk.generator_ran_share * static_cast<double>(chunk.sent)) /
        sent;
  }
  phase->sent += chunk.sent;
  phase->succeeded += chunk.succeeded;
  phase->wrong += chunk.wrong;
  phase->errors += chunk.errors;
  phase->transport += chunk.transport;
  phase->unanswered += chunk.unanswered;
  phase->unsent += chunk.unsent;
  phase->aborted = phase->aborted || chunk.aborted;
  phase->backlog_at_last_send =
      std::max(phase->backlog_at_last_send, chunk.backlog_at_last_send);
  phase->latency_ms.insert(phase->latency_ms.end(), chunk.latency_ms.begin(),
                           chunk.latency_ms.end());
  phase->lag_ms.insert(phase->lag_ms.end(), chunk.lag_ms.begin(),
                       chunk.lag_ms.end());
  phase->reload_ms.insert(phase->reload_ms.end(), chunk.reload_ms.begin(),
                          chunk.reload_ms.end());
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

// A served instance: the Runtime and the NetServer in front of it.
struct Server {
  std::unique_ptr<Runtime> runtime;
  std::unique_ptr<NetServer> net;
};

// Load, start and answer one request correctly; returns seconds taken.
double set_up(const std::string& model_path, const KeySet& first,
              Server* server, Sheet* sheet) {
  const std::int64_t t0 = now_ns();
  server->runtime = std::make_unique<Runtime>(
      load_runtime(model_path, server_runtime_options()));
  server->net = std::make_unique<NetServer>(*server->runtime);
  std::string error;
  if (!server->net->start(&error)) {
    std::fprintf(stderr, "perfbench: server start failed: %s\n",
                 error.c_str());
    std::exit(2);
  }
  poetbin::NetClient client;
  poetbin::wire::Response response;
  const bool answered =
      client.connect("127.0.0.1", server->net->port(),
                     std::chrono::milliseconds(5000), &error) &&
      client.predict(row_bits(first.rows, 0), &response);
  const std::int64_t t1 = now_ns();
  sheet->check(answered && response.status == poetbin::wire::Status::kOk &&
                   response.prediction == first.expected[0],
               "first request after setup");
  return 1e-9 * static_cast<double>(t1 - t0);
}

}  // namespace

void run_serving(const RunConfig& config, Tracer* trace, Sheet* sheet) {
  const ServingSpec spec = spec_for(config.workload);
  const double seconds = config.seconds;
  const bool traced = trace != nullptr;

  const poetbin::PoetBin model = make_dense_model(config.seed);
  const std::string model_path = config.work_dir + "/dense.pbm";
  if (!poetbin::write_packed_model_file(model, model_path).ok()) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", model_path.c_str());
    std::exit(2);
  }
  Oracle oracle(model_path, model, config, sheet);
  const std::shared_ptr<const KeySet> pool =
      spec.zipf ? oracle.keys(1, kKeyPool) : nullptr;
  const std::shared_ptr<const KeySet> first =
      spec.zipf ? pool : oracle.keys(2, 1);

  // --- setup: load, start, first correct answer; median of several --------
  // The server gets every CPU but one, the generator that one, so the
  // spinning generator never competes with a server thread.
  const std::vector<int> cpus = allowed_cpus();
  const bool pinned = cpus.size() >= 4;
  const std::vector<int> server_cpus =
      pinned ? std::vector<int>(cpus.begin() + 1, cpus.end()) : cpus;
  pin_current_thread(server_cpus);
  std::vector<double> setup_s;
  Server server;
  for (std::size_t r = 0; r < kSetupRepeats; ++r) {
    if (server.net != nullptr) server.net->stop();
    server = Server{};
    setup_s.push_back(set_up(model_path, *first, &server, sheet));
  }
  sheet->set("setup_s", median(setup_s), "s");
  if (pinned) pin_current_thread({cpus.front()});

  LoadGenerator gen;
  std::string error;
  if (!gen.connect(server.net->port(), kConnections, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    std::exit(2);
  }
  if (!spec.zipf) fill_cache(*server.runtime, config.seed);
  // From the warm-up to the last reload the server's CPUs never halt (see
  // IdleSpinners); their CPU time is left out of every figure below.
  auto spinners = std::make_unique<IdleSpinners>(
      pinned ? server_cpus : std::vector<int>{});

  std::uint64_t stream = 100;
  // Runs one phase; `server_cpu_s`, when given, receives the CPU time of
  // every thread but the generator while the phase ran (the oracle's engine
  // threads sleep then, so that is the server's), and `threads_used` the
  // number of threads that did work in it (at least 1% of the phase on a
  // CPU: the generator and the connection handlers, which run the engine
  // pass inline; the acceptor and the oracle's pool stay idle, and the idle
  // spinners are not counted).
  auto run_phase = [&](const std::string& name, double rate, double secs,
                       std::size_t min_count, bool probe, Tracer* t,
                       Phase* keep, double* server_cpu_s = nullptr,
                       std::size_t* threads_used = nullptr) {
    Phase phase = make_phase(name, rate, secs, min_count, stream++, spec,
                             config, pool, &oracle);
    PhaseLimits limits;
    if (probe) {
      limits.drain_ns = static_cast<std::int64_t>(4 * spec.p99_limit_ms * 1e6);
      limits.abort_backlog = static_cast<std::size_t>(
          std::max(256.0, 8 * rate * spec.p99_limit_ms / 1e3));
    }
    const double process0 = process_cpu_s();
    const double generator0 = thread_cpu_s();
    const double spinners0 = spinners->cpu_s();
    const std::map<long, std::uint64_t> run0 = thread_run_ns();
    const std::int64_t start = now_ns();
    PhaseOutcome out = gen.run(phase.requests, phase.keys->table(), limits, t);
    if (threads_used != nullptr) {
      const std::map<long, std::uint64_t> run1 = thread_run_ns();
      *threads_used = busy_threads(run0, run1,
                                   static_cast<std::uint64_t>(
                                       now_ns() - start) / 100) -
                      spinners->size();
      std::printf("# budget: threads_used=%zu (of %zu in the process, "
                  "idle spinners=%zu) connections=%zu engine_threads=%zu "
                  "(inline) nproc=%zu\n",
                  *threads_used, run1.size(), spinners->size(),
                  gen.connections(), server.runtime->threads(), cpus.size());
    }
    if (server_cpu_s != nullptr) {
      *server_cpu_s = (process_cpu_s() - process0) -
                      (thread_cpu_s() - generator0) -
                      (spinners->cpu_s() - spinners0);
    }
    sheet->attempted += out.sent;
    // An overloaded ladder probe leaves answers owed by design; anything
    // wrong, refused or lost still fails the run.
    sheet->failed += probe ? out.wrong + out.errors + out.transport
                           : out.failed();
    if (keep != nullptr) *keep = std::move(phase);
    return out;
  };

  // --- warm-up: caches fill, lazy setup finishes ---------------------------
  {
    Phase warm;
    const PhaseOutcome out = run_phase("warmup", spec.high_rps,
                                       std::max(0.2, 0.04 * seconds), 0,
                                       false, nullptr, &warm);
    summarize(warm, out, spec);
  }

  // --- low and high phases -------------------------------------------------
  // The two phases alternate in chunks of about kChunkSeconds, so each
  // spans the whole measuring time and both see the same host. An untraced
  // run spends nearly all of --seconds here; a traced run (two passes of
  // half the time) also runs the rate ladder.
  const double measure_s = (config.trace ? 0.4 : 0.85) * seconds;
  const std::size_t pairs = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(measure_s /
                                              (2 * kChunkSeconds))));
  const double chunk_s = measure_s / (2 * static_cast<double>(pairs));
  Phase low, high;  // the first chunk of each, for the traced replays
  PhaseOutcome low_first, high_first;
  PhaseOutcome low_out, high_out;
  std::vector<double> cpu_us;  // per high chunk: server CPU per answer
  ServeStats low_d, high_d;
  std::size_t threads_used = 0;
  for (std::size_t c = 0; c < pairs; ++c) {
    for (const bool is_high : {false, true}) {
      const std::string name = is_high ? "high" : "low";
      const double rate = is_high ? spec.high_rps : spec.low_rps;
      const std::size_t min_count = (kMinSamples + pairs - 1) / pairs;
      const ServeStats before = query_stats(&gen, sheet);
      Phase chunk;
      double chunk_cpu_s = 0.0;
      PhaseOutcome out = run_phase(
          name, rate, chunk_s, min_count, false, trace, &chunk,
          is_high ? &chunk_cpu_s : nullptr,
          is_high && c == 0 ? &threads_used : nullptr);
      (is_high ? high_d : low_d).merge(delta(query_stats(&gen, sheet), before));
      if (is_high) {
        cpu_us.push_back(1e6 * chunk_cpu_s /
                         static_cast<double>(
                             std::max<std::uint64_t>(1, out.succeeded)));
      }
      append(&(is_high ? high_out : low_out), out);
      if (c == 0) {
        (is_high ? high : low) = std::move(chunk);
        (is_high ? high_first : low_first) = std::move(out);
      }
    }
  }
  // The lower quartile over the chunks: the host slows the guest's CPUs in
  // stretches (steal time, a slower CPU state), and a chunk that falls in
  // one costs more CPU per answer; the lower quartile stays with the
  // host's fast stretches unless it is slow three quarters of the time.
  sheet->set("cpu_us_per_prediction", quantile(cpu_us, 0.25), "us");
  const PhaseSummary low_sum = summarize(low, low_out, spec);
  const PhaseSummary high_sum = summarize(high, high_out, spec);
  sheet->set("low.latency_p50_ms", low_sum.p50_ms, "ms");
  sheet->set("high.latency_p50_ms", high_sum.p50_ms, "ms");
  sheet->set("tail.low.latency_p99_ms", low_sum.p99_ms, "ms");
  sheet->set("tail.high.latency_p99_ms", high_sum.p99_ms, "ms");

  // --- rate ladder: the highest rate that meets the limits ----------------
  // Near capacity a probe passes or fails by chance (queueing, host
  // stalls), so one pass/fail search lands a few rungs apart from run to
  // run. Instead, coarse steps of kCoarseStep rungs from the high rate find
  // the knee, then a one-up-one-down staircase of kStaircaseProbes probes
  // (up a rung after a pass, down after a failure) walks around it; the
  // staircase settles where half the probes pass, and the mean rung it
  // visited is the maximum rate.
  // Its rate is a per-layer metric, so only a traced run measures it.
  if (config.trace) {
    const int base = static_cast<int>(std::floor(
        std::log(spec.high_rps / kLadderBase) / std::log(kLadderRatio)));
    const int top = base + kLadderSpan;
    const double probe_s = std::max(0.2, 0.02 * seconds);
    auto probe_meets = [&](int rung) {
      Phase probe;
      const PhaseOutcome out = run_phase("probe", ladder_rate(rung), probe_s,
                                         kMinSamples, true, nullptr, &probe);
      return summarize(probe, out, spec).meets;
    };
    int rung = base;
    const bool base_meets = high_sum.meets;
    const int direction = base_meets ? 1 : -1;
    while (true) {
      const int next = std::clamp(rung + direction * kCoarseStep, 0, top);
      if (next == rung) break;
      if (probe_meets(next) != base_meets) {
        rung = (rung + next) / 2;
        break;
      }
      rung = next;
    }
    double rung_sum = 0.0;
    for (int i = 0; i < kStaircaseProbes; ++i) {
      rung_sum += rung;
      rung = std::clamp(rung + (probe_meets(rung) ? 1 : -1), 0, top);
    }
    const double mean_rung = rung_sum / kStaircaseProbes;
    const double max_rate =
        kLadderBase * std::pow(kLadderRatio, mean_rung);
    std::printf("# ladder: max_rate=%.0f/s (mean rung %.2f of a %d-probe "
                "staircase, ratio %.2f, p99 limit %.2f ms)%s\n",
                max_rate, mean_rung, kStaircaseProbes, kLadderRatio,
                spec.p99_limit_ms,
                mean_rung >= top - 1 ? " CAPPED: capacity reaches the top of "
                                       "the ladder"
                                     : "");
    sheet->set("throughput.predictions_per_s", max_rate, "1/s");
  }

  // --- reload round trip ---------------------------------------------------
  std::vector<double> reload_ms;
  if (spec.zipf) {
    reload_ms = low_out.reload_ms;
    reload_ms.insert(reload_ms.end(), high_out.reload_ms.begin(),
                     high_out.reload_ms.end());
  } else {
    // No reloads under uniform traffic (by design); time them idle after
    // the measured phases instead.
    std::vector<Request> reloads;
    for (std::size_t i = 0; i < kReloadProbes; ++i) {
      reloads.push_back(
          Request{.at_ns = static_cast<std::int64_t>(i) * 20'000'000,
                  .conn = static_cast<std::uint8_t>(i % kConnections),
                  .kind = RequestKind::kReload});
    }
    const PhaseOutcome out = gen.run(reloads, FrameTable{}, PhaseLimits{});
    sheet->attempted += out.sent;
    sheet->failed += out.failed();
    reload_ms = out.reload_ms;
  }
  sheet->set("reload.round_trip_ms", median(reload_ms), "ms");
  std::printf("# reloads: %zu round trips, median %.4f ms\n",
              reload_ms.size(), median(reload_ms));

  spinners.reset();

  if (traced) {
    ServeStats both = low_d;
    both.cache_hits += high_d.cache_hits;
    both.cache_misses += high_d.cache_misses;
    both.cache_inserts += high_d.cache_inserts;
    both.cache_evictions += high_d.cache_evictions;
    both.cache_stale += high_d.cache_stale;
    const std::uint64_t probes = both.cache_hits + both.cache_misses;
    sheet->set("serve.predict_cache.hit_rate", ratio(both.cache_hits, probes),
               "ratio");
    sheet->set("serve.predict_cache.stale_rate",
               ratio(both.cache_stale, probes), "ratio");
    sheet->set("serve.predict_cache.evictions_per_insert",
               ratio(both.cache_evictions, both.cache_inserts), "ratio");
    sheet->set("serve.micro_batcher.low.mean_window_fill",
               low_d.mean_window_fill(), "examples");
    sheet->set("serve.micro_batcher.high.mean_window_fill",
               high_d.mean_window_fill(), "examples");
    sheet->set("serve.micro_batcher.low.timeout_share",
               ratio(low_d.timeouts, low_d.batches), "ratio");
    sheet->set("serve.micro_batcher.high.timeout_share",
               ratio(high_d.timeouts, high_d.batches), "ratio");
    std::vector<double> lag = low_out.lag_ms;
    lag.insert(lag.end(), high_out.lag_ms.begin(), high_out.lag_ms.end());
    sheet->set("loadgen.lag_p50_ms", quantile(lag, 0.5), "ms");
    sheet->set("loadgen.lag_p99_ms", quantile(lag, 0.99), "ms");
    sheet->set("budget.threads", static_cast<double>(threads_used),
               "threads");
    sheet->set("budget.connections", static_cast<double>(gen.connections()),
               "count");
  }

  gen.close();
  server.net->stop();
  server = Server{};
  pin_current_thread(cpus);

  if (traced) {
    replay_serving_layers(model_path, {&low, &high},
                          {&low_first, &high_first},
                          std::max(0.5, 0.1 * seconds), config.seed, trace,
                          sheet);
    measure_load_and_reload(model_path, trace, sheet);
  }
  sheet->set("rss_mb", peak_rss_mb(), "MB");
}

}  // namespace perfbench
