// Per-layer replays of the recorded serving stream. Every timed call here
// is a public library entry point; spans wrap the benchmark's own calls,
// not code inside the library.
#include <algorithm>
#include <thread>
#include <vector>

#include "core/packed_model.h"
#include "serve/micro_batcher.h"
#include "serve/predict_cache.h"
#include "serve/protocol.h"
#include "serve/runtime.h"
#include "serving.h"
#include "util/rng.h"

namespace perfbench {

namespace wire = poetbin::wire;
using poetbin::BitVector;
using poetbin::Runtime;

namespace {

void fill_cache_entries(poetbin::PredictCache* cache, std::uint64_t version,
                        std::uint64_t seed) {
  poetbin::Rng rng(seed ^ 0xf111cac4eULL);
  const std::size_t n = 4 * cache->capacity_entries();
  for (std::size_t i = 0; i < n; ++i) {
    const poetbin::PredictCache::Key key{rng.next_u64(), rng.next_u64()};
    cache->insert(key, static_cast<int>(i % 10), version);
  }
}

constexpr std::size_t kBlock = 256;            // calls per span
constexpr std::size_t kProtocolRequests = 1 << 16;
constexpr std::size_t kWindows = 256;
constexpr std::size_t kLoadRepeats = 15;

// Encode and decode every frame kind a predict round trip uses, on the
// high phase's own inputs, one span per block of kBlock calls.
void replay_protocol(const Phase& phase, Tracer* tracer, Sheet* sheet) {
  std::vector<const Request*> predicts;
  for (const Request& r : phase.requests) {
    if (r.kind == RequestKind::kPredict) predicts.push_back(&r);
    if (predicts.size() == kProtocolRequests) break;
  }
  double encode_ns = 0.0, decode_ns = 0.0;
  std::vector<BitVector> bits;
  std::vector<std::uint8_t> requests, responses;
  for (std::size_t b = 0; b < predicts.size(); b += kBlock) {
    const std::size_t n = std::min(kBlock, predicts.size() - b);
    bits.clear();
    for (std::size_t i = 0; i < n; ++i) {
      bits.push_back(row_bits(phase.keys->rows, predicts[b + i]->frame));
    }
    requests.clear();
    responses.clear();
    const auto id = static_cast<std::uint32_t>(b);
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < n; ++i) {
      wire::encode_predict_request(bits[i], &requests);
    }
    const std::int64_t t1 = now_ns();
    std::size_t offset = 0;
    bool decoded_ok = true;
    for (std::size_t i = 0; i < n; ++i) {
      wire::Request request;
      wire::Status status = wire::Status::kOk;
      bool fatal = false;
      decoded_ok &= wire::decode_request(requests.data(), requests.size(),
                                         &offset, &request, &status, &fatal) ==
                        wire::FrameResult::kFrame &&
                    request.bits == bits[i];
    }
    const std::int64_t t2 = now_ns();
    for (std::size_t i = 0; i < n; ++i) {
      wire::encode_predict_response(wire::Status::kOk,
                                    predicts[b + i]->expected, &responses);
    }
    const std::int64_t t3 = now_ns();
    offset = 0;
    for (std::size_t i = 0; i < n; ++i) {
      wire::Response response;
      decoded_ok &= wire::decode_response(responses.data(), responses.size(),
                                          &offset, &response) ==
                        wire::FrameResult::kFrame &&
                    response.prediction == predicts[b + i]->expected;
    }
    const std::int64_t t4 = now_ns();
    sheet->check(decoded_ok, "wire round trip");
    const std::uint32_t root =
        tracer->add("replay.protocol", t0, t4, Tracer::kNoParent, id);
    tracer->add("serve.protocol.encode_request", t0, t1, root, id);
    tracer->add("serve.protocol.decode_request", t1, t2, root, id);
    tracer->add("serve.protocol.encode_response", t2, t3, root, id);
    tracer->add("serve.protocol.decode_response", t3, t4, root, id);
    encode_ns += static_cast<double>((t1 - t0) + (t3 - t2));
    decode_ns += static_cast<double>((t2 - t1) + (t4 - t3));
  }
  const double n =
      static_cast<double>(std::max<std::size_t>(1, predicts.size()));
  sheet->set("serve.protocol.encode_ns", encode_ns / n, "ns");
  sheet->set("serve.protocol.decode_ns", decode_ns / n, "ns");
}

// The low-then-high request stream through a fresh cache of the serving
// size, bumping the epoch wherever the stream reloaded.
void replay_cache(const std::vector<const Phase*>& phases,
                  std::uint64_t seed, Tracer* tracer, Sheet* sheet) {
  poetbin::PredictCache cache({.capacity_bytes = 8u << 20});
  std::uint64_t version = 1;
  cache.set_epoch(version);
  // Uniform keys never repeat: the server's cache was full of live entries
  // when they arrived, so this one is too.
  if (!phases.empty() && !phases.front()->from_pool) {
    fill_cache_entries(&cache, version, seed);
  }
  double probe_ns = 0.0, insert_ns = 0.0;
  std::uint64_t probes = 0, inserts = 0;
  std::vector<BitVector> bits;
  std::vector<poetbin::PredictCache::Key> keys;
  std::vector<std::size_t> misses;
  for (const Phase* phase : phases) {
    const auto& reqs = phase->requests;
    std::size_t i = 0;
    while (i < reqs.size()) {
      if (reqs[i].kind == RequestKind::kReload) {
        cache.set_epoch(++version);
        ++i;
        continue;
      }
      std::size_t end = i;
      while (end < reqs.size() && end - i < kBlock &&
             reqs[end].kind == RequestKind::kPredict) {
        ++end;
      }
      bits.clear();
      for (std::size_t r = i; r < end; ++r) {
        bits.push_back(row_bits(phase->keys->rows, reqs[r].frame));
      }
      keys.assign(bits.size(), {});
      misses.clear();
      bool hits_ok = true;
      const std::int64_t t0 = now_ns();
      for (std::size_t k = 0; k < bits.size(); ++k) {
        keys[k] = poetbin::PredictCache::make_key(bits[k]);
        int prediction = 0;
        if (cache.probe(keys[k], &prediction)) {
          hits_ok &= prediction == reqs[i + k].expected;
        } else {
          misses.push_back(k);
        }
      }
      const std::int64_t t1 = now_ns();
      for (const std::size_t k : misses) {
        cache.insert(keys[k], reqs[i + k].expected, version);
      }
      const std::int64_t t2 = now_ns();
      sheet->check(hits_ok, "cache hit");
      const auto id = static_cast<std::uint32_t>(i);
      const std::uint32_t root =
          tracer->add("replay.cache", t0, t2, Tracer::kNoParent, id);
      tracer->add("serve.predict_cache.probe", t0, t1, root, id);
      tracer->add("serve.predict_cache.insert", t1, t2, root, id);
      probe_ns += static_cast<double>(t1 - t0);
      insert_ns += static_cast<double>(t2 - t1);
      probes += bits.size();
      inserts += misses.size();
      i = end;
    }
  }
  sheet->set("serve.predict_cache.probe_ns",
             probes == 0 ? 0.0 : probe_ns / static_cast<double>(probes), "ns");
  sheet->set("serve.predict_cache.insert_ns",
             inserts == 0 ? 0.0 : insert_ns / static_cast<double>(inserts),
             "ns");
}

// One phase's first `seconds` of schedule through an in-process
// MicroBatcher over a Runtime configured like the server's. One thread per
// connection plays that connection's requests the way a server handler
// does: it submits every request that is due (up to a window's worth),
// then collects their answers in order; a reload runs inline where the
// stream had one. The difference to the network latency of the same
// requests is what the TCP and protocol path add.
void replay_batcher(const std::string& model_path, const Phase& phase,
                    const PhaseOutcome& network, double seconds,
                    std::uint64_t seed, Tracer* tracer, Sheet* sheet) {
  Runtime runtime = load_runtime(model_path, {.threads = 1,
                                              .cache_bytes = 8u << 20});
  poetbin::MicroBatcher batcher(runtime);
  const auto horizon = static_cast<std::int64_t>(seconds * 1e9);
  std::size_t n = 0;
  while (n < phase.requests.size() && phase.requests[n].at_ns <= horizon) ++n;
  // Inputs outlive their tickets: one BitVector per key, built up front.
  std::vector<BitVector> bits(phase.keys->rows.rows());
  for (std::size_t i = 0; i < n; ++i) {
    const Request& r = phase.requests[i];
    if (r.kind == RequestKind::kPredict && bits[r.frame].empty()) {
      bits[r.frame] = row_bits(phase.keys->rows, r.frame);
    }
  }
  // A zipf phase ran against a warm cache, a uniform one against a full
  // one; prepare this one the same way.
  if (!phase.from_pool) fill_cache(runtime, seed);
  if (phase.from_pool) {
    std::vector<poetbin::MicroBatcher::Ticket> warm;
    for (std::size_t k = 0; k < bits.size(); ++k) {
      if (bits[k].empty()) bits[k] = row_bits(phase.keys->rows, k);
      warm.push_back(batcher.submit(bits[k]));
    }
    batcher.flush();
    for (auto& t : warm) t.get();
  }

  std::vector<std::int64_t> sub0(n, 0), sub1(n, 0), get0(n, 0), get1(n, 0);
  std::vector<int> answer(n, -1);
  std::vector<char> reload_ok(n, 1);
  const std::int64_t start = now_ns() + 1'000'000;
  auto handler = [&](std::uint8_t conn) {
    std::vector<std::size_t> round;
    std::vector<poetbin::MicroBatcher::Ticket> tickets;
    std::size_t i = 0;
    while (true) {
      while (i < n && phase.requests[i].conn != conn) ++i;
      if (i == n) return;
      const std::int64_t due = start + phase.requests[i].at_ns;
      while (now_ns() < due) {
      }
      round.clear();
      tickets.clear();
      std::size_t predicts = 0;
      for (; i < n && predicts < 64 &&
             start + phase.requests[i].at_ns <= now_ns();
           ++i) {
        const Request& r = phase.requests[i];
        if (r.conn != conn) continue;
        round.push_back(i);
        sub0[i] = now_ns();
        if (r.kind == RequestKind::kPredict) {
          tickets.push_back(batcher.submit(bits[r.frame]));
          ++predicts;
        }
        sub1[i] = now_ns();
      }
      std::size_t t = 0;
      for (const std::size_t k : round) {
        get0[k] = now_ns();
        if (phase.requests[k].kind == RequestKind::kPredict) {
          answer[k] = tickets[t++].get();
        } else {
          reload_ok[k] = runtime.reload().ok() ? 1 : 0;
        }
        get1[k] = now_ns();
      }
    }
  };
  std::thread first(handler, std::uint8_t{0});
  handler(1);
  first.join();

  std::vector<double> wait_us, replay_ms, network_ms;
  bool answers_ok = true;
  for (std::size_t k = 0; k < n; ++k) {
    const Request& r = phase.requests[k];
    if (r.kind != RequestKind::kPredict) {
      answers_ok &= reload_ok[k] != 0;
      continue;
    }
    answers_ok &= answer[k] == r.expected;
    wait_us.push_back(1e-3 * static_cast<double>(get1[k] - sub0[k]));
    replay_ms.push_back(1e-6 *
                        static_cast<double>(get1[k] - (start + r.at_ns)));
    if (network.done_ns[k] >= 0) {
      network_ms.push_back(1e-6 *
                           static_cast<double>(network.done_ns[k] - r.at_ns));
    }
    const auto id = static_cast<std::uint32_t>(k);
    const std::uint32_t root = tracer->add("replay.request", start + r.at_ns,
                                           get1[k], Tracer::kNoParent, id);
    tracer->add("serve.micro_batcher.submit", sub0[k], sub1[k], root, id);
    tracer->add("serve.micro_batcher.get", get0[k], get1[k], root, id);
  }
  sheet->check(answers_ok, "micro-batcher replay");
  sheet->set("serve.micro_batcher." + phase.name + ".wait_us", median(wait_us),
             "us");
  sheet->set("serve.net." + phase.name + ".residual_us",
             1e3 * (median(network_ms) - median(replay_ms)), "us");
}

// Consecutive 64-request windows of the phase through predict_snapshot on
// a one-thread Runtime, the call a dispatched micro-batch window makes.
void replay_windows(const std::string& model_path, const Phase& phase,
                    Tracer* tracer, Sheet* sheet) {
  Runtime runtime = load_runtime(model_path, {.threads = 1});
  const Runtime::Snapshot snap = runtime.snapshot();
  std::vector<const Request*> predicts;
  for (const Request& r : phase.requests) {
    if (r.kind == RequestKind::kPredict) predicts.push_back(&r);
  }
  std::vector<double> window_us;
  Inputs window;
  window.n_bits = phase.keys->rows.n_bits;
  window.words_per_row = phase.keys->rows.words_per_row;
  bool answers_ok = true;
  for (std::size_t w = 0; w < kWindows && (w + 1) * 64 <= predicts.size();
       ++w) {
    window.words.clear();
    for (std::size_t i = 0; i < 64; ++i) {
      const std::uint64_t* row =
          phase.keys->rows.row(predicts[w * 64 + i]->frame);
      window.words.insert(window.words.end(), row, row + window.words_per_row);
    }
    const poetbin::BitMatrix matrix = to_matrix(window, 0, 64);
    const std::int64_t t0 = now_ns();
    const std::vector<int> classes = runtime.predict_snapshot(snap, matrix);
    const std::int64_t t1 = now_ns();
    for (std::size_t i = 0; i < 64; ++i) {
      answers_ok &= classes[i] == predicts[w * 64 + i]->expected;
    }
    tracer->add("core.batch_eval.predict_snapshot", t0, t1, Tracer::kNoParent,
                static_cast<std::uint32_t>(w * 64));
    window_us.push_back(1e-3 * static_cast<double>(t1 - t0));
  }
  sheet->check(answers_ok, "window predict");
  sheet->set("core.batch_eval.window_us", median(window_us), "us");
}

}  // namespace

void fill_cache(const Runtime& runtime, std::uint64_t seed) {
  fill_cache_entries(runtime.cache(), runtime.model_version(), seed);
}

void replay_serving_layers(const std::string& model_path,
                           const std::vector<const Phase*>& phases,
                           const std::vector<const PhaseOutcome*>& network,
                           double replay_seconds, std::uint64_t seed,
                           Tracer* tracer, Sheet* sheet) {
  replay_protocol(*phases.back(), tracer, sheet);
  replay_cache(phases, seed, tracer, sheet);
  for (std::size_t p = 0; p < phases.size(); ++p) {
    replay_batcher(model_path, *phases[p], *network[p], replay_seconds, seed,
                   tracer, sheet);
  }
  replay_windows(model_path, *phases.back(), tracer, sheet);
}

void measure_load_and_reload(const std::string& model_path, Tracer* tracer,
                             Sheet* sheet) {
  std::vector<double> load_ms, reload_ms;
  for (std::size_t r = 0; r < kLoadRepeats; ++r) {
    const std::int64_t t0 = now_ns();
    const auto loaded = poetbin::read_model_file_any(
        model_path, poetbin::PackedVerify::kTrustChecksum);
    const std::int64_t t1 = now_ns();
    sheet->check(loaded.ok(), "packed load");
    tracer->add("core.packed_model.read_model_file_any", t0, t1);
    load_ms.push_back(1e-6 * static_cast<double>(t1 - t0));
  }
  Runtime runtime = load_runtime(model_path, {.threads = 1});
  for (std::size_t r = 0; r < kLoadRepeats; ++r) {
    const std::int64_t t0 = now_ns();
    const bool ok = runtime.reload().ok();
    const std::int64_t t1 = now_ns();
    sheet->check(ok, "runtime reload");
    tracer->add("serve.runtime.reload", t0, t1);
    reload_ms.push_back(1e-6 * static_cast<double>(t1 - t0));
  }
  const double load = median(load_ms);
  const double reload = median(reload_ms);
  sheet->set("core.packed_model.load_ms", load, "ms");
  sheet->set("serve.runtime.reload_ms", reload, "ms");
  sheet->set("serve.runtime.publish_ms", std::max(0.0, reload - load), "ms");
}

}  // namespace perfbench
