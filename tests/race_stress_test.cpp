// Race-hunt stress targets for the ThreadSanitizer build mode
// (cmake -DPOETBIN_SANITIZE=thread, run under
//  TSAN_OPTIONS="suppressions=$PWD/tsan.supp").
//
// Each test hammers one known-dangerous interleaving of the serving
// stack's concurrency — the lock-free prediction cache under epoch churn,
// the Runtime's RCU snapshot vs. reload publish, the MicroBatcher's
// multi-producer window handoff, NetServer::stop() against in-flight
// connections, and the BatchEngine busy-flag handoff — with functional
// asserts that hold in ANY build: a cache hit must reproduce the inserted
// prediction exactly, every served class must be a published tag, versions
// must be monotonic per thread. Under TSan the same tests double as race
// detectors: the suite must come up clean with zero suppressions naming
// poetbin:: frames (tsan.supp policy, enforced by
// tools/check_invariants.py).
//
// The tests also run in the regular suites; iteration counts shrink under
// POETBIN_TSAN (the interleavings matter, not the volume — TSan's
// happens-before analysis flags a race the first time the two accesses
// overlap without an edge).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/batch_eval.h"
#include "core/poetbin.h"
#include "core/rinc.h"
#include "core/serialize.h"
#include "dt/lut.h"
#include "serve/micro_batcher.h"
#include "serve/net_client.h"
#include "serve/net_server.h"
#include "serve/predict_cache.h"
#include "serve/runtime.h"
#include "util/bit_matrix.h"
#include "util/bitvector.h"
#include "util/rng.h"

namespace poetbin {
namespace {

#if defined(POETBIN_TSAN)
constexpr std::size_t kScale = 1;  // TSan runs ~10x slower; races, not reps
#else
constexpr std::size_t kScale = 8;
#endif

constexpr std::size_t kFeatures = 16;
constexpr std::size_t kClasses = 3;

// A model whose prediction is `tag` for every input (the hot_reload_test
// instrument): torn or mixed-version reads become impossible predictions.
PoetBin tagged_model(int tag) {
  const std::size_t p = 2;
  PoetBinConfig config;
  config.rinc.lut_inputs = p;
  config.n_classes = kClasses;
  std::vector<RincModule> modules;
  for (std::size_t m = 0; m < kClasses * p; ++m) {
    std::vector<std::size_t> inputs = {
        (m + static_cast<std::size_t>(tag)) % (kFeatures - 1), kFeatures - 1};
    BitVector table(std::size_t{1} << p);
    for (std::size_t a = 0; a < table.size(); ++a) {
      table.set(a, ((m + a + static_cast<std::size_t>(tag)) % 3) == 0);
    }
    modules.push_back(
        RincModule::make_leaf(Lut(std::move(inputs), std::move(table))));
  }
  const QuantizerParams quantizer;
  const std::size_t n_combos = std::size_t{1} << p;
  std::vector<SparseOutputNeuron> neurons(kClasses);
  for (std::size_t c = 0; c < kClasses; ++c) {
    neurons[c].input_modules.resize(p);
    neurons[c].weights.assign(p, 0.0f);
    neurons[c].codes.assign(
        n_combos, c == static_cast<std::size_t>(tag) ? quantizer.levels() - 1
                                                     : 0u);
    for (std::size_t j = 0; j < p; ++j) {
      neurons[c].input_modules[j] = c * p + j;
    }
  }
  return PoetBin::from_parts(config, std::move(modules), std::move(neurons),
                             quantizer);
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

BitVector example_bits(std::uint64_t seed, std::size_t n_bits = kFeatures) {
  Rng rng(seed);
  BitVector bits(n_bits);
  for (std::size_t f = 0; f < n_bits; ++f) {
    if (rng.next_bool()) bits.set(f, true);
  }
  return bits;
}

// --- predict_cache: probe/insert vs. epoch churn ---------------------------

// The cache's whole correctness contract under fire: N producers probe and
// insert while a churn thread advances the epoch (including 2^32-crossing
// bumps that trigger clear()) and issues bare clear()s. Predictions are a
// pure function of the key, so ANY hit that fails to reproduce f(bits)
// would be a torn/aliased entry escaping the XOR verification.
TEST(RaceStress, PredictCacheProbeInsertEpochChurn) {
  PredictCache cache({.capacity_bytes = 1u << 14, .shards = 4});  // tiny:
  // 1024 entries under ~hundred-thousand keys forces constant bucket
  // collisions, evictions and same-slot overwrites.
  std::atomic<std::uint64_t> published{1};
  cache.set_epoch(1);

  const std::size_t n_producers = 4;
  const std::size_t iters = 4000 * kScale;
  std::atomic<std::uint64_t> hits{0};
  std::vector<std::thread> threads;
  threads.reserve(n_producers + 1);
  for (std::size_t t = 0; t < n_producers; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(0xACE0 + t);
      for (std::size_t i = 0; i < iters; ++i) {
        const BitVector bits = example_bits(rng.next_below(512), 96);
        const PredictCache::Key key = PredictCache::make_key(bits);
        const int expected = static_cast<int>(key.verify % 1000);
        int prediction = -1;
        if (cache.probe(key, &prediction)) {
          // A hit may be from any epoch's insert of this key — but the
          // prediction is keyed-derived, so it must match exactly.
          ASSERT_EQ(prediction, expected);
          hits.fetch_add(1, std::memory_order_relaxed);
        } else {
          // order: relaxed — the test only needs SOME recent epoch value;
          // inserting under a just-retired epoch is exactly the stale-entry
          // case the cache must turn into a miss, never a wrong hit.
          cache.insert(key, expected,
                       published.load(std::memory_order_relaxed));
        }
      }
    });
  }
  threads.emplace_back([&] {
    // Epoch churn: small bumps, occasional 2^32 crossings (wraparound
    // clear), and bare clear()s racing the producers' probes.
    for (std::size_t i = 0; i < 300 * kScale; ++i) {
      const std::uint64_t next =
          (i % 16 == 15) ? (published.load(std::memory_order_relaxed) +
                            (std::uint64_t{1} << 32))
                         : published.load(std::memory_order_relaxed) + 1;
      // order: relaxed — publication order for the cache is established by
      // set_epoch's own release; this variable just hands the value around.
      published.store(next, std::memory_order_relaxed);
      cache.set_epoch(next);
      if (i % 64 == 63) cache.clear();
      std::this_thread::yield();
    }
  });
  for (auto& thread : threads) thread.join();

  const PredictCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, hits.load());
  EXPECT_EQ(stats.hits + stats.misses, n_producers * iters);
  // Stable keys + inserts-on-miss must produce some hits even under churn.
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.inserts, 0u);
}

// --- Runtime: RCU snapshot vs. reload publish -------------------------------

// Readers hammer predict_one (through the cache when enabled) while a
// reloader flips the primary slot between two tagged artifacts. Every
// response must be exactly one published tag, and each reader's observed
// version sequence must be non-decreasing (RCU publishes are totally
// ordered by the slot's seq_cst store).
TEST(RaceStress, RuntimeSnapshotVsReloadPublish) {
  const std::string path_a = temp_path("race_rcu_a.pbm");
  const std::string path_b = temp_path("race_rcu_b.pbm");
  ASSERT_TRUE(write_packed_model_file(tagged_model(0), path_a).ok());
  ASSERT_TRUE(write_packed_model_file(tagged_model(1), path_b).ok());

  Runtime::LoadResult loaded = Runtime::load(
      path_a, {.threads = 1, .cache_bytes = 1u << 14});
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  Runtime runtime = std::move(loaded).value();

  std::atomic<bool> stop{false};
  const std::size_t n_readers = 4;
  std::vector<std::thread> readers;
  readers.reserve(n_readers);
  for (std::size_t t = 0; t < n_readers; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(0xBEEF + t);
      std::uint64_t last_version = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const int cls = runtime.predict_one(example_bits(rng.next_below(64)));
        ASSERT_TRUE(cls == 0 || cls == 1) << "impossible tag " << cls;
        const std::uint64_t version = runtime.snapshot()->version;
        ASSERT_GE(version, last_version) << "RCU version went backwards";
        last_version = version;
      }
    });
  }
  for (std::size_t i = 0; i < 40 * kScale; ++i) {
    const IoStatus swapped = runtime.reload(i % 2 == 0 ? path_b : path_a);
    ASSERT_TRUE(swapped.ok()) << swapped.error().message;
    std::this_thread::yield();
  }
  stop.store(true);
  for (auto& reader : readers) reader.join();
}

// --- MicroBatcher: multi-producer submit/flush vs. leader dispatch ----------

// Single-request leaders, ticket-burst submitters and a flusher all
// contend for the same window while a reloader churns the published
// version underneath (dispatch pins a snapshot; cache inserts tag with
// that snapshot's version). Every result must be a published tag.
TEST(RaceStress, MicroBatcherSubmitFlushVsLeaderDispatch) {
  const std::string path_a = temp_path("race_mb_a.pbm");
  const std::string path_b = temp_path("race_mb_b.pbm");
  ASSERT_TRUE(write_packed_model_file(tagged_model(1), path_a).ok());
  ASSERT_TRUE(write_packed_model_file(tagged_model(2), path_b).ok());
  Runtime::LoadResult loaded = Runtime::load(
      path_a, {.threads = 2, .cache_bytes = 1u << 14});
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  Runtime runtime = std::move(loaded).value();
  MicroBatcher batcher(runtime, {.max_batch = 8,
                                 .max_wait = std::chrono::microseconds(100)});

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  const std::size_t iters = 200 * kScale;
  // Two single-request producers (each get() leads its window)...
  for (std::size_t t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(0xCAFE + t);
      for (std::size_t i = 0; i < iters; ++i) {
        const BitVector bits = example_bits(rng.next_below(64));
        const int cls = batcher.submit(bits).get();
        ASSERT_TRUE(cls == 1 || cls == 2) << "impossible tag " << cls;
      }
    });
  }
  // ...two async producers holding small ticket bursts (the submit path;
  // the bits behind each ticket must stay alive until get() returns)...
  for (std::size_t t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(0xD00D + t);
      for (std::size_t i = 0; i < iters / 4; ++i) {
        std::vector<BitVector> burst;
        burst.reserve(4);
        for (std::size_t b = 0; b < 4; ++b) {
          burst.push_back(example_bits(rng.next_below(64)));
        }
        std::vector<MicroBatcher::Ticket> tickets;
        tickets.reserve(burst.size());
        for (const BitVector& bits : burst) {
          tickets.push_back(batcher.submit(bits));
        }
        for (auto& ticket : tickets) {
          const int cls = ticket.get();
          ASSERT_TRUE(cls == 1 || cls == 2) << "impossible tag " << cls;
        }
      }
    });
  }
  // ...a flusher forcing partial-window dispatches...
  threads.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      batcher.flush();
      std::this_thread::yield();
    }
  });
  // ...and a reloader churning the RCU slot under the dispatch path.
  threads.emplace_back([&] {
    std::size_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      ASSERT_TRUE(runtime.reload(++i % 2 == 0 ? path_a : path_b).ok());
      std::this_thread::yield();
    }
  });
  for (std::size_t t = 0; t < 4; ++t) threads[t].join();
  stop.store(true);
  threads[4].join();
  threads[5].join();

  const ServeStats stats = batcher.stats();
  EXPECT_GE(stats.requests, 2 * iters + 2 * (iters / 4) * 4);
}

// --- NetServer: stop() vs. in-flight connections ----------------------------

// Pipelined clients keep frames in flight while the server is stopped and
// restarted. stop() must join the acceptor and every handler without
// racing them (handlers_ handoff, stats merging, batcher flush); clients
// must only ever observe clean answers or a closed connection.
TEST(RaceStress, NetServerStopVsInflightConnections) {
  Runtime runtime(tagged_model(2), {.threads = 1});
  for (std::size_t round = 0; round < 2 * kScale; ++round) {
    NetServer server(runtime, {.max_batch = 8,
                               .max_wait = std::chrono::microseconds(100)});
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    const std::uint16_t port = server.port();

    std::atomic<bool> stop{false};
    const std::size_t n_clients = 3;
    std::vector<std::thread> clients;
    clients.reserve(n_clients);
    for (std::size_t t = 0; t < n_clients; ++t) {
      clients.emplace_back([&, t] {
        Rng rng(0xF00D + (round << 8) + t);
        while (!stop.load(std::memory_order_relaxed)) {
          NetClient client;
          if (!client.connect("127.0.0.1", port,
                              std::chrono::milliseconds(500))) {
            return;  // server already stopping
          }
          std::vector<BitVector> burst;
          for (std::size_t b = 0; b < 8; ++b) {
            burst.push_back(example_bits(rng.next_below(64)));
          }
          std::vector<const BitVector*> request_ptrs;
          for (const BitVector& bits : burst) request_ptrs.push_back(&bits);
          std::vector<wire::Response> responses;
          if (!client.predict_pipelined(request_ptrs, &responses)) {
            return;  // connection torn down mid-burst by stop(): legal
          }
          for (const wire::Response& response : responses) {
            ASSERT_EQ(response.status, wire::Status::kOk);
            ASSERT_EQ(response.prediction, 2);
          }
        }
      });
    }
    // Let traffic build, then yank the server out from under it. The stop
    // flag only stops NEW bursts — bursts already in flight race stop()'s
    // handler teardown, which is the interleaving under test.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    stop.store(true);
    server.stop();
    for (auto& client : clients) client.join();
    // Post-join the counters are quiescent; reading them exercises the
    // stats-merge path against whatever the handlers recorded last.
    (void)server.stats();
  }
}

// --- BatchEngine: busy_ flag handoff ----------------------------------------

// Two engines on two Runtimes run dataset passes concurrently: the
// re-entrancy guard is per-engine state and must never false-trip across
// engines, and the handoff (exchange-acquire / reset-release) must be
// TSan-clean when one engine is reused across threads back to back.
TEST(RaceStress, TwoEnginesNeverFalseTripBusyGuard) {
  const BatchEngine engine_a(2);
  const BatchEngine engine_b(2);
  const std::size_t iters = 50 * kScale;
  auto hammer = [iters](const BatchEngine& engine, std::uint64_t seed) {
    Rng rng(seed);
    for (std::size_t i = 0; i < iters; ++i) {
      std::atomic<std::uint64_t> sum{0};
      engine.parallel_for(8, [&](std::size_t job) {
        // order: relaxed — independent per-job contributions; only the
        // final summed value is asserted after parallel_for returns.
        sum.fetch_add(job + 1, std::memory_order_relaxed);
      });
      ASSERT_EQ(sum.load(), 36u);  // 1 + 2 + ... + 8
      if (rng.next_bool(0.1)) std::this_thread::yield();
    }
  };
  std::thread thread_a(hammer, std::cref(engine_a), 1);
  std::thread thread_b(hammer, std::cref(engine_b), 2);
  thread_a.join();
  thread_b.join();
  // Back-to-back reuse of ONE engine from a fresh thread: the release in
  // BusyReset must hand the previous pass's writes to this exchange.
  std::thread thread_c(hammer, std::cref(engine_a), 3);
  thread_c.join();
}

// The deployment shape of the same guard: two Runtimes (each owning its
// persistent engine) run fused predict passes concurrently. Neither may
// see the other's busy_ flag, and results stay bit-identical to scalar.
TEST(RaceStress, TwoRuntimesPredictConcurrently) {
  Runtime runtime_a(tagged_model(0), {.threads = 2});
  Runtime runtime_b(tagged_model(1), {.threads = 2});
  BitMatrix features(64, kFeatures);
  Rng rng(0xFEED);
  for (std::size_t r = 0; r < features.rows(); ++r) {
    for (std::size_t f = 0; f < kFeatures; ++f) {
      if (rng.next_bool()) features.set(r, f, true);
    }
  }
  auto drive = [&](const Runtime& runtime, int tag) {
    for (std::size_t i = 0; i < 20 * kScale; ++i) {
      const std::vector<int> predictions = runtime.predict(features);
      for (const int cls : predictions) ASSERT_EQ(cls, tag);
    }
  };
  std::thread thread_b([&] { drive(runtime_b, 1); });
  drive(runtime_a, 0);
  thread_b.join();
}

}  // namespace
}  // namespace poetbin
