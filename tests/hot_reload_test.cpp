// Atomic hot reload under live traffic: Runtime's RCU version slot, held
// snapshots pinning their version and the kReload/kModelInfo wire frames.
//
// The instrument is a version-tagged model: every output code is rigged so
// predict() returns one constant class regardless of input. Swapping
// between differently-tagged models while readers hammer predict_one makes
// torn or mixed-version reads visible as impossible predictions — each
// response must equal exactly one version's tag, and each thread must see
// the tags in publish order.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/packed_model.h"
#include "core/poetbin.h"
#include "core/rinc.h"
#include "core/serialize.h"
#include "dt/lut.h"
#include "serve/net_client.h"
#include "serve/net_server.h"
#include "serve/runtime.h"
#include "test_util.h"
#include "util/bitvector.h"
#include "util/rng.h"

namespace poetbin {
namespace {

constexpr std::size_t kFeatures = 16;
constexpr std::size_t kClasses = 3;

// A model whose prediction is `tag` for every input: class `tag` gets the
// maximum output code everywhere, everyone else zero. The LUT tables also
// vary with the tag so differently-tagged files differ throughout, not
// just in the output layer.
PoetBin tagged_model(int tag, std::size_t n_classes = kClasses,
                     std::size_t n_features = kFeatures) {
  const std::size_t p = 2;
  PoetBinConfig config;
  config.rinc.lut_inputs = p;
  config.n_classes = n_classes;
  std::vector<RincModule> modules;
  for (std::size_t m = 0; m < n_classes * p; ++m) {
    // Always reference the last feature so every tag derives the same
    // n_features (reload's compatibility check compares shapes).
    std::vector<std::size_t> inputs = {
        (m + static_cast<std::size_t>(tag)) % (n_features - 1),
        n_features - 1};
    BitVector table(std::size_t{1} << p);
    for (std::size_t a = 0; a < table.size(); ++a) {
      table.set(a, ((m + a + static_cast<std::size_t>(tag)) % 3) == 0);
    }
    modules.push_back(
        RincModule::make_leaf(Lut(std::move(inputs), std::move(table))));
  }
  const QuantizerParams quantizer;  // 256 levels over [0, 1]
  const std::size_t n_combos = std::size_t{1} << p;
  std::vector<SparseOutputNeuron> neurons(n_classes);
  for (std::size_t c = 0; c < n_classes; ++c) {
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

BitVector example_bits(std::uint64_t seed) {
  Rng rng(seed);
  BitVector bits(kFeatures);
  for (std::size_t f = 0; f < kFeatures; ++f) {
    if (rng.next_bool()) bits.set(f, true);
  }
  return bits;
}

TEST(HotReload, TaggedModelPredictsItsTagThroughBothFormats) {
  for (int tag = 0; tag < static_cast<int>(kClasses); ++tag) {
    const PoetBin model = tagged_model(tag);
    for (std::uint64_t s = 0; s < 16; ++s) {
      EXPECT_EQ(model.predict(example_bits(s)), tag);
    }
    const std::string text = temp_path("tagged.txt");
    const std::string packed = temp_path("tagged.pbm");
    ASSERT_TRUE(write_model_file(model, text).ok());
    ASSERT_TRUE(write_packed_model_file(model, packed).ok());
    const IoResult<LoadedModel> from_text = read_model_file_any(text);
    const IoResult<LoadedModel> from_packed = read_model_file_any(packed);
    ASSERT_TRUE(from_text.ok());
    ASSERT_TRUE(from_packed.ok()) << from_packed.error().message;
    EXPECT_EQ(from_text->model.predict(example_bits(tag)), tag);
    EXPECT_EQ(from_packed->model.predict(example_bits(tag)), tag);
  }
}

// The tentpole invariant at the Runtime level: 8 threads hammer
// predict_one while the main thread publishes tag 0 -> 1 -> 2 via
// reload(). Every response must be some published tag, and each thread
// must observe tags in publish order (RCU swaps are totally ordered).
TEST(HotReload, ReloadIsAtomicUnderConcurrentPredictOne) {
  const std::string path = temp_path("hot_reload_rt.pbm");
  ASSERT_TRUE(write_packed_model_file(tagged_model(0), path).ok());
  Runtime::LoadResult loaded = Runtime::load(path, {.threads = 1});
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  Runtime runtime = std::move(loaded).value();
  EXPECT_EQ(runtime.model_version(), 1u);
  EXPECT_EQ(runtime.model_format(), ModelFormat::kPacked);

  constexpr std::size_t kThreads = 8;
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> out_of_order{0};
  std::atomic<std::size_t> invalid{0};
  std::vector<std::thread> readers;
  readers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      const BitVector bits = example_bits(t);
      int last = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const int tag = runtime.predict_one(bits);
        if (tag < 0 || tag >= static_cast<int>(kClasses)) {
          invalid.fetch_add(1, std::memory_order_relaxed);
        } else if (tag < last) {
          out_of_order.fetch_add(1, std::memory_order_relaxed);
        } else {
          last = tag;
        }
      }
    });
  }
  for (int tag = 1; tag < static_cast<int>(kClasses); ++tag) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(write_packed_model_file(tagged_model(tag), path).ok());
    const IoStatus swapped = runtime.reload();
    ASSERT_TRUE(swapped.ok()) << swapped.error().message;
    EXPECT_EQ(runtime.predict_one(example_bits(99)), tag);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop.store(true);
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(invalid.load(), 0u);
  EXPECT_EQ(out_of_order.load(), 0u);
  EXPECT_EQ(runtime.model_version(), 3u);
}

// The ISSUE acceptance at the wire level: a live kReload under 8
// concurrent client threads. Every served prediction must be the old tag
// or the new tag — exactly one model version per response — and the swap
// must be visible to model_info. A follow-up corrupt push must come back
// kReloadFailed with the good model still serving.
TEST(HotReload, NetServerKReloadUnderEightClientThreads) {
  const std::string path = temp_path("hot_reload_srv.pbm");
  ASSERT_TRUE(write_packed_model_file(tagged_model(0), path).ok());
  Runtime::LoadResult loaded = Runtime::load(path, {.threads = 1});
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  Runtime runtime = std::move(loaded).value();
  NetServer server(runtime, {.port = 0,
                             .max_batch = 16,
                             .max_wait = std::chrono::microseconds(200)});
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kRequestsPerThread = 300;
  std::atomic<std::size_t> transport_errors{0};
  std::atomic<std::size_t> bad_tags{0};
  std::atomic<std::size_t> out_of_order{0};
  std::atomic<std::size_t> saw_new_tag{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      NetClient client;
      if (!client.connect("127.0.0.1", server.port())) {
        transport_errors.fetch_add(1);
        return;
      }
      const BitVector bits = example_bits(100 + t);
      wire::Response response;
      int last = 0;
      for (std::size_t r = 0; r < kRequestsPerThread; ++r) {
        if (!client.predict(bits, &response) ||
            response.status != wire::Status::kOk) {
          transport_errors.fetch_add(1);
          return;
        }
        const int tag = response.prediction;
        if (tag != 0 && tag != 1) {
          bad_tags.fetch_add(1);
        } else if (tag < last) {
          out_of_order.fetch_add(1);
        } else {
          last = tag;
        }
        if (tag == 1) saw_new_tag.fetch_add(1);
      }
    });
  }

  // Push the new version roughly mid-run and fire the live kReload.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(write_packed_model_file(tagged_model(1), path).ok());
  NetClient control;
  ASSERT_TRUE(control.connect("127.0.0.1", server.port()));
  wire::Response response;
  ASSERT_TRUE(control.reload(&response));
  EXPECT_EQ(response.status, wire::Status::kOk);
  EXPECT_EQ(response.model_version, 2u);

  for (auto& client : clients) client.join();
  EXPECT_EQ(transport_errors.load(), 0u);
  EXPECT_EQ(bad_tags.load(), 0u);
  EXPECT_EQ(out_of_order.load(), 0u);
  EXPECT_GT(saw_new_tag.load(), 0u);

  // kModelInfo reflects the swap.
  ASSERT_TRUE(control.model_info(&response));
  EXPECT_EQ(response.status, wire::Status::kOk);
  EXPECT_EQ(response.model_version, 2u);
  EXPECT_EQ(response.model_format,
            static_cast<std::uint8_t>(ModelFormat::kPacked));
  EXPECT_EQ(response.n_classes, kClasses);

  // A corrupt push is rejected over the wire and the good model keeps
  // serving. Pushed via rename like a real deploy — overwriting a mapped
  // file in place is forbidden by the format contract.
  {
    const std::string staged = path + ".push";
    std::ofstream corrupt(staged, std::ios::binary | std::ios::trunc);
    corrupt << "PoETBiNP and then garbage";
    corrupt.close();
    ASSERT_EQ(std::rename(staged.c_str(), path.c_str()), 0);
  }
  ASSERT_TRUE(control.reload(&response));
  EXPECT_EQ(response.status, wire::Status::kReloadFailed);
  ASSERT_TRUE(control.predict(example_bits(7), &response));
  EXPECT_EQ(response.status, wire::Status::kOk);
  EXPECT_EQ(response.prediction, 1);
  ASSERT_TRUE(control.model_info(&response));
  EXPECT_EQ(response.model_version, 2u);
  server.stop();
}

// The Runtime-level reload invariant again, with the prediction cache ON:
// every response must still be a published tag, in publish order per
// thread. A cache that lagged a publication (epoch set after the slot
// store, or a missing release/acquire pair) would resurrect an old tag
// after a thread has already seen the new one.
TEST(HotReload, CacheOnReloadKeepsPerThreadTagOrder) {
  const std::string path = temp_path("hot_reload_cache.pbm");
  ASSERT_TRUE(write_packed_model_file(tagged_model(0), path).ok());
  Runtime::LoadResult loaded =
      Runtime::load(path, {.threads = 1, .cache_bytes = 1u << 16});
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  Runtime runtime = std::move(loaded).value();
  ASSERT_NE(runtime.cache(), nullptr);

  constexpr std::size_t kThreads = 8;
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> out_of_order{0};
  std::atomic<std::size_t> invalid{0};
  std::vector<std::thread> readers;
  readers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      // Few distinct keys per thread so the cache hits constantly.
      const BitVector keys[2] = {example_bits(t), example_bits(50 + t)};
      int last = 0;
      std::size_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const int tag = runtime.predict_one(keys[i++ & 1]);
        if (tag < 0 || tag >= static_cast<int>(kClasses)) {
          invalid.fetch_add(1, std::memory_order_relaxed);
        } else if (tag < last) {
          out_of_order.fetch_add(1, std::memory_order_relaxed);
        } else {
          last = tag;
        }
      }
    });
  }
  for (int tag = 1; tag < static_cast<int>(kClasses); ++tag) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_TRUE(write_packed_model_file(tagged_model(tag), path).ok());
    ASSERT_TRUE(runtime.reload().ok());
    EXPECT_EQ(runtime.predict_one(example_bits(99)), tag);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop.store(true);
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(invalid.load(), 0u);
  EXPECT_EQ(out_of_order.load(), 0u);
  const PredictCacheStats stats = runtime.cache()->stats();
  EXPECT_GT(stats.hits, 0u);   // the cache actually served
  EXPECT_GT(stats.stale, 0u);  // and the publishes actually invalidated
}

// retrain_output_layer publishes mid-run while 8 cache-on threads hammer
// one key each. Per thread, the served value may switch from the old
// model's answer to the retrained model's answer exactly once — any third
// transition means a stale cached answer resurfaced after the swap.
TEST(HotReload, CacheOnRetrainSwitchesEachThreadAtMostOnce) {
  Runtime runtime(tagged_model(0), {.threads = 1, .cache_bytes = 1u << 16});
  ASSERT_NE(runtime.cache(), nullptr);

  constexpr std::size_t kThreads = 8;
  std::atomic<bool> stop{false};
  std::vector<std::vector<int>> transitions(kThreads);
  std::vector<std::thread> readers;
  readers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      const BitVector bits = example_bits(t);
      while (!stop.load(std::memory_order_relaxed)) {
        const int got = runtime.predict_one(bits);
        if (transitions[t].empty() || transitions[t].back() != got) {
          transitions[t].push_back(got);
        }
      }
    });
  }

  // Retrain toward constant class 1 on a random feature matrix. What the
  // retrained model actually predicts per key is read back afterwards —
  // the invariant is single-switch, not any particular class.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const std::size_t n_train = 64;
  BitMatrix train(n_train, kFeatures);
  Rng rng(23);
  for (std::size_t i = 0; i < n_train; ++i) {
    for (std::size_t f = 0; f < kFeatures; ++f) {
      train.set(i, f, rng.next_bool());
    }
  }
  runtime.retrain_output_layer(train, std::vector<int>(n_train, 1));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop.store(true);
  for (auto& reader : readers) reader.join();

  EXPECT_EQ(runtime.model_version(), 2u);
  for (std::size_t t = 0; t < kThreads; ++t) {
    const int before = 0;  // tagged_model(0) predicts 0 everywhere
    const int after = runtime.model().predict(example_bits(t));
    ASSERT_LE(transitions[t].size(), 2u) << "thread " << t << " flapped";
    if (!transitions[t].empty()) {
      EXPECT_TRUE(transitions[t].front() == before ||
                  transitions[t].front() == after);
    }
    if (transitions[t].size() == 2) {
      EXPECT_EQ(transitions[t].front(), before);
      EXPECT_EQ(transitions[t].back(), after);
    }
  }
}

// End-to-end cache-on serving: a client hammering one key over the wire
// gets cache hits, a kReload mid-stream flips the answer immediately (the
// stale entry must not outlive the publish), and the kStats frame carries
// the cache counters back out.
TEST(HotReload, NetServerCacheOnReloadAndWireStats) {
  const std::string path = temp_path("hot_reload_cache_srv.pbm");
  ASSERT_TRUE(write_packed_model_file(tagged_model(0), path).ok());
  Runtime::LoadResult loaded =
      Runtime::load(path, {.threads = 1, .cache_bytes = 1u << 16});
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  Runtime runtime = std::move(loaded).value();
  NetServer server(runtime, {.port = 0,
                             .max_batch = 16,
                             .max_wait = std::chrono::microseconds(200)});
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  NetClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  const BitVector bits = example_bits(42);
  wire::Response response;
  for (int r = 0; r < 50; ++r) {
    ASSERT_TRUE(client.predict(bits, &response));
    ASSERT_EQ(response.status, wire::Status::kOk);
    EXPECT_EQ(response.prediction, 0);
  }

  ASSERT_TRUE(write_packed_model_file(tagged_model(1), path).ok());
  ASSERT_TRUE(client.reload(&response));
  ASSERT_EQ(response.status, wire::Status::kOk);
  // The very first post-reload probe of the hot key must miss the cached
  // tag-0 entry and serve the new model.
  for (int r = 0; r < 10; ++r) {
    ASSERT_TRUE(client.predict(bits, &response));
    ASSERT_EQ(response.status, wire::Status::kOk);
    EXPECT_EQ(response.prediction, 1);
  }

  ASSERT_TRUE(client.query_stats(&response));
  ASSERT_EQ(response.status, wire::Status::kOk);
  EXPECT_EQ(response.stats.requests, 60u);
  EXPECT_GT(response.stats.cache_hits, 0u);
  EXPECT_GT(response.stats.cache_inserts, 0u);
  EXPECT_GT(response.stats.cache_stale, 0u);
  EXPECT_EQ(response.stats.cache_hits, server.stats().cache_hits);
  server.stop();
}

// Every reload failure mode leaves the serving version untouched: missing
// file, corrupt bytes, and a valid-but-incompatible model. A snapshot held
// across the successful reload that follows keeps its version.
TEST(HotReload, FailedReloadKeepsOldVersionServing) {
  const std::string path = temp_path("hot_reload_fail.pbm");
  ASSERT_TRUE(write_packed_model_file(tagged_model(2), path).ok());
  Runtime::LoadResult loaded = Runtime::load(path, {.threads = 1});
  ASSERT_TRUE(loaded.ok());
  Runtime runtime = std::move(loaded).value();
  const BitVector bits = example_bits(5);
  ASSERT_EQ(runtime.predict_one(bits), 2);

  IoStatus status = runtime.reload(temp_path("does_not_exist.pbm"));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().kind, ModelIoError::Kind::kFileNotFound);

  const std::string corrupt = temp_path("hot_reload_corrupt.pbm");
  {
    std::ofstream out(corrupt, std::ios::binary);
    out << "PoETBiNP short";
  }
  status = runtime.reload(corrupt);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().kind, ModelIoError::Kind::kCorruptSection);

  const std::string incompatible = temp_path("hot_reload_incompat.pbm");
  ASSERT_TRUE(
      write_packed_model_file(tagged_model(1, kClasses + 1), incompatible)
          .ok());
  status = runtime.reload(incompatible);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().kind, ModelIoError::Kind::kIncompatibleModel);

  EXPECT_EQ(runtime.predict_one(bits), 2);
  EXPECT_EQ(runtime.model_version(), 1u);
  EXPECT_EQ(runtime.source_path(), path);

  // A held snapshot pins its version: after a successful reload from the
  // rewritten packed file, new requests see the new model while the
  // snapshot keeps predicting the old one.
  const Runtime::Snapshot held = runtime.snapshot();
  ASSERT_TRUE(write_packed_model_file(tagged_model(1), path).ok());
  ASSERT_TRUE(runtime.reload().ok());
  EXPECT_EQ(runtime.predict_one(bits), 1);
  EXPECT_EQ(held->version, 1u);
  EXPECT_EQ(held->model.predict(bits), 2);
  BitMatrix batch(2, kFeatures);
  for (std::size_t b = 0; b < kFeatures; ++b) batch.set(0, b, bits.get(b));
  EXPECT_EQ(runtime.predict_snapshot(held, batch), (std::vector<int>{2, 2}));
  EXPECT_EQ(runtime.predict(batch), (std::vector<int>{1, 1}));
}

// A conv model whose classifier predicts `tag` everywhere: the conv front
// end is a real trained RINC conv over 1x4x4 frames (wire width kFeatures),
// the tagged classifier reads its 2x4x4 = 32 flattened output bits. The
// conv layer is trained once and shared so differently-tagged models stay
// reload-compatible (same wire width) while differing throughout the
// classifier.
ConvModel conv_tagged_model(int tag) {
  static const RincConvLayer* layer = [] {
    const BinShape3 in_shape{1, 4, 4};
    RincConvConfig config;
    config.out_channels = 2;
    config.kernel = 3;
    config.stride = 1;
    config.padding = 1;
    config.rinc = {.lut_inputs = 3, .levels = 1, .total_dts = 3};
    Rng rng(77);
    BitMatrix inputs(60, in_shape.flat());
    BitMatrix targets(60, 2 * 4 * 4);
    for (std::size_t i = 0; i < 60; ++i) {
      for (std::size_t k = 0; k < inputs.cols(); ++k) {
        if (rng.next_bool()) inputs.set(i, k, true);
      }
      for (std::size_t k = 0; k < targets.cols(); ++k) {
        if (rng.next_bool()) targets.set(i, k, true);
      }
    }
    return new RincConvLayer(
        RincConvLayer::train(inputs, in_shape, targets, config));
  }();
  ConvModel model;
  model.conv = *layer;
  model.classifier = tagged_model(tag, kClasses, /*n_features=*/2 * 4 * 4);
  return model;
}

// Conv models as first-class serving citizens: packed conv file behind
// Runtime + NetServer, frames on the wire at the conv input width, conv
// shape in kModelInfo, and dense <-> conv hot swaps allowed when the wire
// width matches.
TEST(HotReload, ConvModelServesAndHotSwapsWithDense) {
  static_assert(kFeatures == 16, "conv fixture assumes 1x4x4 frames");
  const std::string path = temp_path("hot_reload_conv.pbm");
  ASSERT_TRUE(write_packed_conv_model_file(conv_tagged_model(0), path).ok());
  Runtime::LoadResult loaded =
      Runtime::load(path, {.threads = 1, .cache_bytes = 1u << 16});
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  Runtime runtime = std::move(loaded).value();
  Runtime::Snapshot snap = runtime.snapshot();
  ASSERT_TRUE(snap->is_conv());
  EXPECT_EQ(snap->n_features(), kFeatures);  // wire width = frame width
  EXPECT_EQ(snap->conv->output_shape(), (BinShape3{2, 4, 4}));

  // Scalar, cached-scalar, and dataset paths all see the tag through the
  // conv front end.
  const BitVector frame = example_bits(3);
  EXPECT_EQ(runtime.predict_one(frame), 0);
  EXPECT_EQ(runtime.predict_one(frame), 0);  // cache hit, same answer
  BitMatrix frames(130, kFeatures);
  for (std::size_t i = 0; i < frames.rows(); ++i) {
    const BitVector bits = example_bits(200 + i);
    for (std::size_t f = 0; f < kFeatures; ++f) {
      frames.set(i, f, bits.get(f));
    }
  }
  EXPECT_EQ(runtime.predict(frames), std::vector<int>(frames.rows(), 0));

  NetServer server(runtime, {.port = 0,
                             .max_batch = 16,
                             .max_wait = std::chrono::microseconds(200)});
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  NetClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));

  // Frames at the conv input width predict; kModelInfo reports the shape.
  wire::Response response;
  ASSERT_TRUE(client.predict(frame, &response));
  EXPECT_EQ(response.status, wire::Status::kOk);
  EXPECT_EQ(response.prediction, 0);
  ASSERT_TRUE(client.model_info(&response));
  EXPECT_EQ(response.status, wire::Status::kOk);
  EXPECT_EQ(response.n_features, kFeatures);
  EXPECT_EQ(response.conv.has_conv, 1);
  EXPECT_EQ(response.conv.in_channels, 1u);
  EXPECT_EQ(response.conv.in_height, 4u);
  EXPECT_EQ(response.conv.in_width, 4u);
  EXPECT_EQ(response.conv.out_channels, 2u);
  EXPECT_EQ(response.conv.out_height, 4u);
  EXPECT_EQ(response.conv.out_width, 4u);

  // A dense model with the same wire width hot-swaps in over the live
  // connection; has_conv drops back to zero.
  ASSERT_TRUE(write_packed_model_file(tagged_model(1), path).ok());
  ASSERT_TRUE(client.reload(&response));
  EXPECT_EQ(response.status, wire::Status::kOk);
  ASSERT_TRUE(client.predict(frame, &response));
  EXPECT_EQ(response.prediction, 1);
  ASSERT_TRUE(client.model_info(&response));
  EXPECT_EQ(response.conv.has_conv, 0);

  // And the conv model swaps back, through the same slot.
  ASSERT_TRUE(write_packed_conv_model_file(conv_tagged_model(2), path).ok());
  ASSERT_TRUE(client.reload(&response));
  EXPECT_EQ(response.status, wire::Status::kOk);
  ASSERT_TRUE(client.predict(frame, &response));
  EXPECT_EQ(response.prediction, 2);
  ASSERT_TRUE(client.model_info(&response));
  EXPECT_EQ(response.conv.has_conv, 1);
  server.stop();

  // The text conv format serves through the same loader.
  const std::string text_path = temp_path("hot_reload_conv.txt");
  ASSERT_TRUE(write_conv_model_file(conv_tagged_model(1), text_path).ok());
  Runtime::LoadResult text_loaded = Runtime::load(text_path, {.threads = 1});
  ASSERT_TRUE(text_loaded.ok()) << text_loaded.error().message;
  EXPECT_EQ(text_loaded->model_format(), ModelFormat::kText);
  EXPECT_TRUE(text_loaded->snapshot()->is_conv());
  EXPECT_EQ(text_loaded->predict_one(frame), 1);
}

// Conv save paths: a Runtime serving a conv model round-trips it through
// save() (text) and save_packed() with predictions intact.
TEST(HotReload, ConvRuntimeSaveRoundTrips) {
  const Runtime runtime(conv_tagged_model(1), {.threads = 1});
  ASSERT_TRUE(runtime.snapshot()->is_conv());
  const std::string text_path = temp_path("conv_save.txt");
  const std::string packed_path = temp_path("conv_save.pbm");
  ASSERT_TRUE(runtime.save(text_path).ok());
  ASSERT_TRUE(runtime.save_packed(packed_path).ok());
  for (const std::string& path : {text_path, packed_path}) {
    Runtime::LoadResult loaded = Runtime::load(path, {.threads = 1});
    ASSERT_TRUE(loaded.ok()) << loaded.error().message;
    EXPECT_TRUE(loaded->snapshot()->is_conv());
    EXPECT_EQ(loaded->predict_one(example_bits(8)), 1);
    std::remove(path.c_str());
  }
}

// A conv model whose wire width differs is an incompatible reload target.
TEST(HotReload, MismatchedConvWidthIsIncompatible) {
  Runtime runtime(tagged_model(0), {.threads = 1});  // 16-bit wire width
  ConvModel conv = conv_tagged_model(1);
  const std::string path = temp_path("conv_incompat.pbm");
  ASSERT_TRUE(write_packed_conv_model_file(conv, path).ok());
  // 16-bit conv wire width matches the dense model: reload succeeds.
  ASSERT_TRUE(runtime.reload(path).ok());
  ASSERT_TRUE(runtime.snapshot()->is_conv());
  // A dense model at the conv *output* width (32) is now incompatible.
  const std::string wide = temp_path("conv_incompat_wide.pbm");
  ASSERT_TRUE(
      write_packed_model_file(tagged_model(0, kClasses, 32), wide).ok());
  const IoStatus status = runtime.reload(wide);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().kind, ModelIoError::Kind::kIncompatibleModel);
  EXPECT_TRUE(runtime.snapshot()->is_conv());  // old version keeps serving
}

}  // namespace
}  // namespace poetbin
