// Serving-layer contract: a Runtime (loaded from disk or trained in
// memory) and a MicroBatcher on top of it must reproduce the scalar
// oracles in tests/reference bit for bit — under every SIMD word backend,
// at any thread count, fused or not, and under concurrent producers.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/rinc_conv.h"
#include "core/serialize.h"
#include "reference/scalar_reference.h"
#include "serve/micro_batcher.h"
#include "serve/runtime.h"
#include "serve/serve_stats.h"
#include "test_util.h"
#include "util/word_backend.h"

namespace poetbin {
namespace {

struct ServeFixture {
  BinaryDataset data;
  PoetBin model;
  std::vector<int> scalar_preds;   // the oracle every path must match
  std::vector<BitVector> rows;     // per-example request bits
  double scalar_accuracy = 0.0;
};

// One trained model shared by every test in this file (training dominates
// the suite's runtime; the serving paths under test never mutate it).
const ServeFixture& fixture() {
  static const ServeFixture* fx = [] {
    auto* f = new ServeFixture;
    f->data = testing::prototype_dataset(600, 64, 21);
    const std::size_t p = 4;
    BitMatrix intermediate(f->data.size(), f->data.n_classes * p);
    Rng rng(31);
    for (std::size_t i = 0; i < f->data.size(); ++i) {
      for (std::size_t j = 0; j < intermediate.cols(); ++j) {
        const bool is_class = f->data.labels[i] == static_cast<int>(j / p);
        intermediate.set(i, j, is_class != rng.next_bool(0.05));
      }
    }
    PoetBinConfig config;
    config.rinc = {.lut_inputs = p, .levels = 1, .total_dts = 4};
    config.n_classes = f->data.n_classes;
    config.output.epochs = 40;
    config.threads = 1;
    f->model = PoetBin::train(f->data.features, intermediate, f->data.labels,
                              config);
    f->scalar_preds = reference::predict_dataset(f->model, f->data.features);
    f->scalar_accuracy = prediction_accuracy(f->scalar_preds, f->data.labels);
    f->rows.reserve(f->data.size());
    for (std::size_t i = 0; i < f->data.size(); ++i) {
      f->rows.push_back(f->data.features.row(i));
    }
    return f;
  }();
  return *fx;
}

// The fused word pass against the column-scan oracle, which materializes
// the RINC bank and runs the per-example argmax.
TEST(Runtime, PredictMatchesScalarFusedAndMaterialized) {
  const ServeFixture& fx = fixture();
  const Runtime runtime(fx.model, {.threads = 2});
  EXPECT_EQ(runtime.predict(fx.data.features), fx.scalar_preds);
  EXPECT_DOUBLE_EQ(runtime.accuracy(fx.data.features, fx.data.labels),
                   fx.scalar_accuracy);
}

TEST(Runtime, PredictOneMatchesScalar) {
  const ServeFixture& fx = fixture();
  const Runtime runtime(fx.model, {.threads = 1});
  for (std::size_t i = 0; i < 40; ++i) {
    EXPECT_EQ(runtime.predict_one(fx.rows[i]), fx.scalar_preds[i]);
  }
}

TEST(Runtime, RincOutputsMatchScalar) {
  const ServeFixture& fx = fixture();
  const Runtime runtime(fx.model, {.threads = 3});
  EXPECT_EQ(runtime.rinc_outputs(fx.data.features),
            reference::rinc_outputs(fx.model, fx.data.features));
}

// Save a trained model, reload it under each word backend and several
// thread counts, and every Runtime (and a MicroBatcher on top of it)
// predicts bit-identically to the column-scan oracle on the original
// model.
TEST(Runtime, SerializedReloadIsBitIdenticalUnderEveryBackend) {
  const ServeFixture& fx = fixture();
  testing::BackendGuard guard;
  const std::string path = ::testing::TempDir() + "/runtime_model.txt";
  {
    const Runtime writer(fx.model, {.threads = 1});
    ASSERT_TRUE(writer.save(path).ok());
  }
  for (const WordBackend backend : available_word_backends()) {
    set_word_backend(backend);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{5}}) {
      Runtime::LoadResult runtime = Runtime::load(path, {.threads = threads});
      ASSERT_TRUE(runtime.ok());
      EXPECT_EQ(runtime->backend(), backend);
      EXPECT_EQ(runtime->threads(), threads);
      EXPECT_EQ(runtime->predict(fx.data.features), fx.scalar_preds)
          << word_backend_name(backend) << " x " << threads << " threads";

      MicroBatcher batcher(*runtime, {.max_batch = 64});
      std::vector<MicroBatcher::Ticket> tickets;
      tickets.reserve(fx.rows.size());
      for (const BitVector& row : fx.rows) {
        tickets.push_back(batcher.submit(row));
      }
      batcher.flush();
      for (std::size_t i = 0; i < tickets.size(); ++i) {
        ASSERT_EQ(tickets[i].get(), fx.scalar_preds[i])
            << word_backend_name(backend) << " x " << threads
            << " threads, example " << i;
      }
    }
  }
  std::remove(path.c_str());
}

TEST(Runtime, LoadMissingFileReturnsTypedError) {
  Runtime::LoadResult result = Runtime::load("/nonexistent/dir/model.txt");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().kind, ModelIoError::Kind::kFileNotFound);
  // The message names the offending path so callers can log it verbatim.
  EXPECT_NE(result.error().message.find("/nonexistent/dir/model.txt"),
            std::string::npos);
}

TEST(Runtime, RetrainOutputLayerMatchesScalarRetrain) {
  const ServeFixture& fx = fixture();
  Runtime runtime(fx.model, {.threads = 2});
  runtime.retrain_output_layer(fx.data.features, fx.data.labels);

  PoetBin want = fx.model;
  want.retrain_output_layer(reference::rinc_outputs(want, fx.data.features),
                            fx.data.labels, /*engine=*/nullptr);
  for (std::size_t c = 0; c < want.n_classes(); ++c) {
    EXPECT_EQ(runtime.model().output_neurons()[c].codes,
              want.output_neurons()[c].codes);
    EXPECT_EQ(runtime.model().output_neurons()[c].weights,
              want.output_neurons()[c].weights);
  }
}

TEST(MicroBatcher, SubmitPacksFullWindows) {
  const ServeFixture& fx = fixture();
  const Runtime runtime(fx.model, {.threads = 1});
  MicroBatcher batcher(runtime, {.max_batch = 64});
  std::vector<MicroBatcher::Ticket> tickets;
  tickets.reserve(fx.rows.size());
  for (const BitVector& row : fx.rows) {
    tickets.push_back(batcher.submit(row));
  }
  batcher.flush();
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    ASSERT_EQ(tickets[i].get(), fx.scalar_preds[i]) << "example " << i;
  }
  // 600 examples = 9 full 64-wide windows + one 24-example flush.
  const ServeStats stats = batcher.stats();
  EXPECT_EQ(stats.requests, fx.rows.size());
  EXPECT_EQ(stats.batches, (fx.rows.size() + 63) / 64);
  EXPECT_EQ(stats.timeouts, 0u);  // flush() is not a leader timeout
  // Window-fill histogram: the 9 full windows land in the last bucket, the
  // 24/64 flush window in bucket ceil(24*8/64)-1 = 2.
  EXPECT_EQ(stats.window_fill[ServeStats::kFillBuckets - 1], 9u);
  EXPECT_EQ(stats.window_fill[2], 1u);
  EXPECT_DOUBLE_EQ(stats.mean_window_fill(), 600.0 / 10.0);
}

// Back-to-back traffic: one full window of submits, which drives the
// batcher's arrival-gap estimate to busy so the next lone leader arms its
// max_wait timer. The 64th submit dispatches the window inline, and that
// dispatch falls inside the next request's arrival gap, so callers use a
// max_wait far above a 64-row dispatch even under a sanitizer (a gap of
// 2 x max_wait resets the estimate to idle). Returns the stats after the
// warm-up window.
ServeStats warm_arrival_estimate(MicroBatcher& batcher,
                                 const std::vector<BitVector>& rows) {
  std::vector<MicroBatcher::Ticket> tickets;
  for (std::size_t i = 0; i < 64; ++i) {
    tickets.push_back(batcher.submit(rows[i]));
  }
  for (MicroBatcher::Ticket& ticket : tickets) ticket.get();
  const ServeStats warm = batcher.stats();
  EXPECT_EQ(warm.batches, 1u);  // the 64 submits filled one window
  EXPECT_EQ(warm.timeouts, 0u);
  return warm;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

TEST(MicroBatcher, BlockingRequestTimesOutAlone) {
  const ServeFixture& fx = fixture();
  const Runtime runtime(fx.model, {.threads = 1});
  // Nobody else joins the window: under busy traffic the leader must
  // dispatch its partial batch after max_wait and still match the scalar
  // path.
  MicroBatcher batcher(runtime,
                       {.max_batch = 64,
                        .max_wait = std::chrono::milliseconds(50)});
  const ServeStats warm = warm_arrival_estimate(batcher, fx.rows);
  EXPECT_EQ(batcher.submit(fx.rows[100]).get(), fx.scalar_preds[100]);
  const ServeStats stats = batcher.stats();
  EXPECT_EQ(stats.requests, warm.requests + 1);
  EXPECT_EQ(stats.batches, warm.batches + 1);
  EXPECT_EQ(stats.timeouts, 1u);  // the partial window went out on max_wait
  EXPECT_EQ(stats.window_fill[0], 1u);  // 1/64 fill -> first bucket
}

TEST(MicroBatcher, BlockingRequestAfterAsyncSubmitStillTimesOut) {
  const ServeFixture& fx = fixture();
  const Runtime runtime(fx.model, {.threads = 1});
  MicroBatcher batcher(runtime,
                       {.max_batch = 64,
                        .max_wait = std::chrono::milliseconds(50)});
  const ServeStats warm = warm_arrival_estimate(batcher, fx.rows);
  // Two submits share a window; the get() on the second (slot 1) leads
  // it and dispatches it after max_wait, and the first ticket then reads
  // its answer from the same window.
  MicroBatcher::Ticket first = batcher.submit(fx.rows[100]);
  MicroBatcher::Ticket second = batcher.submit(fx.rows[101]);
  EXPECT_EQ(second.get(), fx.scalar_preds[101]);
  EXPECT_EQ(first.get(), fx.scalar_preds[100]);
  const ServeStats stats = batcher.stats();
  EXPECT_EQ(stats.batches, warm.batches + 1);
  EXPECT_EQ(stats.requests, warm.requests + 2);
  EXPECT_EQ(stats.timeouts, 1u);
}

// An idle batcher's estimate starts idle: a lone request is dispatched at
// once instead of waiting out max_wait, and that is not a timeout.
TEST(MicroBatcher, IdleBatcherAnswersLoneRequestAtOnce) {
  const ServeFixture& fx = fixture();
  const Runtime runtime(fx.model, {.threads = 1});
  MicroBatcher batcher(runtime,
                       {.max_batch = 64, .max_wait = std::chrono::seconds(2)});
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(batcher.submit(fx.rows[0]).get(), fx.scalar_preds[0]);
  EXPECT_LT(seconds_since(t0), 0.5);
  const ServeStats stats = batcher.stats();
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.timeouts, 0u);
  EXPECT_EQ(stats.window_fill[0], 1u);
}

// Busy traffic keeps the window; an idle pause of several max_wait makes
// the next lone request an at-once dispatch again.
TEST(MicroBatcher, IdlePauseReturnsToAtOnceDispatch) {
  const ServeFixture& fx = fixture();
  const Runtime runtime(fx.model, {.threads = 1});
  const auto max_wait = std::chrono::milliseconds(50);
  MicroBatcher batcher(runtime, {.max_batch = 64, .max_wait = max_wait});
  warm_arrival_estimate(batcher, fx.rows);
  auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(batcher.submit(fx.rows[100]).get(), fx.scalar_preds[100]);
  EXPECT_GE(seconds_since(t0), 0.05);  // the lone leader waited max_wait
  EXPECT_EQ(batcher.stats().timeouts, 1u);

  std::this_thread::sleep_for(5 * max_wait);
  t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(batcher.submit(fx.rows[101]).get(), fx.scalar_preds[101]);
  EXPECT_LT(seconds_since(t0), 0.05);
  const ServeStats stats = batcher.stats();
  EXPECT_EQ(stats.timeouts, 1u);  // the second lone window went out at once
  EXPECT_EQ(stats.batches, 3u);
}

// Misses that arrive every 1.5 x max_wait look like light traffic on their
// own, but with cache hits answered between them the stream is busy: the
// estimate counts hits as arrivals, so the later misses wait for company.
TEST(MicroBatcher, CacheHitsCountAsArrivals) {
  const ServeFixture& fx = fixture();
  const auto max_wait = std::chrono::milliseconds(20);
  std::uint64_t timeouts[2] = {0, 0};
  for (const bool with_hits : {false, true}) {
    const Runtime runtime(fx.model, {.threads = 1, .cache_bytes = 1u << 20});
    MicroBatcher batcher(runtime, {.max_batch = 64, .max_wait = max_wait});
    warm_arrival_estimate(batcher, fx.rows);  // caches rows 0..63
    // A pause, so that the misses alone start from an idle estimate.
    std::this_thread::sleep_for(5 * max_wait);
    for (std::size_t j = 0; j < 10; ++j) {
      std::this_thread::sleep_for(max_wait * 3 / 2);
      if (with_hits) {
        for (std::size_t i = 0; i < 16; ++i) {
          ASSERT_EQ(batcher.submit(fx.rows[i]).get(), fx.scalar_preds[i]);
        }
      }
      const std::size_t miss = 100 + j;
      ASSERT_EQ(batcher.submit(fx.rows[miss]).get(), fx.scalar_preds[miss]);
    }
    const ServeStats stats = batcher.stats();
    EXPECT_EQ(stats.batches, 11u);  // the warm-up window + 10 lone misses
    EXPECT_EQ(stats.cache_hits, with_hits ? 160u : 0u);
    timeouts[with_hits] = stats.timeouts;
  }
  EXPECT_EQ(timeouts[0], 0u);  // misses alone: every window at once
  EXPECT_GE(timeouts[1], 3u);  // with the hits: the window is kept
}

TEST(MicroBatcher, ZeroWaitDispatchesImmediately) {
  const ServeFixture& fx = fixture();
  const Runtime runtime(fx.model, {.threads = 1});
  MicroBatcher batcher(runtime,
                       {.max_batch = 64,
                        .max_wait = std::chrono::microseconds(0)});
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(batcher.submit(fx.rows[i]).get(), fx.scalar_preds[i]);
  }
}

TEST(MicroBatcher, WindowOfOne) {
  const ServeFixture& fx = fixture();
  const Runtime runtime(fx.model, {.threads = 1});
  MicroBatcher batcher(runtime, {.max_batch = 1});
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(batcher.submit(fx.rows[i]).get(), fx.scalar_preds[i]);
  }
  const ServeStats stats = batcher.stats();
  EXPECT_EQ(stats.batches, 10u);
  EXPECT_EQ(stats.timeouts, 0u);  // windows of one fill instantly
}

TEST(MicroBatcher, FlushOnDestructionCompletesOutstandingTickets) {
  const ServeFixture& fx = fixture();
  const Runtime runtime(fx.model, {.threads = 1});
  std::vector<MicroBatcher::Ticket> tickets;
  {
    MicroBatcher batcher(runtime, {.max_batch = 64});
    for (std::size_t i = 0; i < 10; ++i) {
      tickets.push_back(batcher.submit(fx.rows[i]));
    }
    // Tickets for a dispatched batch may outlive the batcher; resolve them
    // before it dies (get() after destruction is a use-after-free by
    // contract, so pull the results while flushing).
    batcher.flush();
    for (std::size_t i = 0; i < tickets.size(); ++i) {
      EXPECT_EQ(tickets[i].get(), fx.scalar_preds[i]);
    }
  }
}

// The acceptance stress: >= 8 concurrent producers, each submitting one
// request and waiting on it, must each get back exactly what scalar
// predict would return for their example, regardless of how requests
// interleave into windows.
TEST(MicroBatcher, ConcurrentProducersAreBitIdentical) {
  const ServeFixture& fx = fixture();
  const Runtime runtime(fx.model, {.threads = 1});
  MicroBatcher batcher(runtime,
                       {.max_batch = 32,
                        .max_wait = std::chrono::microseconds(2000)});
  const std::size_t n_producers = 8;
  const std::size_t n = fx.rows.size();
  std::vector<int> served(n, -1);
  std::vector<std::thread> producers;
  producers.reserve(n_producers);
  for (std::size_t t = 0; t < n_producers; ++t) {
    producers.emplace_back([&, t] {
      // Strided slices so producers interleave within the same windows.
      for (std::size_t i = t; i < n; i += n_producers) {
        served[i] = batcher.submit(fx.rows[i]).get();
      }
    });
  }
  for (auto& producer : producers) producer.join();
  EXPECT_EQ(served, fx.scalar_preds);
  EXPECT_EQ(batcher.stats().requests, n);
}

// Same stress through the engine-threaded runtime and a second backend, in
// case dispatch overlaps engine parallelism in interesting ways.
TEST(MicroBatcher, ConcurrentProducersWithThreadedEngine) {
  const ServeFixture& fx = fixture();
  const Runtime runtime(fx.model, {.threads = 4});
  MicroBatcher batcher(runtime,
                       {.max_batch = 64,
                        .max_wait = std::chrono::microseconds(1000)});
  const std::size_t n_producers = 12;
  const std::size_t n = fx.rows.size();
  std::vector<int> served(n, -1);
  std::vector<std::thread> producers;
  producers.reserve(n_producers);
  for (std::size_t t = 0; t < n_producers; ++t) {
    producers.emplace_back([&, t] {
      for (std::size_t i = t; i < n; i += n_producers) {
        served[i] = batcher.submit(fx.rows[i]).get();
      }
    });
  }
  for (auto& producer : producers) producer.join();
  EXPECT_EQ(served, fx.scalar_preds);
}

// A random conv model: a 3-channel RINC-1 conv over 2x6x6 frames feeding a
// 4-class classifier with random 8-bit codes. Random tables reach every
// Shannon path; the structure is all that matters for bit-identity.
RincModule random_rinc1(std::size_t leaves, std::size_t arity,
                        std::size_t n_features, Rng& rng) {
  std::vector<RincModule> children;
  for (std::size_t l = 0; l < leaves; ++l) {
    std::vector<std::size_t> inputs(arity);
    for (auto& input : inputs) input = rng.next_index(n_features);
    BitVector table(std::size_t{1} << arity);
    for (std::size_t a = 0; a < table.size(); ++a) {
      table.set(a, rng.next_bool());
    }
    children.push_back(
        RincModule::make_leaf(Lut(std::move(inputs), std::move(table))));
  }
  std::vector<double> alphas(leaves);
  for (auto& alpha : alphas) alpha = rng.next_double() + 0.1;
  return RincModule::make_internal(std::move(children),
                                   MatModule(std::move(alphas)));
}

ConvModel random_conv_model(std::uint64_t seed) {
  Rng rng(seed);
  const BinShape3 in_shape{2, 6, 6};
  RincConvConfig config;
  config.out_channels = 3;
  config.kernel = 3;
  config.stride = 1;
  config.padding = 1;
  config.rinc = {.lut_inputs = 4, .levels = 1, .total_dts = 4};
  std::vector<RincModule> channels;
  for (std::size_t c = 0; c < config.out_channels; ++c) {
    channels.push_back(random_rinc1(4, 4, 2 * 3 * 3, rng));
  }
  ConvModel model;
  model.conv = RincConvLayer::from_parts(in_shape, config, std::move(channels));
  const std::size_t n_conv_bits = model.conv.output_shape().flat();
  PoetBinConfig classifier;
  classifier.rinc = {.lut_inputs = 4, .levels = 1, .total_dts = 4};
  classifier.n_classes = 4;
  std::vector<RincModule> modules;
  for (std::size_t m = 0; m < 4 * 4; ++m) {
    modules.push_back(random_rinc1(4, 4, n_conv_bits, rng));
  }
  const QuantizerParams quantizer;
  std::vector<SparseOutputNeuron> neurons(4);
  for (std::size_t c = 0; c < neurons.size(); ++c) {
    neurons[c].weights.assign(4, 0.0f);
    for (std::size_t j = 0; j < 4; ++j) {
      neurons[c].input_modules.push_back(c * 4 + j);
    }
    neurons[c].codes.resize(16);
    for (auto& code : neurons[c].codes) {
      code = static_cast<std::uint32_t>(rng.next_index(quantizer.levels()));
    }
  }
  model.classifier = PoetBin::from_parts(classifier, std::move(modules),
                                         std::move(neurons), quantizer);
  return model;
}

// Conv Runtime predicts run the fused conv pass (each chunk's conv output
// feeds the classifier argmax directly). On 1025 frames — 17 words, so
// chunks cross word and SIMD-block boundaries and end in a ragged word —
// they must match the scalar conv + classifier oracle on every backend,
// inline and on a pool. predict_one (the same pass on a one-row matrix)
// must match it on every frame too.
TEST(Runtime, ConvPredictMatchesScalarOracle) {
  const ConvModel model = random_conv_model(91);
  const BitMatrix frames = testing::random_bits(1025, model.n_features(), 92);
  const std::vector<int> want = reference::predict_dataset(model, frames);
  testing::BackendGuard guard;
  for (const WordBackend backend : available_word_backends()) {
    set_word_backend(backend);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
      const Runtime runtime(model, {.threads = threads});
      EXPECT_EQ(runtime.predict(frames), want)
          << word_backend_name(backend) << " x" << threads;
      EXPECT_EQ(runtime.predict_snapshot(runtime.snapshot(), frames), want)
          << word_backend_name(backend) << " x" << threads;
      for (std::size_t i = 0; i < frames.rows(); ++i) {
        ASSERT_EQ(runtime.predict_one(frames.row(i)), want[i])
            << word_backend_name(backend) << " x" << threads << " frame "
            << i;
      }
    }
  }
}

// Single-frame conv predicts run inline on their own pool-less engine, so
// they may overlap a dataset pass on the Runtime's pooled engine: four
// threads of predict_one beside a 4096-frame predict must all match the
// scalar oracle, and nothing may trip BatchEngine's re-entrancy check.
TEST(Runtime, ConvPredictOneRunsBesideDatasetPredict) {
  const ConvModel model = random_conv_model(93);
  const BitMatrix frames = testing::random_bits(4096, model.n_features(), 94);
  const std::vector<int> want = reference::predict_dataset(model, frames);
  const Runtime runtime(model, {.threads = 3});
  const std::size_t n_single = 4;
  const std::size_t frames_per_thread = 128;
  std::vector<BitVector> rows;
  rows.reserve(n_single * frames_per_thread);
  for (std::size_t i = 0; i < n_single * frames_per_thread; ++i) {
    rows.push_back(frames.row(i));
  }
  std::vector<int> single(rows.size(), -1);
  std::atomic<std::size_t> singles_running{n_single};
  std::size_t mismatched_passes = 0;
  std::vector<std::thread> threads;
  // Dataset passes repeat until every single-frame thread is done, so the
  // two kinds of request overlap however the threads are scheduled.
  threads.emplace_back([&] {
    do {
      if (runtime.predict(frames) != want) ++mismatched_passes;
    } while (singles_running.load() > 0);
  });
  for (std::size_t t = 0; t < n_single; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = t; i < rows.size(); i += n_single) {
        single[i] = runtime.predict_one(rows[i]);
      }
      singles_running.fetch_sub(1);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatched_passes, 0u);
  EXPECT_EQ(single, std::vector<int>(want.begin(), want.begin() + rows.size()));
}

// The caller-supplied-engine entry points match the scalar oracles (these
// are the only batched entry points now that the n_threads shims are gone).
TEST(PoetBinEngineOverloads, CallerSuppliedEngineMatchesScalar) {
  const ServeFixture& fx = fixture();
  const BatchEngine engine(3);
  EXPECT_EQ(fx.model.predict_dataset_batched(fx.data.features, engine),
            fx.scalar_preds);
  EXPECT_EQ(engine.rinc_outputs(fx.model, fx.data.features),
            reference::rinc_outputs(fx.model, fx.data.features));
  EXPECT_DOUBLE_EQ(
      prediction_accuracy(engine.predict_dataset(fx.model, fx.data.features),
                          fx.data.labels),
      fx.scalar_accuracy);
}

}  // namespace
}  // namespace poetbin
