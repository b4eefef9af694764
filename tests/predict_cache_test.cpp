// PredictCache contract: a hit is never a wrong answer. Covers the XOR
// key-verification (deliberate hash collisions must read as misses, never
// as another key's prediction), epoch invalidation and the 2^32 wraparound
// clear, the bucketed replace-on-collision victim policy, and value
// integrity under concurrent probe/insert/clear traffic, and that a new
// cache starts empty even where a filled one was just destroyed.
// Runtime-level tests pin the library default (cache off), the predict_one
// probe-insert path and a reloaded Runtime's empty cache.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "serve/predict_cache.h"
#include "serve/runtime.h"
#include "test_util.h"
#include "util/bitvector.h"

namespace poetbin {
namespace {

BitVector bits_from_seed(std::uint64_t seed, std::size_t n_bits = 192) {
  BitVector bits(n_bits);
  Rng rng(seed);
  for (std::size_t w = 0; w < bits.word_count(); ++w) {
    bits.words()[w] = rng.next_u64();
  }
  bits.mask_tail_word();
  return bits;
}

// Inserts 4 x capacity random keys, as perfbench's cache fill does, so
// every bucket of the table ends up holding live entries. Returns the keys.
std::vector<PredictCache::Key> fill_every_bucket(PredictCache* cache,
                                                 std::uint64_t version) {
  Rng rng(0xf111cac4eULL);
  std::vector<PredictCache::Key> keys(4 * cache->capacity_entries());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    keys[i] = {rng.next_u64(), rng.next_u64()};
    cache->insert(keys[i], static_cast<int>(i % 10), version);
  }
  return keys;
}

// A fresh cache of the same capacity must miss on every key of the
// destroyed one and count nothing else: no hit, stale match, insert or
// eviction. Recycled memory that kept old entries would hit here.
void expect_starts_empty(PredictCache* cache,
                         const std::vector<PredictCache::Key>& keys) {
  const PredictCacheStats before = cache->stats();
  EXPECT_EQ(before.hits + before.misses + before.inserts + before.evictions +
                before.stale,
            0u);
  std::size_t hits = 0;
  for (const PredictCache::Key& key : keys) {
    int prediction = -1;
    if (cache->probe(key, &prediction)) ++hits;
  }
  EXPECT_EQ(hits, 0u);
  const PredictCacheStats after = cache->stats();
  EXPECT_EQ(after.hits, 0u);
  EXPECT_EQ(after.misses, keys.size());
  EXPECT_EQ(after.inserts, 0u);
  EXPECT_EQ(after.evictions, 0u);
  EXPECT_EQ(after.stale, 0u);
}

// A single-shard, single-bucket (4-entry) cache: every key lands in the
// same bucket, which is what the collision and eviction tests need.
PredictCacheOptions tiny() {
  return PredictCacheOptions{.capacity_bytes = 64, .shards = 1};
}

TEST(PredictCache, InsertProbeRoundTripAndCounters) {
  PredictCache cache({.capacity_bytes = 1u << 16, .shards = 4});
  const PredictCache::Key key = PredictCache::make_key(bits_from_seed(1));
  int prediction = -1;
  EXPECT_FALSE(cache.probe(key, &prediction));
  cache.insert(key, 7, /*version=*/0);
  EXPECT_TRUE(cache.probe(key, &prediction));
  EXPECT_EQ(prediction, 7);
  const PredictCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.stale, 0u);
}

TEST(PredictCache, MakeKeyIsDeterministicAndBitSensitive) {
  const BitVector a = bits_from_seed(2);
  BitVector b = bits_from_seed(2);
  const PredictCache::Key ka = PredictCache::make_key(a);
  const PredictCache::Key kb = PredictCache::make_key(b);
  EXPECT_EQ(ka.hash, kb.hash);
  EXPECT_EQ(ka.verify, kb.verify);
  b.set(17, !b.get(17));
  const PredictCache::Key kc = PredictCache::make_key(b);
  EXPECT_TRUE(kc.hash != ka.hash || kc.verify != ka.verify);
}

TEST(PredictCache, EpochBumpInvalidatesAndReinsertRecovers) {
  PredictCache cache(tiny());
  cache.set_epoch(1);
  const PredictCache::Key key = PredictCache::make_key(bits_from_seed(3));
  cache.insert(key, 4, /*version=*/1);
  int prediction = -1;
  ASSERT_TRUE(cache.probe(key, &prediction));

  cache.set_epoch(2);  // a reload/retrain published
  EXPECT_FALSE(cache.probe(key, &prediction));
  EXPECT_EQ(cache.stats().stale, 1u);

  cache.insert(key, 9, /*version=*/2);
  ASSERT_TRUE(cache.probe(key, &prediction));
  EXPECT_EQ(prediction, 9);
}

TEST(PredictCache, InsertTaggedWithOldVersionNeverHits) {
  // A result computed on a pre-publish snapshot may be inserted after the
  // publish; its old version tag must keep it un-servable.
  PredictCache cache(tiny());
  cache.set_epoch(5);
  const PredictCache::Key key = PredictCache::make_key(bits_from_seed(4));
  cache.insert(key, 2, /*version=*/3);
  int prediction = -1;
  EXPECT_FALSE(cache.probe(key, &prediction));
  EXPECT_EQ(cache.stats().stale, 1u);
}

TEST(PredictCache, HashCollisionReadsAsMissNeverWrongAnswer) {
  PredictCache cache(tiny());
  cache.set_epoch(1);
  // Same full 64-bit hash (same bucket, same stored tag), different verify
  // words: the adversarial collision the XOR check exists for.
  const PredictCache::Key k1{0x1234567890ABCDEFULL, 0x1111111111111111ULL};
  const PredictCache::Key k2{0x1234567890ABCDEFULL, 0x2222222222222222ULL};
  cache.insert(k1, 5, /*version=*/1);
  int prediction = -1;
  EXPECT_FALSE(cache.probe(k2, &prediction));  // never k1's 5
  cache.insert(k2, 9, /*version=*/1);
  ASSERT_TRUE(cache.probe(k2, &prediction));
  EXPECT_EQ(prediction, 9);
  ASSERT_TRUE(cache.probe(k1, &prediction));
  EXPECT_EQ(prediction, 5);
}

TEST(PredictCache, FullBucketReplacesHashChosenVictim) {
  PredictCache cache(tiny());
  ASSERT_EQ(cache.capacity_entries(), 4u);
  cache.set_epoch(1);
  // Six distinct-tag keys in the one bucket. Keys 1..4 fill the empty
  // slots; keys 5 and 6 both choose victim slot (hash >> 46) & 3 == 0.
  auto key_n = [](std::uint64_t n) {
    return PredictCache::Key{n << 48, 0x9999000000000000ULL + n};
  };
  for (std::uint64_t n = 1; n <= 6; ++n) {
    cache.insert(key_n(n), static_cast<int>(n), /*version=*/1);
  }
  const PredictCacheStats stats = cache.stats();
  EXPECT_EQ(stats.inserts, 6u);
  EXPECT_EQ(stats.evictions, 2u);
  int prediction = -1;
  EXPECT_FALSE(cache.probe(key_n(1), &prediction));  // evicted by 5 then 6
  EXPECT_FALSE(cache.probe(key_n(5), &prediction));
  ASSERT_TRUE(cache.probe(key_n(6), &prediction));
  EXPECT_EQ(prediction, 6);
  for (std::uint64_t n = 2; n <= 4; ++n) {
    ASSERT_TRUE(cache.probe(key_n(n), &prediction));
    EXPECT_EQ(prediction, static_cast<int>(n));
  }
}

TEST(PredictCache, EpochWraparoundClearsInsteadOfAliasing) {
  PredictCache cache(tiny());
  cache.set_epoch(3);
  const PredictCache::Key key = PredictCache::make_key(bits_from_seed(5));
  cache.insert(key, 8, /*version=*/3);
  int prediction = -1;
  ASSERT_TRUE(cache.probe(key, &prediction));

  // (1 << 32) + 3 truncates to the same 32-bit entry tag as version 3 — a
  // lazy stale check would serve version-3 answers as current. The cache
  // must clear the table on the high-half change instead.
  cache.set_epoch((std::uint64_t{1} << 32) + 3);
  EXPECT_FALSE(cache.probe(key, &prediction));
  // The entry was wiped, not matched-and-rejected: no stale count.
  EXPECT_EQ(cache.stats().stale, 0u);
}

TEST(PredictCache, ClearDropsEverything) {
  PredictCache cache({.capacity_bytes = 1u << 12, .shards = 2});
  cache.set_epoch(1);
  for (std::uint64_t s = 0; s < 32; ++s) {
    cache.insert(PredictCache::make_key(bits_from_seed(100 + s)),
                 static_cast<int>(s % 10), /*version=*/1);
  }
  cache.clear();
  int prediction = -1;
  for (std::uint64_t s = 0; s < 32; ++s) {
    EXPECT_FALSE(
        cache.probe(PredictCache::make_key(bits_from_seed(100 + s)),
                    &prediction));
  }
}

TEST(PredictCache, CapacityAndShardsRoundToPowersOfTwo) {
  const PredictCache cache({.capacity_bytes = 1000, .shards = 3});
  EXPECT_EQ(cache.capacity_entries(), 32u);  // floor_pow2(1000 / 16)
  EXPECT_EQ(cache.n_shards(), 4u);           // 3 rounds UP
  // Tiny table: shards collapse until every shard holds a full bucket.
  const PredictCache one({.capacity_bytes = 64, .shards = 16});
  EXPECT_EQ(one.capacity_entries(), 4u);
  EXPECT_EQ(one.n_shards(), 1u);
}

TEST(PredictCache, NewCacheStartsEmptyAfterAFilledOneIsDestroyed) {
  // 1 MiB: large enough for glibc to recycle a freed table from its heap,
  // unzeroed, once its dynamic mmap threshold has risen.
  const PredictCacheOptions options{.capacity_bytes = 1u << 20};
  std::vector<PredictCache::Key> keys;
  {
    PredictCache filled(options);
    keys = fill_every_bucket(&filled, /*version=*/0);
    const PredictCacheStats stats = filled.stats();
    EXPECT_EQ(stats.inserts, keys.size());
    EXPECT_GT(stats.evictions, 0u);  // every bucket overflowed
  }
  PredictCache fresh(options);
  EXPECT_EQ(fresh.capacity_entries(), keys.size() / 4);
  expect_starts_empty(&fresh, keys);
}

TEST(PredictCache, ConcurrentProbeInsertClearNeverServesWrongValue) {
  // 4 writers + 4 readers over 512 keys with a fixed key -> value mapping,
  // while a chaos thread clears and re-pins the epoch. Any hit must return
  // the mapped value — torn entries and clears may only cause misses.
  PredictCache cache({.capacity_bytes = 1u << 14, .shards = 4});
  cache.set_epoch(1);
  constexpr std::size_t kKeys = 512;
  std::vector<BitVector> inputs;
  std::vector<PredictCache::Key> keys;
  inputs.reserve(kKeys);
  keys.reserve(kKeys);
  for (std::size_t k = 0; k < kKeys; ++k) {
    inputs.push_back(bits_from_seed(1000 + k));
    keys.push_back(PredictCache::make_key(inputs.back()));
  }
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> wrong{0};
  std::atomic<std::size_t> hits{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(77 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::size_t k = rng.next_index(kKeys);
        cache.insert(keys[k], static_cast<int>(k % 7), /*version=*/1);
      }
    });
    threads.emplace_back([&, t] {
      Rng rng(177 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        const std::size_t k = rng.next_index(kKeys);
        int prediction = -1;
        if (cache.probe(keys[k], &prediction)) {
          hits.fetch_add(1, std::memory_order_relaxed);
          if (prediction != static_cast<int>(k % 7)) {
            wrong.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < 50; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      cache.clear();
    }
    stop.store(true);
  });
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_GT(hits.load(), 0u);
}

struct TrainedModel {
  BinaryDataset data;
  PoetBin model;
};

TrainedModel small_trained_model() {
  BinaryDataset data = testing::prototype_dataset(200, 48, 11);
  const std::size_t p = 4;
  BitMatrix intermediate(data.size(), data.n_classes * p);
  Rng rng(13);
  for (std::size_t i = 0; i < data.size(); ++i) {
    for (std::size_t j = 0; j < intermediate.cols(); ++j) {
      const bool is_class = data.labels[i] == static_cast<int>(j / p);
      intermediate.set(i, j, is_class != rng.next_bool(0.05));
    }
  }
  PoetBinConfig config;
  config.rinc = {.lut_inputs = p, .levels = 1, .total_dts = 4};
  config.n_classes = data.n_classes;
  config.output.epochs = 10;
  config.threads = 1;
  PoetBin model =
      PoetBin::train(data.features, intermediate, data.labels, config);
  return {std::move(data), std::move(model)};
}

TEST(RuntimeCache, DisabledByDefaultAndPredictOneUsesIt) {
  const TrainedModel trained = small_trained_model();
  const BinaryDataset& data = trained.data;
  const PoetBin& model = trained.model;

  const Runtime plain(model, {.threads = 1});
  EXPECT_EQ(plain.cache(), nullptr);

  const Runtime cached(model, {.threads = 1, .cache_bytes = 1u << 16});
  ASSERT_NE(cached.cache(), nullptr);
  const BitVector row = data.features.row(0);
  const int expected = model.predict(row);
  EXPECT_EQ(cached.predict_one(row), expected);  // miss + insert
  EXPECT_EQ(cached.predict_one(row), expected);  // hit
  const PredictCacheStats stats = cached.cache()->stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserts, 1u);

  // Retrain publishes a new version; the stale entry must not serve, and
  // the refreshed answer must match the new model's scalar predict.
  Runtime mutated(model, {.threads = 1, .cache_bytes = 1u << 16});
  (void)mutated.predict_one(row);
  mutated.retrain_output_layer(data.features, data.labels);
  EXPECT_EQ(mutated.predict_one(row), mutated.model().predict(row));
}

TEST(RuntimeCache, LoadedAgainAfterAFilledRuntimeStartsEmpty) {
  const TrainedModel trained = small_trained_model();
  const std::string path = ::testing::TempDir() + "/runtime_cache_model.txt";
  ASSERT_TRUE(Runtime(trained.model, {.threads = 1}).save(path).ok());
  const RuntimeOptions options{.threads = 1, .cache_bytes = 1u << 20};
  const BitVector row = trained.data.features.row(0);
  const int expected = trained.model.predict(row);

  std::vector<PredictCache::Key> keys;
  {
    Runtime::LoadResult first = Runtime::load(path, options);
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(first->predict_one(row), expected);  // miss + insert
    EXPECT_EQ(first->predict_one(row), expected);  // hit
    keys = fill_every_bucket(first->cache(), first->model_version());
  }
  Runtime::LoadResult second = Runtime::load(path, options);
  ASSERT_TRUE(second.ok());
  ASSERT_NE(second->cache(), nullptr);
  expect_starts_empty(second->cache(), keys);
  // The served row misses too, and is recomputed to the same answer.
  EXPECT_EQ(second->predict_one(row), expected);
  EXPECT_EQ(second->cache()->stats().hits, 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace poetbin
