// Lock-free sharded prediction cache in front of the fused predict path.
//
// PoET-BiN requests are packed bit vectors, so a request hashes in a few
// word ops — and under zipf-skewed serving traffic a small hot set repeats
// constantly. A PredictCache memoizes predict results so a hit skips the
// entire RINC evaluation: probe, compare two words, done. The design is the
// transposition-table shape from chess engines (bucketed, replace on
// collision, XOR-verified entries), adapted to model serving by pinning
// every entry to the RCU model version that computed it.
//
//   PredictCache cache({.capacity_bytes = 8u << 20});
//   cache.set_epoch(version);                       // on every publish
//   const PredictCache::Key key = PredictCache::make_key(bits);
//   int prediction;
//   if (!cache.probe(key, &prediction)) {
//     prediction = model.predict(bits);
//     cache.insert(key, prediction, version);
//   }
//
// Correctness contract — a hit is NEVER a wrong answer:
//
//  * Key verification. Two independent 64-bit hashes are taken over the
//    packed feature words. One selects the shard/bucket and contributes a
//    16-bit tag stored in the entry; the other is the verification word,
//    XOR-folded into the entry's check word (check = verify ^ data). A
//    probe matches only when check ^ data reproduces the probing key's
//    verify word AND the stored tag matches — ~80 bits of discrimination on
//    top of the bucket index, so a colliding input reads as a miss, not as
//    some other input's prediction.
//  * Epoch invalidation. Every entry carries the low 32 bits of the model
//    version that computed it. The serving Runtime calls set_epoch() on
//    every reload/retrain publication (BEFORE the version slot store), so
//    any entry from an older version compares stale and probes as a miss.
//    When the version's high 32 bits change (one publish every 2^32 — epoch
//    wraparound), the whole table is cleared so a 32-bit tag can never
//    alias across generations.
//  * Torn writes read as misses. An entry is two relaxed/release atomic
//    u64 stores; a reader that observes a half-written pair fails the XOR
//    check and misses. Readers never lock; writers never lock.
//
// Memory-ordering note: insert() release-stores the data word and probe()
// acquire-loads it. A hit therefore synchronizes with the inserter, which
// observed the version slot AFTER its publish — so a thread that saw a
// version-v answer (from the cache or from a snapshot) can never observe an
// older version on a later request. hot_reload_test's per-thread tag
// ordering checks pin this down.
//
// Capacity is fixed at construction (power-of-two entries, 16 bytes each)
// and split across power-of-two shards; each shard owns one contiguous
// slice of the table and its own cache-line-padded hit/miss/insert/evict/
// stale counters, so counter traffic never bounces a line between shards.
// Buckets are 4 entries = one cache line. A full bucket replaces a
// hash-chosen victim (replace on collision) — old entries are evicted by
// new traffic, never scanned.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "util/bitvector.h"

namespace poetbin {

struct PredictCacheOptions {
  // Table size in bytes; rounded down to a power-of-two entry count
  // (16 bytes per entry). Clamped so every shard holds at least one bucket.
  std::size_t capacity_bytes = 8u << 20;
  // Shard count, rounded up to a power of two. Each shard has independent
  // entries and counters; 16 is plenty for one serving process.
  std::size_t shards = 16;
};

// Monotonic counters summed over all shards. hits + misses = probes;
// `stale` counts probes that found the key but from an outdated model
// version (each also counts as a miss); `evictions` counts live same-epoch
// entries displaced by bucket collisions.
struct PredictCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
  std::uint64_t evictions = 0;
  std::uint64_t stale = 0;
};

class PredictCache {
 public:
  // The two-hash key of one packed input. Produced by make_key(); the
  // fields are public so tests can craft deliberate collisions.
  struct Key {
    std::uint64_t hash = 0;    // shard / bucket / tag selector
    std::uint64_t verify = 0;  // independent full-width verification word
  };

  explicit PredictCache(PredictCacheOptions options = {});
  ~PredictCache();

  PredictCache(const PredictCache&) = delete;
  PredictCache& operator=(const PredictCache&) = delete;

  // Hashes the packed feature words (tail word masked, so equal BitVectors
  // always produce equal keys) with two independent seeds.
  static Key make_key(const BitVector& bits);

  // Looks `key` up. True (with *prediction set) only for an entry whose
  // verification matches AND whose epoch is current. Lock-free; counts one
  // hit or one miss (plus stale when an outdated entry matched the key).
  bool probe(const Key& key, int* prediction);

  // Publishes `prediction` for `key`, tagged with the low 32 bits of
  // `version` — the version of the snapshot that actually computed it, so a
  // result computed on a pre-reload snapshot can never masquerade as
  // current. Lock-free; replaces the matching key, else a stale/empty
  // entry, else a hash-chosen victim.
  void insert(const Key& key, int prediction, std::uint64_t version);

  // Pins the cache generation to `version` (monotonic per Runtime). Must be
  // called BEFORE the new version becomes visible to readers: any thread
  // that can see the new model then already sees the new epoch, so it can
  // never hit an old version's entry. Clears the table when the version
  // crosses a 2^32 boundary (the 32-bit entry tag would otherwise alias).
  void set_epoch(std::uint64_t version);
  std::uint64_t epoch() const;

  // Zeroes every entry. Safe concurrently with probes/inserts: racing
  // readers see an empty or torn (= miss) entry, racing inserts may
  // survive and age out as stale.
  void clear();

  PredictCacheStats stats() const;

  std::size_t capacity_entries() const { return n_shards_ * shard_entries_; }
  std::size_t n_shards() const { return n_shards_; }

 private:
  // One cached prediction in two atomic words:
  //   data  = prediction(16) << 48 | epoch32 << 16 | tag16
  //   check = key.verify ^ data
  // tag16 is the top 16 bits of key.hash (disjoint from the bucket-index
  // bits); zeroed entries never match (a real key's verify is nonzero with
  // overwhelming probability, and probe demands an exact XOR match). The
  // words are plain and only ever accessed through std::atomic_ref, so the
  // whole table is one private anonymous mapping: the kernel hands out
  // zeroed pages as traffic first touches them, and construction costs the
  // same for any capacity. (calloc would not do: once glibc has freed any
  // chunk of 512 KiB or more, it raises its mmap threshold and serves the
  // next tables from the heap, memset and all — 8 MiB of writes per cache.)
  struct Entry {
    std::uint64_t check;
    std::uint64_t data;
  };
  static_assert(sizeof(Entry) == 16);

  static constexpr std::size_t kBucketEntries = 4;  // one cache line

  struct alignas(64) Counters {
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> inserts{0};
    std::atomic<std::uint64_t> evictions{0};
    std::atomic<std::uint64_t> stale{0};
  };

  struct Shard {
    Entry* entries = nullptr;  // view into table_ at s * shard_entries_
    Counters counters;
  };

  Entry* bucket_for(const Key& key, Shard** shard);

  std::size_t n_shards_ = 0;       // power of two
  std::size_t shard_bits_ = 0;     // log2(n_shards_)
  std::size_t shard_entries_ = 0;  // power of two, multiple of kBucketEntries
  std::size_t bucket_mask_ = 0;    // buckets per shard - 1
  Entry* table_ = nullptr;  // capacity_entries() entries, one mapping
  std::unique_ptr<Shard[]> shards_;
  std::atomic<std::uint64_t> epoch_{0};
};

}  // namespace poetbin
