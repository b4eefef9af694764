#include "serve/predict_cache.h"

#include <sys/mman.h>

#include "util/check.h"

namespace poetbin {

namespace {

// splitmix64 finalizer: a cheap full-avalanche bijection over u64.
std::uint64_t mix64(std::uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

// Chained xor-mix over the packed words plus the bit width. The tail word
// is masked so the hash depends only on bits [0, size) — two equal
// BitVectors always key identically regardless of stale tail bits.
std::uint64_t hash_bits(const BitVector& bits, std::uint64_t seed) {
  std::uint64_t h = mix64(seed ^ bits.size());
  const std::uint64_t* words = bits.words();
  const std::size_t n_words = bits.word_count();
  for (std::size_t w = 0; w < n_words; ++w) {
    std::uint64_t word = words[w];
    if (w + 1 == n_words) word &= BitVector::tail_word_mask(bits.size());
    h = mix64(h ^ word);
  }
  return h;
}

std::size_t floor_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p * 2 <= v) p *= 2;
  return p;
}

std::size_t log2_pow2(std::size_t v) {
  std::size_t bits = 0;
  while ((std::size_t{1} << bits) < v) ++bits;
  return bits;
}

constexpr std::uint64_t kTagMask = 0xFFFFULL;

std::uint64_t pack_entry(int prediction, std::uint64_t version,
                         std::uint64_t hash) {
  return (static_cast<std::uint64_t>(prediction) << 48) |
         ((version & 0xFFFFFFFFULL) << 16) | (hash >> 48);
}

std::uint32_t entry_epoch(std::uint64_t data) {
  return static_cast<std::uint32_t>(data >> 16);
}

int entry_prediction(std::uint64_t data) {
  return static_cast<int>(data >> 48);
}

std::atomic_ref<std::uint64_t> atomic_word(std::uint64_t& word) {
  return std::atomic_ref<std::uint64_t>(word);
}

}  // namespace

PredictCache::PredictCache(PredictCacheOptions options) {
  const std::size_t total_entries =
      floor_pow2(options.capacity_bytes / sizeof(Entry) < kBucketEntries
                     ? kBucketEntries
                     : options.capacity_bytes / sizeof(Entry));
  std::size_t shards = floor_pow2(options.shards < 1 ? 1 : options.shards);
  if (shards < options.shards) shards *= 2;  // round UP to a power of two
  // Every shard needs at least one bucket.
  while (shards > 1 && total_entries / shards < kBucketEntries) shards /= 2;
  n_shards_ = shards;
  shard_bits_ = log2_pow2(shards);
  shard_entries_ = total_entries / shards;
  bucket_mask_ = shard_entries_ / kBucketEntries - 1;
  // The one mapping in src/: an anonymous, zero-filled cache table, not a
  // model-file view (see Entry in the header for why it is not calloc).
  void* table = ::mmap(  // invariants: allow-no-splat-representation
      nullptr, capacity_entries() * sizeof(Entry), PROT_READ | PROT_WRITE,
      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  POETBIN_CHECK_MSG(table != MAP_FAILED, "prediction cache allocation failed");
  table_ = static_cast<Entry*>(table);
  shards_ = std::make_unique<Shard[]>(n_shards_);
  for (std::size_t s = 0; s < n_shards_; ++s) {
    shards_[s].entries = table_ + s * shard_entries_;
  }
}

PredictCache::~PredictCache() {
  ::munmap(table_, capacity_entries() * sizeof(Entry));
}

PredictCache::Key PredictCache::make_key(const BitVector& bits) {
  return Key{hash_bits(bits, 0x9E3779B97F4A7C15ULL),
             hash_bits(bits, 0xC2B2AE3D27D4EB4FULL)};
}

PredictCache::Entry* PredictCache::bucket_for(const Key& key, Shard** shard) {
  *shard = &shards_[key.hash & (n_shards_ - 1)];
  const std::size_t bucket = (key.hash >> shard_bits_) & bucket_mask_;
  return &(*shard)->entries[bucket * kBucketEntries];
}

bool PredictCache::probe(const Key& key, int* prediction) {
  Shard* shard = nullptr;
  Entry* bucket = bucket_for(key, &shard);
  // order: acquire pairs with set_epoch()'s release — a probe that reads a
  // post-wraparound epoch value also observes the clear() sequenced before
  // it, so a pre-wrap entry whose 32-bit epoch aliases the new generation
  // can never produce a false hit.
  const std::uint32_t current =
      static_cast<std::uint32_t>(epoch_.load(std::memory_order_acquire));
  const std::uint64_t tag = key.hash >> 48;
  for (std::size_t e = 0; e < kBucketEntries; ++e) {
    // order: acquire pairs with insert()'s release store of data — (a) the
    // matching check store is visible whenever the new data is (any other
    // interleaving XOR-mismatches into a miss), and (b) a hit synchronizes
    // with the inserter, so the hitter's later snapshot loads can never see
    // a model version older than the one that computed this entry.
    const std::uint64_t data =
        atomic_word(bucket[e].data).load(std::memory_order_acquire);
    // order: relaxed — sequenced after the acquire load of data, and the
    // XOR verification tolerates ANY stale or torn check value (it reads as
    // a miss); the acquire above is what makes the matching pair visible.
    const std::uint64_t check =
        atomic_word(bucket[e].check).load(std::memory_order_relaxed);
    if ((check ^ data) != key.verify || (data & kTagMask) != tag) continue;
    if (entry_epoch(data) != current) {
      // The key matched but the entry predates the serving version: a
      // reload/retrain published since it was inserted. Miss, never serve.
      // order: relaxed — monotonic statistics counter, no ordering needed.
      shard->counters.stale.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    *prediction = entry_prediction(data);
    // order: relaxed — monotonic statistics counter, no ordering needed.
    shard->counters.hits.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  // order: relaxed — monotonic statistics counter, no ordering needed.
  shard->counters.misses.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void PredictCache::insert(const Key& key, int prediction,
                          std::uint64_t version) {
  POETBIN_CHECK_MSG(prediction >= 0 && prediction < (1 << 16),
                    "prediction does not fit the cache's 16-bit class field");
  Shard* shard = nullptr;
  Entry* bucket = bucket_for(key, &shard);
  const std::uint64_t data = pack_entry(prediction, version, key.hash);
  const std::uint64_t tag = key.hash >> 48;
  // order: relaxed — the epoch here only steers victim selection (prefer
  // reclaiming stale entries); a lagging value at worst evicts a live
  // entry early. Correctness never depends on this read.
  const std::uint32_t current =
      static_cast<std::uint32_t>(epoch_.load(std::memory_order_relaxed));
  // Victim policy: refresh the same key in place; otherwise reclaim a
  // stale-or-empty entry; otherwise replace-on-collision at a hash-chosen
  // index (bits below the tag, disjoint from the bucket selector).
  std::size_t victim = kBucketEntries;
  bool evicting = false;
  for (std::size_t e = 0; e < kBucketEntries; ++e) {
    // order: relaxed (both) — the victim scan is a heuristic: a torn or
    // stale (old, check) view only changes WHICH slot gets replaced, and
    // probe()'s XOR verification protects readers of whatever we overwrite.
    const std::uint64_t old =
        atomic_word(bucket[e].data).load(std::memory_order_relaxed);
    const std::uint64_t check =
        atomic_word(bucket[e].check).load(std::memory_order_relaxed);
    if ((check ^ old) == key.verify && (old & kTagMask) == tag) {
      victim = e;
      evicting = false;
      break;
    }
    // old == 0: a never-written (or cleared) slot. It must be tested
    // explicitly — at epoch 0 its zero epoch field would read as current.
    if (victim == kBucketEntries &&
        (old == 0 || entry_epoch(old) != current)) {
      victim = e;
    }
  }
  if (victim == kBucketEntries) {
    victim = static_cast<std::size_t>((key.hash >> 46) & (kBucketEntries - 1));
    evicting = true;
  }
  Entry& slot = bucket[victim];
  // order: check first relaxed, then data release — the release makes the
  // check store visible to any reader that acquires the new data word, so
  // a verified pair is always matched; a reader that catches the pair
  // half-visible XOR-mismatches into a miss. The data release additionally
  // carries the inserter's happens-before (see probe()).
  atomic_word(slot.check).store(key.verify ^ data, std::memory_order_relaxed);
  atomic_word(slot.data).store(data, std::memory_order_release);
  // order: relaxed — monotonic statistics counters, no ordering needed.
  shard->counters.inserts.fetch_add(1, std::memory_order_relaxed);
  if (evicting) {
    shard->counters.evictions.fetch_add(1, std::memory_order_relaxed);
  }
}

void PredictCache::set_epoch(std::uint64_t version) {
  // order: relaxed — epoch_ writers are serialized by the Runtime's
  // mutate_mu (publish() is the only caller), so this read never races a
  // concurrent store; it only detects the 2^32 wraparound.
  const std::uint64_t previous = epoch_.load(std::memory_order_relaxed);
  if ((version >> 32) != (previous >> 32)) {
    // Epoch wraparound: the 32-bit entry tags are about to repeat, so an
    // entry from 2^32 publishes ago could read as current. Drop everything.
    clear();
  }
  // order: release pairs with probe()'s acquire of epoch_ — a probe that
  // reads this value also observes the wraparound clear() above, so
  // epoch-aliased pre-wrap entries can never false-hit.
  epoch_.store(version, std::memory_order_release);
}

std::uint64_t PredictCache::epoch() const {
  // order: acquire mirrors probe()'s pairing with set_epoch()'s release so
  // external observers (tests, stats dumps) get the same guarantee.
  return epoch_.load(std::memory_order_acquire);
}

void PredictCache::clear() {
  const std::size_t n_entries = capacity_entries();
  for (std::size_t e = 0; e < n_entries; ++e) {
    // order: relaxed (both) — concurrent probes may observe the pair
    // half-cleared, which XOR-mismatches into a miss; an all-zero entry
    // never verifies (a real key's verify word is nonzero w.h.p.).
    Entry& entry = table_[e];
    atomic_word(entry.check).store(0, std::memory_order_relaxed);
    atomic_word(entry.data).store(0, std::memory_order_relaxed);
  }
}

PredictCacheStats PredictCache::stats() const {
  PredictCacheStats total;
  for (std::size_t s = 0; s < n_shards_; ++s) {
    const Counters& c = shards_[s].counters;
    // order: relaxed (all) — monotonic counters; a snapshot may lag in-
    // flight increments but each word is read atomically, never torn.
    total.hits += c.hits.load(std::memory_order_relaxed);
    total.misses += c.misses.load(std::memory_order_relaxed);
    total.inserts += c.inserts.load(std::memory_order_relaxed);
    total.evictions += c.evictions.load(std::memory_order_relaxed);
    total.stale += c.stale.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace poetbin
