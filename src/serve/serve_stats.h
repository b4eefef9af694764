// Uniform serving counters.
//
// Every serving front end in the tree — the in-process MicroBatcher and the
// TCP NetServer on top of it — exposes the same ServeStats snapshot instead
// of ad-hoc per-class counters, so benches, the load generator and the CI
// smoke all read one shape: how many requests were answered, how many
// micro-batch windows were dispatched (and how full they were), how many
// windows went out on a leader timeout rather than full, how many
// protocol/config errors and connections a network front end saw, and what
// the prediction cache (serve/predict_cache.h) did in front of it all.
//
// A ServeStats is a plain value: producers keep one under their own lock
// and hand out copies; shards merge() their workers' snapshots.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace poetbin {

struct ServeStats {
  // Window-fill histogram resolution: bucket i counts dispatched windows
  // whose fill fraction (examples / max_batch) landed in
  // (i/kFillBuckets, (i+1)/kFillBuckets]; a full window lands in the last
  // bucket, a single example in a 64-wide window in the first.
  static constexpr std::size_t kFillBuckets = 8;

  std::uint64_t requests = 0;     // predictions returned
  std::uint64_t batches = 0;      // micro-batch windows dispatched
  // Windows dispatched by leader timeout: a partial window that waited out
  // max_wait. A window its leader dispatched at once because traffic was
  // light (serve/micro_batcher.h) is not a timeout.
  std::uint64_t timeouts = 0;
  std::uint64_t errors = 0;       // protocol/config errors (network layer)
  std::uint64_t connections = 0;  // accepted connections (network layer)
  std::array<std::uint64_t, kFillBuckets> window_fill{};

  // Prediction-cache counters (PredictCacheStats, folded in by the front
  // end that owns the Runtime). All zero when the cache is disabled.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_inserts = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_stale = 0;

  // Bucket index for a window of `batch_size` examples under `max_batch`.
  static std::size_t fill_bucket(std::size_t batch_size,
                                 std::size_t max_batch);

  // Records one dispatched window: batches, the fill histogram, and
  // timeouts when the dispatch was a leader-timeout partial. (requests is
  // deliberately separate — a window's examples may be counted as they
  // complete, not when the window closes.)
  void record_window(std::size_t batch_size, std::size_t max_batch,
                     bool timed_out);

  // Element-wise sum, for aggregating worker shards.
  ServeStats& merge(const ServeStats& other);

  // Mean examples per dispatched window (0 when nothing dispatched).
  double mean_window_fill() const;

  // Fraction of cache probes that hit (0 when the cache never probed).
  double cache_hit_rate() const;

  bool operator==(const ServeStats& other) const = default;
};

}  // namespace poetbin
