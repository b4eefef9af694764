#include "serve/micro_batcher.h"

#include <utility>

#include "util/bit_matrix.h"
#include "util/check.h"

namespace poetbin {

MicroBatcher::MicroBatcher(const Runtime& runtime, MicroBatcherOptions options)
    : runtime_(&runtime),
      options_(options),
      gap_ewma_(2 * options.max_wait),  // idle until traffic shows up
      last_join_(std::chrono::steady_clock::now()) {
  POETBIN_CHECK_MSG(options_.max_batch > 0, "max_batch must be positive");
}

MicroBatcher::~MicroBatcher() { flush(); }

std::shared_ptr<MicroBatcher::Batch> MicroBatcher::join(
    const BitVector& example_bits, std::size_t* index,
    bool* dispatch_claimed) {
  std::lock_guard<std::mutex> lock(mu_);
  // Arrival-gap estimate: the time since the previous join, spread over
  // this join and the cache hits answered in between (hits are arrivals
  // too, or a mostly-cached stream would look idle to its misses).
  const auto now = std::chrono::steady_clock::now();
  // order: relaxed — a statistics counter; a hit the load misses lands in
  // the next join's share.
  const std::uint64_t hits =
      cache_hit_requests_.load(std::memory_order_relaxed);
  const std::chrono::nanoseconds idle = 2 * options_.max_wait;
  const std::chrono::nanoseconds gap =
      (now - last_join_) / static_cast<std::int64_t>(1 + hits -
                                                     hits_at_last_join_);
  last_join_ = now;
  hits_at_last_join_ = hits;
  gap_ewma_ = gap >= idle ? idle : gap_ewma_ + (gap - gap_ewma_) / 8;
  if (open_ == nullptr) open_ = std::make_shared<Batch>();
  std::shared_ptr<Batch> batch = open_;
  *index = batch->examples.size();
  batch->examples.push_back(&example_bits);
  *dispatch_claimed =
      batch->examples.size() >= options_.max_batch && try_close(batch);
  return batch;
}

bool MicroBatcher::try_close(const std::shared_ptr<Batch>& batch) {
  if (batch->closed) return false;
  batch->closed = true;
  if (open_ == batch) open_.reset();
  return true;
}

void MicroBatcher::dispatch(const std::shared_ptr<Batch>& batch,
                            bool timed_out) {
  // The batch is exclusively owned by its dispatcher once try_close
  // succeeded, so it is evaluated without holding mu_. Pin the version
  // here so cache inserts below tag results with the version that
  // actually computed them, not whatever is current by insert time.
  const std::size_t k = batch->examples.size();
  const Runtime::Snapshot snap = runtime_->snapshot();
  std::vector<int> predictions(k);
  if (!snap->is_conv()) {
    // Dense: each row runs the model's compiled gather program on its own
    // bits — no packing, no engine, so windows need not serialize.
    for (std::size_t i = 0; i < k; ++i) {
      predictions[i] = snap->model.predict(*batch->examples[i]);
    }
  } else {
    predictions = predict_conv_window(snap, batch->examples);
  }
  if (PredictCache* cache = runtime_->cache()) {
    for (std::size_t i = 0; i < k; ++i) {
      cache->insert(PredictCache::make_key(*batch->examples[i]),
                    predictions[i], snap->version);
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    batch->results = std::move(predictions);
    batch->done = true;
    stats_.record_window(batch->examples.size(), options_.max_batch, timed_out);
    stats_.requests += batch->examples.size();
  }
  batch->cv.notify_all();
}

std::vector<int> MicroBatcher::predict_conv_window(
    const Runtime::Snapshot& snap,
    const std::vector<const BitVector*>& examples) {
  // Conv frames carry out_h x out_w positions each, so the window keeps
  // the packed conv pass over the frames scattered into columns.
  // predict_snapshot serializes on the Runtime's engine lock, so a second
  // window closing while the first is in flight just waits there.
  return runtime_->predict_snapshot(snap, BitMatrix::from_rows(examples));
}

int MicroBatcher::await(const std::shared_ptr<Batch>& batch,
                        std::size_t index) {
  std::unique_lock<std::mutex> lock(mu_);
  if (!batch->done && !batch->closed) {
    // Light traffic: nobody is expected to join within max_wait, so the
    // window goes out now. Otherwise it waits up to max_wait for company.
    const bool light = gap_ewma_ > options_.max_wait;
    const auto deadline = std::chrono::steady_clock::now() + options_.max_wait;
    while (!light && !batch->done && !batch->closed) {
      if (batch->cv.wait_until(lock, deadline) == std::cv_status::timeout) {
        break;
      }
    }
    if (!batch->done && !batch->closed && try_close(batch)) {
      lock.unlock();
      dispatch(batch, /*timed_out=*/!light);
      lock.lock();
    }
  }
  batch->cv.wait(lock, [&] { return batch->done; });
  return batch->results[index];
}

bool MicroBatcher::probe_cache(const BitVector& example_bits,
                               int* prediction) {
  PredictCache* cache = runtime_->cache();
  if (cache == nullptr ||
      !cache->probe(PredictCache::make_key(example_bits), prediction)) {
    return false;
  }
  // order: relaxed — monotonic statistics counter; stats() folds it in.
  cache_hit_requests_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

MicroBatcher::Ticket MicroBatcher::submit(const BitVector& example_bits) {
  int prediction = 0;
  if (probe_cache(example_bits, &prediction)) return Ticket(prediction);
  std::size_t index = 0;
  bool dispatch_claimed = false;
  std::shared_ptr<Batch> batch = join(example_bits, &index, &dispatch_claimed);
  if (dispatch_claimed) dispatch(batch);
  return Ticket(this, std::move(batch), index);
}

int MicroBatcher::Ticket::get() {
  // A cache hit resolved at submit() time and carries no batch.
  if (batch_ == nullptr) return resolved_;
  // The window may still be open: lead it, dispatching it now or after
  // max_wait (see the batching policy).
  return parent_->await(batch_, index_);
}

void MicroBatcher::flush() {
  std::shared_ptr<Batch> batch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    batch = open_;
    if (batch == nullptr || !try_close(batch)) return;
  }
  dispatch(batch);
}

ServeStats MicroBatcher::stats() const {
  ServeStats snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot = stats_;
  }
  // Cache hits never touch a window, so they live in their own atomic;
  // fold them in so `requests` counts every prediction served, and pull
  // the cache's own counters so one snapshot tells the whole story.
  // order: relaxed — counter snapshot; may lag racing hits, never torn.
  snapshot.requests += cache_hit_requests_.load(std::memory_order_relaxed);
  if (const PredictCache* cache = runtime_->cache()) {
    const PredictCacheStats c = cache->stats();
    snapshot.cache_hits = c.hits;
    snapshot.cache_misses = c.misses;
    snapshot.cache_inserts = c.inserts;
    snapshot.cache_evictions = c.evictions;
    snapshot.cache_stale = c.stale;
  }
  return snapshot;
}

}  // namespace poetbin
