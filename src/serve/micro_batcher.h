// Micro-batching front end for concurrent single-example serving.
//
// A MicroBatcher collects in-flight predict_one requests into windows and
// answers each window in one dispatch. For a dense model the dispatch runs
// every row through the model's compiled gather program
// (PoetBin::predict, core/gather_program.h), about a microsecond a row.
// For a conv model it packs the window into one bitsliced BitMatrix and
// runs it through the wrapped Runtime as a single predict_snapshot pass.
// Either way the answers are bit-identical to the per-bit scalar walk.
//
// Dense models keep the window for what it batches around the evaluation:
// a NetServer connection submits a whole read's frames, waits once and
// answers them in one write, so under open-loop traffic a window turns
// many requests into one wake-up and one syscall pair.
//
// Two entry points share one open batch window:
//
//   int cls = batcher.predict_one(bits);        // blocking, many threads
//   Ticket t = batcher.submit(bits);            // async; t.get() blocks
//
// Batching policy: a window closes (and dispatches) when it reaches
// max_batch examples, or when its oldest blocking request has waited
// max_wait. The first blocking request in a window is its *leader* — it
// arms the timeout; later requests just wait; whichever request observes
// the window full dispatches it inline. There is no dispatcher thread:
// submit()-only traffic dispatches when the window fills, on flush(), or
// at the latest when a Ticket::get() times out its window, so no request
// can strand.
//
// Lifetime: the caller's example bits must stay alive until the request's
// result is returned (predict_one) or Ticket::get() completes — the
// batcher stores pointers, not copies. Conv dispatches are serialized on
// an internal mutex (the Runtime's engine is not re-entrant); dense ones
// need no engine. The batcher may be shared freely across producer
// threads.
//
// Prediction cache: when the Runtime has one (RuntimeOptions::cache_bytes),
// both entry points probe it BEFORE joining a window — a hit skips the
// window entirely (predict_one returns immediately; submit hands back an
// already-resolved Ticket) — and a dispatched window inserts its results
// tagged with the model version that computed them. Hits are bit-identical
// to a dispatch by the cache's epoch-invalidation contract
// (serve/predict_cache.h). stats() folds the cache's counters into its
// snapshot, so one read tells the whole serving story.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "serve/runtime.h"
#include "serve/serve_stats.h"
#include "util/bitvector.h"

namespace poetbin {

struct MicroBatcherOptions {
  // Window size in examples. 64 fills exactly one word of a conv
  // window's bitsliced pass; larger windows trade latency for fewer
  // dispatches.
  std::size_t max_batch = 64;
  // How long a blocking request may wait for the window to fill before the
  // partial batch is dispatched anyway. 0 = dispatch immediately (blocking
  // requests never batch; submit() traffic still packs full windows).
  std::chrono::microseconds max_wait{200};
};

class MicroBatcher {
 public:
  // The Runtime must outlive the batcher (and every outstanding Ticket).
  explicit MicroBatcher(const Runtime& runtime,
                        MicroBatcherOptions options = {});
  ~MicroBatcher();

  MicroBatcher(const MicroBatcher&) = delete;
  MicroBatcher& operator=(const MicroBatcher&) = delete;

  // Blocking: joins the open window and returns this example's class once
  // the window dispatches (full, or max_wait elapsed).
  int predict_one(const BitVector& example_bits);

  class Ticket;
  // Async: joins the open window and returns immediately. The window
  // dispatches inline (on the submitting thread) when it fills; otherwise
  // the result materializes on flush(), on a blocking request's timeout, or
  // when get() runs out its own max_wait.
  Ticket submit(const BitVector& example_bits);

  // Dispatches the open partial window, if any. Called by the destructor.
  void flush();

  // Snapshot of the serving counters (serve/serve_stats.h): requests
  // (cache hits included — every prediction returned counts), dispatched
  // windows, leader-timeout dispatches, the window-fill histogram, and the
  // Runtime cache's counters. Monotonic; racing reads see a consistent
  // snapshot. The network-layer fields (errors, connections) stay zero
  // here — the NetServer fills them in its own snapshot.
  ServeStats stats() const;

 private:
  struct Batch {
    std::vector<const BitVector*> examples;
    std::vector<int> results;
    bool closed = false;      // no longer accepting joins; a dispatch is owed
    bool done = false;        // results are valid
    bool has_leader = false;  // a blocking request has armed max_wait
    std::condition_variable cv;
  };

  // Joins (or opens) the current window. Returns the joined batch and the
  // caller's slot; closes + claims the window when this join fills it
  // (*dispatch_claimed). A `blocking` join becomes the window's leader
  // (*leader) when it is the first blocking request — submit() joins never
  // lead, so a blocking request arriving after async ones still arms the
  // max_wait timeout.
  std::shared_ptr<Batch> join(const BitVector& example_bits, bool blocking,
                              std::size_t* index, bool* dispatch_claimed,
                              bool* leader);
  // Marks `batch` closed and detaches it from the open slot. Returns true
  // when the caller claimed the (single) dispatch. Requires mu_.
  bool try_close(const std::shared_ptr<Batch>& batch);
  // Predicts and publishes results for a closed batch. `timed_out` marks a
  // leader-timeout dispatch (a partial window that went out because its
  // oldest blocking request ran out of max_wait) for the stats.
  void dispatch(const std::shared_ptr<Batch>& batch, bool timed_out = false);
  // A conv version's window: packed into a BitMatrix and run as one
  // predict_snapshot pass, serialized on dispatch_mu_.
  std::vector<int> predict_conv_window(
      const Runtime::Snapshot& snap,
      const std::vector<const BitVector*>& examples);
  // Blocks until `batch` is done, dispatching it on timeout if nobody else
  // has. Returns the result at `index`.
  int await(const std::shared_ptr<Batch>& batch, std::size_t index,
            bool leader);
  // Cache probe shared by both entry points. True = *prediction is the
  // served answer (bit-identical to the current version's predict) and the
  // request never joins a window.
  bool probe_cache(const BitVector& example_bits, int* prediction);

  const Runtime* runtime_;
  MicroBatcherOptions options_;

  mutable std::mutex mu_;   // guards open_, batch states and the stats
  std::mutex dispatch_mu_;  // serializes conv windows' engine passes
  std::shared_ptr<Batch> open_;
  ServeStats stats_;
  // Requests answered straight from the cache — kept out of mu_ so the
  // lock-free hit path stays lock-free; stats() folds them into requests.
  std::atomic<std::uint64_t> cache_hit_requests_{0};

  friend class Ticket;
};

// Handle to one submitted example. get() may be called once from any
// thread; the ticket (and the example bits it refers to) must not outlive
// the MicroBatcher. A cache hit hands back an already-resolved ticket
// (no batch behind it) whose get() returns immediately.
class MicroBatcher::Ticket {
 public:
  int get();

 private:
  friend class MicroBatcher;
  Ticket(MicroBatcher* parent, std::shared_ptr<Batch> batch, std::size_t index)
      : parent_(parent), batch_(std::move(batch)), index_(index) {}
  explicit Ticket(int resolved)
      : parent_(nullptr), index_(0), resolved_(resolved) {}

  MicroBatcher* parent_;
  std::shared_ptr<Batch> batch_;
  std::size_t index_;
  int resolved_ = 0;
};

}  // namespace poetbin
