// Micro-batching front end for concurrent single-example serving.
//
// A MicroBatcher collects in-flight requests into windows and answers each
// window in one dispatch. For a dense model the dispatch runs every row
// through the model's compiled gather program (PoetBin::predict,
// core/gather_program.h), about a microsecond a row. For a conv model it
// packs the window into one bitsliced BitMatrix (BitMatrix::from_rows) and
// runs it through the wrapped Runtime as a single predict_snapshot pass.
// Either way the answers are bit-identical to the per-bit scalar walk.
//
// Dense models keep the window for what it batches around the evaluation:
// a NetServer connection submits a whole read's frames, waits once and
// answers them in one write, so under open-loop traffic a window turns
// many requests into one wake-up and one syscall pair.
//
// One entry point joins the open window:
//
//   Ticket t = batcher.submit(bits);   // returns at once
//   int cls = t.get();                 // blocks until the window answers
//
// Batching policy: a window closes (and dispatches) when it reaches
// max_batch examples, when a get() on it has waited max_wait, or at once
// when traffic is too light for waiting to pay. Whichever submit() fills
// the window dispatches it inline. Every get() on an open window leads it:
// it arms its max_wait timer only when at least one more request is
// expected within max_wait, and the first timer to run out dispatches the
// window. The batcher keeps a running estimate of the arrival gap: an EWMA
// (weight 1/8) of the time between window joins, spread over each join and
// the cache hits answered since the previous one, with every gap capped at
// 2 x max_wait. The estimate starts idle (at the cap), and a gap that
// reaches the cap resets it to idle. While the estimate exceeds max_wait a
// get() closes the window and dispatches it straight away, so a lone
// request under light traffic is answered in one predict instead of after
// max_wait. The rule has no knob of its own: max_wait sets both the window
// and the threshold. There is no dispatcher thread: a window dispatches
// when it fills, on flush(), or at the latest when a get() leads it, so no
// request can strand.
//
// Lifetime: the caller's example bits must stay alive until
// Ticket::get() completes — the batcher stores pointers, not copies. Conv
// windows that close together may dispatch concurrently: the Runtime
// serializes their engine passes itself (predict_snapshot holds its engine
// lock), and dense windows need no engine. The batcher may be shared
// freely across producer threads.
//
// Prediction cache: when the Runtime has one (RuntimeOptions::cache_bytes),
// submit() probes it BEFORE joining a window — a hit skips the window
// entirely and hands back an already-resolved Ticket — and a dispatched
// window inserts its results tagged with the model version that computed
// them. Hits are bit-identical to a dispatch by the cache's
// epoch-invalidation contract (serve/predict_cache.h). stats() folds the
// cache's counters into its snapshot, so one read tells the whole serving
// story.
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
  // How long a get() may wait for the window to fill before the partial
  // batch is dispatched anyway; it also sets the light-traffic threshold
  // (see the batching policy above). 0 = a get() on an open window
  // dispatches it at once (submits made before it still share it).
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

  class Ticket;
  // Joins the open window and returns immediately. The window dispatches
  // inline (on the submitting thread) when it fills; otherwise the result
  // materializes on flush() or when a get() leads it (see the batching
  // policy above).
  Ticket submit(const BitVector& example_bits);

  // Dispatches the open partial window, if any. Called by the destructor.
  void flush();

  // Snapshot of the serving counters (serve/serve_stats.h): requests
  // (cache hits included — every prediction returned counts), dispatched
  // windows, timeout dispatches (a window a get() dispatched at once under
  // light traffic is not one), the window-fill histogram, and the
  // Runtime cache's counters. Monotonic; racing reads see a consistent
  // snapshot. The network-layer fields (errors, connections) stay zero
  // here — the NetServer fills them in its own snapshot.
  ServeStats stats() const;

 private:
  struct Batch {
    std::vector<const BitVector*> examples;
    std::vector<int> results;
    bool closed = false;  // no longer accepting joins; a dispatch is owed
    bool done = false;    // results are valid
    std::condition_variable cv;
  };

  // Joins (or opens) the current window and folds this arrival into the
  // arrival-gap estimate. Returns the joined batch and the caller's slot;
  // closes + claims the window when this join fills it (*dispatch_claimed).
  std::shared_ptr<Batch> join(const BitVector& example_bits,
                              std::size_t* index, bool* dispatch_claimed);
  // Marks `batch` closed and detaches it from the open slot. Returns true
  // when the caller claimed the (single) dispatch. Requires mu_.
  bool try_close(const std::shared_ptr<Batch>& batch);
  // Predicts and publishes results for a closed batch. `timed_out` marks a
  // timeout dispatch (a partial window that went out because a get() on it
  // ran out of max_wait) for the stats.
  void dispatch(const std::shared_ptr<Batch>& batch, bool timed_out = false);
  // A conv version's window: packed into a BitMatrix and run as one
  // predict_snapshot pass.
  std::vector<int> predict_conv_window(
      const Runtime::Snapshot& snap,
      const std::vector<const BitVector*>& examples);
  // Blocks until `batch` is done, leading the window while it is open: it
  // dispatches the window itself at once when the arrival-gap estimate
  // says nobody else is coming within max_wait, otherwise on timeout if
  // nobody else has. Returns the result at `index`.
  int await(const std::shared_ptr<Batch>& batch, std::size_t index);
  // submit()'s cache probe. True = *prediction is the served answer
  // (bit-identical to the current version's predict) and the request never
  // joins a window.
  bool probe_cache(const BitVector& example_bits, int* prediction);

  const Runtime* runtime_;
  MicroBatcherOptions options_;

  mutable std::mutex mu_;  // guards open_, batch states, the stats and
                           // the arrival-gap estimate
  std::shared_ptr<Batch> open_;
  ServeStats stats_;
  // Requests answered straight from the cache — kept out of mu_ so the
  // lock-free hit path stays lock-free; stats() folds them into requests,
  // and join() counts them as arrivals.
  std::atomic<std::uint64_t> cache_hit_requests_{0};
  // Arrival-gap estimate (see the batching policy): the EWMA, the time of
  // the previous join, and the cache-hit count it saw.
  std::chrono::nanoseconds gap_ewma_;
  std::chrono::steady_clock::time_point last_join_;
  std::uint64_t hits_at_last_join_ = 0;

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
