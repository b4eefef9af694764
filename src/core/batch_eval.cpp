#include "core/batch_eval.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

#include "core/rinc_conv.h"
#include "util/aligned_vector.h"
#include "util/check.h"
#include "util/word_backend.h"

namespace poetbin {

namespace {

// One LUT over absolute feature columns. The Shannon reduction — 2^(P-1) - 1
// word muxes and one NOT per block, its bottom level folded into table
// picks — runs on the active word backend, reading the LUT's compact table
// words, so nothing is rebuilt per call.
void eval_lut_into(const Lut& lut, const std::uint64_t* const* columns,
                   std::size_t n_columns, std::size_t word_begin,
                   std::size_t word_end, std::uint64_t* out) {
  const std::size_t arity = lut.arity();
  std::array<const std::uint64_t*, kMaxLutArity> inputs{};
  for (std::size_t j = 0; j < arity; ++j) {
    POETBIN_CHECK(lut.inputs()[j] < n_columns);
    inputs[j] = columns[lut.inputs()[j]];
  }
  std::uint64_t scratch[Lut::kMaxStridedWords];
  word_ops().lut_reduce(lut.contiguous_words(scratch), arity, inputs.data(),
                        /*base=*/0, word_begin, word_end, out);
}

void eval_rinc_into(const RincModule& module,
                    const std::uint64_t* const* columns, std::size_t n_columns,
                    std::size_t word_begin, std::size_t word_end,
                    std::uint64_t* out, std::uint64_t* arena) {
  if (module.is_leaf()) {
    eval_lut_into(module.leaf_lut(), columns, n_columns, word_begin, word_end,
                  out);
    return;
  }
  const auto& children = module.children();
  const std::size_t n_words = word_end - word_begin;
  std::uint64_t* const child_words = arena;
  arena += children.size() * n_words;
  std::array<const std::uint64_t*, kMaxLutArity> inputs{};
  for (std::size_t c = 0; c < children.size(); ++c) {
    inputs[c] = child_words + c * n_words;
    eval_rinc_into(children[c], columns, n_columns, word_begin, word_end,
                   child_words + c * n_words, arena);
  }
  // Child outputs are rebased to the range, hence base = word_begin.
  std::uint64_t scratch[Lut::kMaxStridedWords];
  word_ops().lut_reduce(module.mat_lut().contiguous_words(scratch),
                        children.size(), inputs.data(), word_begin, word_begin,
                        word_end, out);
}

}  // namespace

std::vector<const std::uint64_t*> column_pointers(const BitMatrix& features) {
  std::vector<const std::uint64_t*> columns(features.cols());
  for (std::size_t f = 0; f < columns.size(); ++f) {
    columns[f] = features.column_words(f).data();
  }
  return columns;
}

void eval_rinc_words(const RincModule& module,
                     const std::uint64_t* const* columns,
                     std::size_t n_columns, std::size_t word_begin,
                     std::size_t word_end, std::uint64_t* out) {
  POETBIN_CHECK(word_begin <= word_end);
  // An internal node holds its children's outputs while one child runs, so
  // the arena holds the children of every ancestor on one path down. Those
  // are distinct non-root nodes: at most lut_count() - 1 outputs.
  static thread_local WordVec arena;
  const std::size_t need = (module.lut_count() - 1) * (word_end - word_begin);
  if (arena.size() < need) arena.resize(need);
  eval_rinc_into(module, columns, n_columns, word_begin, word_end, out,
                 arena.data());
}

BitVector RincModule::eval_dataset_batched(const BitMatrix& features) const {
  BitVector out(features.rows());
  eval_rinc_words(*this, column_pointers(features).data(), features.cols(), 0,
                  features.word_count(), out.words());
  out.mask_tail_word();
  return out;
}

// ---------------------------------------------------------------------------
// BatchEngine
// ---------------------------------------------------------------------------

// Persistent worker pool. Each parallel_for publishes a job function and a
// shared atomic job counter; workers (and the calling thread) drain it,
// and the caller blocks until every worker has gone back to sleep.
class BatchEngine::ThreadPool {
 public:
  explicit ThreadPool(std::size_t n_workers) {
    threads_.reserve(n_workers);
    for (std::size_t t = 0; t < n_workers; ++t) {
      threads_.emplace_back([this] { worker_loop(); });
    }
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_work_.notify_all();
    for (auto& thread : threads_) thread.join();
  }

  void run(std::size_t n_jobs, const std::function<void(std::size_t)>& fn) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      job_ = &fn;
      n_jobs_ = n_jobs;
      // order: relaxed — published to the workers by the mu_ unlock +
      // generation bump below (mutex release/acquire), not by this store.
      next_job_.store(0, std::memory_order_relaxed);
      workers_active_ = threads_.size();
      ++generation_;
    }
    cv_work_.notify_all();
    drain();
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [this] { return workers_active_ == 0; });
    job_ = nullptr;
  }

 private:
  void drain() {
    for (;;) {
      // order: relaxed — only the atomicity of the claim matters; job_ and
      // n_jobs_ were published by the mutex handoff in run(), and each
      // claimed index is touched by exactly one thread.
      const std::size_t job = next_job_.fetch_add(1, std::memory_order_relaxed);
      if (job >= n_jobs_) return;
      (*job_)(job);
    }
  }

  void worker_loop() {
    std::uint64_t seen_generation = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_work_.wait(lock, [&] {
          return stop_ || generation_ != seen_generation;
        });
        if (stop_) return;
        seen_generation = generation_;
      }
      drain();
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (--workers_active_ == 0) cv_done_.notify_all();
      }
    }
  }

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::size_t n_jobs_ = 0;
  std::atomic<std::size_t> next_job_{0};
  std::size_t workers_active_ = 0;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
};

BatchEngine::BatchEngine(std::size_t n_threads) {
  if (n_threads == 0) {
    n_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  n_threads_ = n_threads;
  if (n_threads_ > 1) {
    // The calling thread participates in every parallel_for, so spawn one
    // fewer worker than the requested parallelism.
    pool_ = std::make_unique<ThreadPool>(n_threads_ - 1);
  }
}

BatchEngine::~BatchEngine() = default;

void BatchEngine::parallel_for(
    std::size_t n_jobs, const std::function<void(std::size_t)>& fn) const {
  if (pool_ == nullptr || n_jobs <= 1) {
    for (std::size_t job = 0; job < n_jobs; ++job) fn(job);
    return;
  }
  // The pool has one job slot; dispatching a second parallel_for while one
  // is in flight (from a job, or from another user thread) would corrupt it
  // silently. Fail fast instead. The flag is cleared by RAII so a throwing
  // job doesn't poison the engine for later (legal, sequential) calls.
  //
  // order: acquire on the exchange pairs with BusyReset's release below —
  // the lock-acquire half of a try-lock: when caller B's exchange reads the
  // false that caller A's reset stored, everything A's pass wrote (output
  // words included) happens-before B's pass. The flag is per-engine state,
  // so two engines on different Runtimes never contend here
  // (race_stress_test's TwoEnginesNeverFalseTripBusyGuard pins that down).
  POETBIN_CHECK_MSG(!busy_.exchange(true, std::memory_order_acquire),
                    "BatchEngine is not re-entrant: parallel_for called while "
                    "another parallel_for on the same engine is in flight; "
                    "use one engine per concurrent dataset pass");
  struct BusyReset {
    std::atomic<bool>* flag;
    // order: release is the unlock half of the handoff — it publishes this
    // pass's writes to the next exchange-acquire on the same engine.
    ~BusyReset() { flag->store(false, std::memory_order_release); }
  } reset{&busy_};  // busy_ is mutable, so &busy_ is non-const here
  pool_->run(n_jobs, fn);
}

namespace {

struct WordChunks {
  std::size_t n_words = 0;
  std::size_t chunk_words = 0;
  std::size_t n_chunks = 0;

  std::size_t begin(std::size_t chunk) const { return chunk * chunk_words; }
  std::size_t end(std::size_t chunk) const {
    return std::min(n_words, begin(chunk) + chunk_words);
  }
};

// Chunk bounds, in words. The cap bounds every per-thread scratch buffer —
// the conv pass's padded frame and conv output above all — so scratch
// stays cache-sized and never grows with the call's row count. The floor
// keeps a chunk at least half a cache line of each output column.
constexpr std::size_t kMinChunkWords = 4;
constexpr std::size_t kMaxChunkWords = 16;

// Word-aligned chunking of the example range: one thread takes it in
// chunks of kMaxChunkWords; a pool aims for four chunks per thread (load
// balance), so a call of 4 x threads words or more gives every thread at
// least one chunk.
WordChunks chunk_words(std::size_t n_words, std::size_t n_threads) {
  WordChunks chunks;
  chunks.n_words = n_words;
  if (n_words == 0) return chunks;
  const std::size_t target = n_threads > 1 ? 4 * n_threads : 1;
  chunks.chunk_words = std::clamp<std::size_t>(
      (n_words + target - 1) / target, kMinChunkWords, kMaxChunkWords);
  chunks.n_chunks = (n_words + chunks.chunk_words - 1) / chunks.chunk_words;
  return chunks;
}

// Checks the fused argmax's preconditions. False when every prediction is
// class 0: with zero or one output neuron PoetBin::predict's argmax keeps
// its class-0 start and has nothing to compare.
bool needs_argmax(const PoetBin& model) {
  const auto& neurons = model.output_neurons();
  if (neurons.size() <= 1) return false;
  const std::size_t p = model.lut_inputs();
  POETBIN_CHECK(p <= kMaxLutArity);
  for (const auto& neuron : neurons) {
    POETBIN_CHECK(neuron.input_modules.size() == p);
    POETBIN_CHECK(neuron.codes.size() == (std::size_t{1} << p));
  }
  POETBIN_CHECK_MSG(model.code_plane_count() >= 1, "model has no code planes");
  return true;
}

// The fused classifier over words [word_begin, word_end) of a feature
// matrix given as column pointers (see eval_rinc_words), for a model that
// needs_argmax: the RINC bank into chunk-sized word buffers, each output
// neuron's code bit-planes Shannon-reduced from its P module words, the
// bitsliced MSB-first comparator across classes, and finally the
// class-index planes un-sliced into predictions[0, n_rows) — n_rows counts
// the valid rows from 64 * word_begin on. Code planes are boolean
// functions of the neuron's P inputs, so they reduce with the same kernel
// as the LUT layers: the model holds them precomputed as compact tables
// (PoetBin::code_plane), and nothing is rebuilt per call.
void classify_words(const PoetBin& model, const std::uint64_t* const* columns,
                    std::size_t n_columns, std::size_t word_begin,
                    std::size_t word_end, std::size_t n_rows,
                    int* predictions) {
  const auto& modules = model.modules();
  const auto& neurons = model.output_neurons();
  const std::size_t p = model.lut_inputs();
  const std::size_t n_planes = model.code_plane_count();
  const std::size_t n_class_planes =
      static_cast<std::size_t>(std::bit_width(neurons.size() - 1));
  const std::size_t n_chunk = word_end - word_begin;
  const WordOps& ops = word_ops();

  // Chunk-sized word buffers, reused across chunks per thread: the RINC
  // bank's outputs, the candidate/best code planes and the class index
  // planes all stay cache-resident.
  static thread_local WordVec module_words, cand, best, cls;
  static thread_local std::vector<std::uint64_t*> cand_ptrs, best_ptrs,
      cls_ptrs;
  module_words.resize(modules.size() * n_chunk);
  cand.resize(n_planes * n_chunk);
  best.resize(n_planes * n_chunk);
  cls.assign(n_class_planes * n_chunk, 0);
  cand_ptrs.resize(n_planes);
  best_ptrs.resize(n_planes);
  cls_ptrs.resize(n_class_planes);
  for (std::size_t plane = 0; plane < n_planes; ++plane) {
    cand_ptrs[plane] = cand.data() + plane * n_chunk;
    best_ptrs[plane] = best.data() + plane * n_chunk;
  }
  for (std::size_t q = 0; q < n_class_planes; ++q) {
    cls_ptrs[q] = cls.data() + q * n_chunk;
  }

  for (std::size_t m = 0; m < modules.size(); ++m) {
    eval_rinc_words(modules[m], columns, n_columns, word_begin, word_end,
                    module_words.data() + m * n_chunk);
  }

  std::array<const std::uint64_t*, kMaxLutArity> inputs{};
  for (std::size_t c = 0; c < neurons.size(); ++c) {
    for (std::size_t j = 0; j < p; ++j) {
      inputs[j] = module_words.data() + neurons[c].input_modules[j] * n_chunk;
    }
    // Class 0 seeds the running best directly; later classes reduce into
    // the candidate planes and run the bitsliced comparator. Bits beyond
    // the dataset in its last word carry garbage codes, but the un-slicing
    // below never reads them. Module words are rebased to the range,
    // hence base = word_begin.
    std::uint64_t* const* out_ptrs =
        c == 0 ? best_ptrs.data() : cand_ptrs.data();
    for (std::size_t plane = 0; plane < n_planes; ++plane) {
      ops.lut_reduce(model.code_plane(c, plane), p, inputs.data(), word_begin,
                     word_begin, word_end, out_ptrs[plane]);
    }
    if (c != 0) {
      ops.argmax_update(cand_ptrs.data(), best_ptrs.data(), n_planes,
                        cls_ptrs.data(), n_class_planes,
                        static_cast<std::uint32_t>(c), n_chunk);
    }
  }

  for (std::size_t w = 0; w < n_chunk; ++w) {
    const std::size_t rows = std::min<std::size_t>(64, n_rows - 64 * w);
    for (std::size_t i = 0; i < rows; ++i) {
      int class_index = 0;
      for (std::size_t q = 0; q < n_class_planes; ++q) {
        class_index |= static_cast<int>((cls[q * n_chunk + w] >> i) & 1u)
                       << q;
      }
      predictions[64 * w + i] = class_index;
    }
  }
}

// The conv pass over words [word_begin, word_end) of `frames`. Returns the
// chunk's conv output in a thread-local buffer, feature-major with
// word_end - word_begin words per output bit (the layer's output order:
// channel, then oy, then ox).
const std::uint64_t* conv_chunk(const RincConvLayer& layer,
                                const BitMatrix& frames,
                                std::size_t word_begin, std::size_t word_end) {
  const BinShape3 in = layer.input_shape();
  const BinShape3 out = layer.output_shape();
  const RincConvConfig& config = layer.config();
  const std::size_t n_words = word_end - word_begin;
  const std::size_t stride = config.stride;
  const std::size_t pad = config.padding;
  const std::size_t padded_h = in.height + 2 * pad;
  const std::size_t padded_w = in.width + 2 * pad;
  const std::size_t phase_w = (padded_w + stride - 1) / stride;

  // The zero-padded frame, n_words words per pixel, each row's pixels
  // grouped by stride phase: pixel (c, py, px) is cell
  // ((c * padded_h + py) * stride + px % stride) * phase_w + px / stride,
  // so pixels kx, kx + stride, kx + 2 * stride, ... are consecutive cells.
  static thread_local WordVec padded;
  static thread_local WordVec conv_out;
  padded.resize(in.channels * padded_h * stride * phase_w * n_words);
  conv_out.resize(out.flat() * n_words);
  const auto cell = [&](std::size_t c, std::size_t py, std::size_t px) {
    return padded.data() +
           (((c * padded_h + py) * stride + px % stride) * phase_w +
            px / stride) *
               n_words;
  };
  for (std::size_t c = 0; c < in.channels; ++c) {
    for (std::size_t py = 0; py < padded_h; ++py) {
      for (std::size_t px = 0; px < padded_w; ++px) {
        std::uint64_t* dst = cell(c, py, px);
        if (py < pad || py >= pad + in.height || px < pad ||
            px >= pad + in.width) {
          std::fill_n(dst, n_words, 0);
          continue;
        }
        const std::size_t feature =
            (c * in.height + py - pad) * in.width + px - pad;
        std::copy_n(frames.column_words(feature).data() + word_begin, n_words,
                    dst);
      }
    }
  }

  // For output row oy, patch bit (c, ky, kx) — gather_patches' c -> ky ->
  // kx order — across every ox is the run of out.width cells
  // that starts at pixel (c, oy * stride + ky, kx). Each channel module
  // reduces the whole row at once, and its MAT writes the row's conv
  // output bits (out.width consecutive features) in place.
  static thread_local std::vector<const std::uint64_t*> patch;
  patch.resize(layer.patch_bits());
  const std::size_t kernel = config.kernel;
  const std::size_t positions = out.height * out.width;
  const std::size_t row_words = out.width * n_words;
  const auto& modules = layer.channel_modules();
  for (std::size_t oy = 0; oy < out.height; ++oy) {
    std::size_t bit = 0;
    for (std::size_t c = 0; c < in.channels; ++c) {
      for (std::size_t ky = 0; ky < kernel; ++ky) {
        for (std::size_t kx = 0; kx < kernel; ++kx) {
          patch[bit++] = cell(c, oy * stride + ky, kx);
        }
      }
    }
    for (std::size_t ch = 0; ch < modules.size(); ++ch) {
      eval_rinc_words(modules[ch], patch.data(), patch.size(), 0, row_words,
                      conv_out.data() + (ch * positions + oy * out.width) *
                                            n_words);
    }
  }
  return conv_out.data();
}

}  // namespace

BitMatrix BatchEngine::rinc_outputs(const PoetBin& model,
                                    const BitMatrix& features) const {
  const auto& modules = model.modules();
  BitMatrix out(features.rows(), modules.size());
  const auto columns = column_pointers(features);
  // One job per (module, chunk): module count alone (nc x P) can be smaller
  // than the pool on large machines, and a single huge module should still
  // spread across threads.
  const WordChunks chunks = chunk_words(features.word_count(), n_threads_);
  parallel_for(modules.size() * chunks.n_chunks, [&](std::size_t job) {
    const std::size_t m = job / chunks.n_chunks;
    const std::size_t chunk = job % chunks.n_chunks;
    const std::size_t begin = chunks.begin(chunk);
    const std::size_t end = chunks.end(chunk);
    eval_rinc_words(modules[m], columns.data(), columns.size(), begin, end,
                    out.column(m).words() + begin);
  });
  for (std::size_t m = 0; m < modules.size(); ++m) {
    out.column(m).mask_tail_word();
  }
  return out;
}

std::vector<int> BatchEngine::predict_dataset(const PoetBin& model,
                                              const BitMatrix& features) const {
  const std::size_t n = features.rows();
  std::vector<int> predictions(n, 0);
  if (n == 0 || !needs_argmax(model)) return predictions;
  const auto columns = column_pointers(features);
  const WordChunks chunks = chunk_words(features.word_count(), n_threads_);
  parallel_for(chunks.n_chunks, [&](std::size_t chunk) {
    const std::size_t begin = chunks.begin(chunk);
    const std::size_t end = chunks.end(chunk);
    classify_words(model, columns.data(), columns.size(), begin, end,
                   n - 64 * begin, predictions.data() + 64 * begin);
  });
  return predictions;
}

// --- PoetBin conveniences (declared in poetbin.h) --------------------------

std::vector<int> PoetBin::predict_dataset_batched(
    const BitMatrix& features, const BatchEngine& engine) const {
  return engine.predict_dataset(*this, features);
}

// --- RincConvLayer / ConvModel (declared in core/rinc_conv.h) --------------

BitMatrix RincConvLayer::eval_dataset_batched(const BitMatrix& inputs,
                                              const BatchEngine& engine) const {
  POETBIN_CHECK(inputs.cols() == in_shape_.flat());
  const std::size_t n = inputs.rows();
  const std::size_t n_out = out_shape_.flat();
  BitMatrix out(n, n_out);
  if (n == 0 || modules_.empty()) return out;
  // One job per word chunk, each writing disjoint words of every output
  // column, so any thread count is race-free and bit-identical.
  const WordChunks chunks =
      chunk_words(inputs.word_count(), engine.n_threads());
  engine.parallel_for(chunks.n_chunks, [&](std::size_t chunk) {
    const std::size_t begin = chunks.begin(chunk);
    const std::size_t end = chunks.end(chunk);
    const std::size_t n_words = end - begin;
    const std::uint64_t* conv_out = conv_chunk(*this, inputs, begin, end);
    for (std::size_t f = 0; f < n_out; ++f) {
      std::uint64_t* dst = out.column(f).words() + begin;
      std::copy_n(conv_out + f * n_words, n_words, dst);
      if (end == chunks.n_words) {
        dst[n_words - 1] &= BitVector::tail_word_mask(n);
      }
    }
  });
  return out;
}

std::vector<int> predict_conv_dataset(const RincConvLayer& conv,
                                      const PoetBin& classifier,
                                      const BitMatrix& frames,
                                      const BatchEngine& engine) {
  POETBIN_CHECK(frames.cols() == conv.input_shape().flat());
  const std::size_t n = frames.rows();
  std::vector<int> predictions(n, 0);
  if (n == 0 || !needs_argmax(classifier)) return predictions;
  const std::size_t n_out = conv.output_shape().flat();
  const WordChunks chunks =
      chunk_words(frames.word_count(), engine.n_threads());
  engine.parallel_for(chunks.n_chunks, [&](std::size_t chunk) {
    const std::size_t begin = chunks.begin(chunk);
    const std::size_t end = chunks.end(chunk);
    const std::size_t n_words = end - begin;
    const std::uint64_t* conv_out = conv_chunk(conv, frames, begin, end);
    static thread_local std::vector<const std::uint64_t*> columns;
    columns.resize(n_out);
    for (std::size_t f = 0; f < n_out; ++f) {
      columns[f] = conv_out + f * n_words;
    }
    classify_words(classifier, columns.data(), n_out, 0, n_words,
                   n - 64 * begin, predictions.data() + 64 * begin);
  });
  return predictions;
}

std::vector<int> ConvModel::predict_dataset_batched(
    const BitMatrix& frames, const BatchEngine& engine) const {
  return predict_conv_dataset(conv, classifier, frames, engine);
}

}  // namespace poetbin
