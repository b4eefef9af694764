// Word-parallel (bitsliced) batch inference.
//
// BitMatrix stores a dataset feature-major as packed uint64 columns, so a
// P-input LUT can be evaluated for 64 examples at once: Shannon-expand the
// truth table over the P selected column *words* with pure AND/OR/XOR/NOT —
// no per-example address assembly. A RINC/MAT hierarchy is then a DAG of
// such word ops, and a whole dataset pass is an embarrassingly parallel
// loop over word indices, which BatchEngine chunks across a thread pool.
//
// One word kernel, `eval_rinc_words`, evaluates any RINC hierarchy over
// column-word pointers: a BitMatrix's columns, a chunk-local buffer, or the
// conv pass's row runs of a padded frame (core/rinc_conv.h). It is the
// only dataset evaluator in the library: `RincModule::eval_dataset_batched`
// runs it over a whole matrix on the calling thread, and a BatchEngine
// spreads it (and the fused argmax, `classify_words`) over a pool. The
// per-example scalar oracles the tests hold it to live in
// tests/reference/.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/poetbin.h"
#include "core/rinc.h"
#include "dt/lut.h"
#include "util/bit_matrix.h"
#include "util/bitvector.h"

namespace poetbin {

// Word 0 of every column of `features`, the input form of eval_rinc_words.
std::vector<const std::uint64_t*> column_pointers(const BitMatrix& features);

// Evaluates `module` for words [word_begin, word_end) of a feature matrix
// given as column pointers — feature f's word w is columns[f][w], and
// every feature the module references must be below n_columns (checked
// per leaf) — writing word_end - word_begin words to `out`. Leaves reduce
// their input columns in place; an internal node reduces its children's
// outputs, which live in a thread-local arena, so a call allocates nothing
// once the arena has grown to fit. Bits beyond the dataset in its last
// word are whatever the tables make of the input's tail bits: callers that
// publish a BitVector mask its tail word.
void eval_rinc_words(const RincModule& module,
                     const std::uint64_t* const* columns,
                     std::size_t n_columns, std::size_t word_begin,
                     std::size_t word_end, std::uint64_t* out);

// Multithreaded batch driver. Owns a persistent pool of worker threads and
// chunks the example range (in whole words) across them. Results are
// bit-identical at any thread count and on every word backend; the pool is
// not re-entrant (one dataset pass at a time per engine — enforced by a
// cheap in-use check that aborts on overlapping parallel_for calls).
//
// predict_dataset fuses the output-layer argmax into the word pass: per
// chunk it evaluates the RINC bank into cache-resident word buffers,
// Shannon-reduces each output neuron's quantized code into bit-planes, and
// runs a bitsliced MSB-first comparator across classes — no per-example
// combo assembly, no materialized rinc_outputs matrix. The conv predict
// (predict_conv_dataset, core/rinc_conv.h) runs the same chunk body on each
// chunk's conv output. Word kernels run on the active SIMD backend
// (util/word_backend.h).
//
// Chunking: one thread takes the word range in chunks of at most 16 words
// (1024 examples); a pool cuts it into about four chunks per thread, so any
// call of 4 x threads words or more spreads across every thread.
class BatchEngine {
 public:
  // 0 = std::thread::hardware_concurrency(); 1 = run inline, no workers.
  explicit BatchEngine(std::size_t n_threads = 0);
  ~BatchEngine();

  BatchEngine(const BatchEngine&) = delete;
  BatchEngine& operator=(const BatchEngine&) = delete;

  std::size_t n_threads() const { return n_threads_; }

  // The RINC bank's output bits (n x nc*P), one job per (module, chunk).
  BitMatrix rinc_outputs(const PoetBin& model, const BitMatrix& features) const;
  // Every row's class through the fused argmax described above.
  std::vector<int> predict_dataset(const PoetBin& model,
                                   const BitMatrix& features) const;

  // Runs fn(job) for job in [0, n_jobs) on the pool plus the calling
  // thread. Exposed for callers with custom per-chunk work.
  void parallel_for(std::size_t n_jobs,
                    const std::function<void(std::size_t)>& fn) const;

 private:
  class ThreadPool;

  std::size_t n_threads_ = 1;
  std::unique_ptr<ThreadPool> pool_;  // null when n_threads_ == 1
  // Set while a parallel_for is dispatched to the pool; overlapping use
  // (from a job or from another thread) is a contract violation and aborts.
  mutable std::atomic<bool> busy_{false};
};

}  // namespace poetbin
