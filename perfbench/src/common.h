// Shared pieces of the benchmark: clocks, order statistics, seeded inputs
// and the metric sheet every workload fills in.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "serve/runtime.h"
#include "util/bit_matrix.h"
#include "util/bitvector.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 for
// an empty one. Takes a copy because it sorts.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

// p99 of a latency sample that is robust to a rare stall: the sample is
// cut into consecutive segments of `segment` values (1000 leaves exactly
// ten beyond each segment's p99), and the median of the segment p99s is
// returned. Samples shorter than two segments get their plain p99.
double segmented_p99(const std::vector<double>& values,
                     std::size_t segment = 1000);

// The CPUs this process may run on, and a way to confine the calling
// thread (and the threads it creates afterwards) to some of them.
std::vector<int> allowed_cpus();
void pin_current_thread(const std::vector<int>& cpus);

// CPU time (user + system) of the whole process / of the calling thread, in
// seconds. Unlike wall time it does not grow while the host runs another
// guest on this virtual CPU.
double process_cpu_s();
double thread_cpu_s();

// Keeps CPUs from going idle while a serving phase runs: one thread per
// CPU, pinned there at SCHED_IDLE priority, spins until stopped. A thread of
// any other policy that wakes on such a CPU preempts the spinner at once,
// so the spinners take no time from the server; but the virtual CPU never
// halts, so a wake-up is a context switch inside the guest and not a
// round trip through the host's scheduler, whose delay follows the host's
// load and not the program's.
class IdleSpinners {
 public:
  explicit IdleSpinners(const std::vector<int>& cpus);
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

  std::size_t size() const { return threads_.size(); }
  // CPU time the spinners have used so far, in seconds.
  double cpu_s() const;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

// Peak resident set of this process, in MiB.
double peak_rss_mb();

// Time on CPU of every thread of this process so far, in ns, by thread id
// (/proc/self/task/<tid>/schedstat). Two readings around a phase tell
// which threads did work in it.
std::map<long, std::uint64_t> thread_run_ns();

// Threads that ran for at least `min_ns` between two thread_run_ns()
// readings: the threads a phase actually used, idle pool workers and
// blocked acceptors left out.
std::size_t busy_threads(const std::map<long, std::uint64_t>& before,
                         const std::map<long, std::uint64_t>& after,
                         std::uint64_t min_ns);

// Row-major packed inputs: row i is words[i * words_per_row ...], bit j of a
// row at word j / 64, bit j % 64 (the BitVector layout). Rows are drawn from
// a counter-based generator, so row i of seed s is the same on every run and
// no two rows of a run repeat in practice (512 random bits).
struct Inputs {
  std::size_t n_bits = 0;
  std::size_t words_per_row = 0;
  std::vector<std::uint64_t> words;

  std::size_t rows() const {
    return words_per_row == 0 ? 0 : words.size() / words_per_row;
  }
  const std::uint64_t* row(std::size_t i) const {
    return words.data() + i * words_per_row;
  }
};

// `n_rows` rows of `n_bits` random bits; `stream` selects an independent
// sequence under the same seed (one per phase, pool, or dataset).
Inputs random_inputs(std::uint64_t seed, std::uint64_t stream,
                     std::size_t n_rows, std::size_t n_bits);

poetbin::BitVector row_bits(const Inputs& inputs, std::size_t i);

// Column-major matrix of rows [begin, end), via 64x64 block transposes.
poetbin::BitMatrix to_matrix(const Inputs& inputs, std::size_t begin,
                             std::size_t end);

// One named end-to-end or per-layer number.
struct Metric {
  double value = 0.0;
  std::string unit;
};

// What a run reports: the metrics by name, and the operation tally behind
// `attempted`/`failed`. Human-readable phase lines go to stdout as they
// happen; the JSON result line is printed last by main.
struct Sheet {
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  // Tallies one checked operation; a failed one is named on stderr.
  void check(bool ok, const char* what);
};

// Loads a model file the benchmark wrote. A file that does not load is a
// broken run, not a slow one: the process exits 2 without a result line.
poetbin::Runtime load_runtime(const std::string& path,
                              poetbin::RuntimeOptions options);

// The run-wide settings main hands to each workload.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;          // smaller offline datasets, for the self-test
  bool inject_wrong = false;  // corrupt one expected answer (self-test)
  std::string work_dir;       // model files go here
};

class Tracer;

// Workload entry points. Each fills the sheet with the end-to-end metrics
// of one pass; with a tracer it also records spans around its calls into
// each layer and adds the per-layer metrics.
void run_serving(const RunConfig& config, Tracer* tracer, Sheet* sheet);
void run_offline(const RunConfig& config, Tracer* tracer, Sheet* sheet);

}  // namespace perfbench
