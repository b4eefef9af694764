#include "common.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

namespace perfbench {

void Sheet::check(bool ok, const char* what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::fprintf(stderr, "perfbench: wrong result: %s\n", what);
  }
}

poetbin::Runtime load_runtime(const std::string& path,
                              poetbin::RuntimeOptions options) {
  poetbin::Runtime::LoadResult loaded = poetbin::Runtime::load(path, options);
  if (!loaded.ok()) {
    std::fprintf(stderr, "perfbench: cannot load %s: %s\n", path.c_str(),
                 loaded.error().message.c_str());
    std::exit(2);
  }
  return std::move(loaded).value();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double segmented_p99(const std::vector<double>& values, std::size_t segment) {
  if (values.size() < 2 * segment) return quantile(values, 0.99);
  std::vector<double> p99s;
  for (std::size_t begin = 0; begin + segment <= values.size();
       begin += segment) {
    p99s.push_back(quantile(
        std::vector<double>(values.begin() + static_cast<std::ptrdiff_t>(begin),
                            values.begin() +
                                static_cast<std::ptrdiff_t>(begin + segment)),
        0.99));
  }
  return median(std::move(p99s));
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

void pin_current_thread(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  ::pthread_setaffinity_np(::pthread_self(), sizeof(set), &set);
}

namespace {

// The CPU-time clocks count every nanosecond run; getrusage() splits the
// time by scheduler ticks and, for one thread, moves in whole ticks (4 ms
// here), too coarse for a single predict call.
double cpu_seconds(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

double process_cpu_s() { return cpu_seconds(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return cpu_seconds(CLOCK_THREAD_CPUTIME_ID); }

IdleSpinners::IdleSpinners(const std::vector<int>& cpus) {
  for (const int cpu : cpus) {
    threads_.emplace_back([this, cpu] {
      pin_current_thread({cpu});
      sched_param param{};
      ::pthread_setschedparam(::pthread_self(), SCHED_IDLE, &param);
      // order: relaxed — the flag carries no data, only "stop spinning".
      while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#elif defined(__aarch64__)
        asm volatile("yield");
#endif
      }
    });
  }
}

IdleSpinners::~IdleSpinners() {
  // order: relaxed — see the spin loop.
  stop_.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads_) t.join();
}

double IdleSpinners::cpu_s() const {
  double total = 0.0;
  for (const std::thread& t : threads_) {
    clockid_t clock{};
    timespec ts{};
    if (::pthread_getcpuclockid(const_cast<std::thread&>(t).native_handle(),
                                &clock) == 0 &&
        ::clock_gettime(clock, &ts) == 0) {
      total += static_cast<double>(ts.tv_sec) +
               1e-9 * static_cast<double>(ts.tv_nsec);
    }
  }
  return total;
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::map<long, std::uint64_t> thread_run_ns() {
  std::map<long, std::uint64_t> out;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    std::FILE* f =
        std::fopen((entry.path() / "schedstat").c_str(), "r");
    if (f == nullptr) continue;
    unsigned long long run_ns = 0;
    if (std::fscanf(f, "%llu", &run_ns) == 1) {
      out[std::strtol(entry.path().filename().c_str(), nullptr, 10)] = run_ns;
    }
    std::fclose(f);
  }
  return out;
}

std::size_t busy_threads(const std::map<long, std::uint64_t>& before,
                         const std::map<long, std::uint64_t>& after,
                         std::uint64_t min_ns) {
  std::size_t n = 0;
  for (const auto& [tid, ns] : after) {
    const auto it = before.find(tid);
    const std::uint64_t start = it == before.end() ? 0 : it->second;
    if (ns - start >= min_ns) ++n;
  }
  return n;
}

namespace {

std::uint64_t mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// In-place transpose of a 64x64 bit block: bit c of a[r] moves to bit r of
// a[c] (recursive off-diagonal block swaps, Hacker's Delight 7-3).
void transpose64(std::uint64_t* a) {
  std::uint64_t m = 0x00000000FFFFFFFFULL;
  for (std::size_t j = 32; j != 0; j >>= 1, m ^= (m << j)) {
    for (std::size_t k = 0; k < 64; k = ((k | j) + 1) & ~j) {
      const std::uint64_t t = ((a[k] >> j) ^ a[k | j]) & m;
      a[k] ^= t << j;
      a[k | j] ^= t;
    }
  }
}

}  // namespace

Inputs random_inputs(std::uint64_t seed, std::uint64_t stream,
                     std::size_t n_rows, std::size_t n_bits) {
  Inputs inputs;
  inputs.n_bits = n_bits;
  inputs.words_per_row = poetbin::BitVector::words_needed(n_bits);
  inputs.words.resize(n_rows * inputs.words_per_row);
  const std::uint64_t base = mix(seed * 0x9e3779b97f4a7c15ULL + stream);
  const std::uint64_t tail = poetbin::BitVector::tail_word_mask(n_bits);
  for (std::size_t i = 0; i < inputs.words.size(); ++i) {
    inputs.words[i] = mix(base + 0x9e3779b97f4a7c15ULL * (i + 1));
    if (i % inputs.words_per_row == inputs.words_per_row - 1) {
      inputs.words[i] &= tail;
    }
  }
  return inputs;
}

poetbin::BitVector row_bits(const Inputs& inputs, std::size_t i) {
  poetbin::BitVector bits(inputs.n_bits);
  std::memcpy(bits.words(), inputs.row(i),
              inputs.words_per_row * sizeof(std::uint64_t));
  return bits;
}

poetbin::BitMatrix to_matrix(const Inputs& inputs, std::size_t begin,
                             std::size_t end) {
  const std::size_t n = end - begin;
  poetbin::BitMatrix matrix(n, inputs.n_bits);
  std::uint64_t block[64];
  for (std::size_t rb = 0; rb * 64 < n; ++rb) {
    for (std::size_t cw = 0; cw < inputs.words_per_row; ++cw) {
      for (std::size_t r = 0; r < 64; ++r) {
        const std::size_t row = rb * 64 + r;
        block[r] = row < n ? inputs.row(begin + row)[cw] : 0;
      }
      transpose64(block);
      for (std::size_t c = 0; c < 64 && cw * 64 + c < inputs.n_bits; ++c) {
        matrix.column(cw * 64 + c).words()[rb] = block[c];
      }
    }
  }
  return matrix;
}

}  // namespace perfbench
