// In-tree fuzz runner: runs a target's LLVMFuzzerTestOneInput on its seeds
// and on a fixed budget of seeded mutants, so a fuzz target runs as a
// deterministic ctest under any compiler and sanitizer (libFuzzer needs
// clang). A crash, a sanitizer report or a target's abort fails the run.
//
//   <target> [--iterations N] [--seed S]   mutate-and-replay (N = 20000)
//   <target> FILE...                        replay the given inputs only
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "fuzz/fuzz_target.h"
#include "util/rng.h"

namespace {

using Bytes = std::vector<std::uint8_t>;

// Values that sit on the bounds decoders check.
constexpr std::uint64_t kInteresting[] = {
    0,          1,          2,          7,          8,          16,
    17,         63,         64,         65,         255,        256,
    0x7FFF,     0xFFFF,     0x10000,    0x7FFFFFFF, 0xFFFFFFFF, 0x100000000,
    0x100000001, ~std::uint64_t{0}};

void overwrite(Bytes& input, std::size_t at, std::uint64_t value,
               std::size_t width) {
  for (std::size_t b = 0; b < width && at + b < input.size(); ++b) {
    input[at + b] = static_cast<std::uint8_t>(value >> (8 * b));
  }
}

// One to four random edits of `input`.
void mutate(Bytes& input, poetbin::Rng& rng) {
  const std::size_t n_edits = 1 + rng.next_index(4);
  for (std::size_t e = 0; e < n_edits; ++e) {
    if (input.empty()) {
      input.push_back(static_cast<std::uint8_t>(rng.next_u64()));
      continue;
    }
    const std::size_t at = rng.next_index(input.size());
    switch (rng.next_index(7)) {
      case 0:  // flip one bit
        input[at] ^= static_cast<std::uint8_t>(1u << rng.next_index(8));
        break;
      case 1:  // one random byte
        input[at] = static_cast<std::uint8_t>(rng.next_u64());
        break;
      case 2:  // an interesting u32, at a 4-byte-aligned offset
        overwrite(input, at & ~std::size_t{3},
                  kInteresting[rng.next_index(std::size(kInteresting))], 4);
        break;
      case 3:  // an interesting u64, at an 8-byte-aligned offset
        overwrite(input, at & ~std::size_t{7},
                  kInteresting[rng.next_index(std::size(kInteresting))], 8);
        break;
      case 4:  // truncate
        input.resize(at);
        break;
      case 5: {  // erase a short run
        const std::size_t n = std::min(input.size() - at,
                                       1 + rng.next_index(16));
        input.erase(input.begin() + static_cast<std::ptrdiff_t>(at),
                    input.begin() + static_cast<std::ptrdiff_t>(at + n));
        break;
      }
      default: {  // duplicate a short run in place
        const std::size_t n = std::min(input.size() - at,
                                       1 + rng.next_index(16));
        const Bytes run(input.begin() + static_cast<std::ptrdiff_t>(at),
                        input.begin() + static_cast<std::ptrdiff_t>(at + n));
        input.insert(input.begin() + static_cast<std::ptrdiff_t>(at),
                     run.begin(), run.end());
        break;
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t iterations = 20000;
  std::uint64_t seed = 1;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--iterations" && i + 1 < argc) {
      iterations = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else {
      files.push_back(arg);
    }
  }

  if (!files.empty()) {
    for (const std::string& file : files) {
      std::ifstream in(file, std::ios::binary);
      if (!in) {
        std::fprintf(stderr, "cannot read %s\n", file.c_str());
        return 1;
      }
      const Bytes input{std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>()};
      LLVMFuzzerTestOneInput(input.data(), input.size());
    }
    std::printf("replayed %zu inputs\n", files.size());
    return 0;
  }

  // Printed first, so a run that dies can be replayed.
  std::printf("mutate-and-replay: %zu mutants, --seed %llu\n", iterations,
              static_cast<unsigned long long>(seed));
  std::fflush(stdout);
  const std::vector<Bytes> seeds = fuzz_seeds();
  for (const Bytes& input : seeds) {
    LLVMFuzzerTestOneInput(input.data(), input.size());
  }
  poetbin::Rng rng(seed);
  for (std::size_t i = 0; i < iterations; ++i) {
    Bytes input = seeds[rng.next_index(seeds.size())];
    mutate(input, rng);
    if (rng.next_bool()) fuzz_fixup(input);
    LLVMFuzzerTestOneInput(input.data(), input.size());
  }
  std::printf("%zu seeds, %zu mutants: no crash\n", seeds.size(),
              iterations);
  return 0;
}
