// The contract between a fuzz target and the in-tree replay runner
// (replay_main.cpp). A target defines both functions; under libFuzzer the
// target links alone and its seeds become the starting corpus.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size);

// Valid inputs to mutate from, built when the runner starts.
std::vector<std::vector<std::uint8_t>> fuzz_seeds();

// Repairs what a mutant would fail on before reaching the checks worth
// fuzzing (a checksum, say). The runner applies it to half the mutants.
void fuzz_fixup(std::vector<std::uint8_t>& input);
