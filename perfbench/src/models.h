// Seeded models the workloads serve and predict with. They are built from
// random LUT tables rather than trained: the serving and predict paths cost
// the same for any table contents, and building takes milliseconds where
// training takes minutes.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/poetbin.h"
#include "core/rinc_conv.h"

namespace perfbench {

// Paper Table 1 M1 shape: P = 8, 10 classes x 8 modules, 512 input bits.
// The modules are full RINC-1 (8 leaf LUTs under one 8-input MAT) rather
// than the paper's RINC-2 with 32 leaves, whose 64-example window costs
// about 5 ms on one engine thread: serving would measure only the word pass.
inline constexpr std::size_t kDenseFeatures = 512;
poetbin::PoetBin make_dense_model(std::uint64_t seed);

// 4x16x16 frames into 8 channels (3x3, stride 1, padding 1), one RINC-1
// module of six 6-input leaves per channel, then a 10-class P = 6
// classifier over the 8x16x16 conv output bits.
inline const poetbin::BinShape3 kConvInput{4, 16, 16};
poetbin::ConvModel make_conv_model(std::uint64_t seed);

// Word-op floor of the bitsliced pass. A word op is one 64-bit Shannon mux
// (f0 ^ ((f0 ^ f1) & x)), the unit of WordOps::lut_reduce: a k-input LUT
// costs 2^k - 1 of them per 64 examples, and so does each output-layer code
// plane. The argmax comparator (a few ops per plane and class) is left out.
double dense_word_ops_per_example(const poetbin::PoetBin& model);
// Conv layer alone: every channel module at every output position.
double conv_word_ops_per_frame(const poetbin::RincConvLayer& layer);

}  // namespace perfbench
