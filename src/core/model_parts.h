// Internal to the model codecs (core/serialize.cpp, core/packed_model.cpp).
//
// A decoder turns its bytes into ModelParts and checks nothing of its own
// beyond its container's framing: it reads the config, quantizer and conv
// geometry, calls check_header, descends every module tree through
// decode_tree, and hands the parts to assemble_model. Those three hold every
// range and consistency check of a model file, once, for both formats.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "boost/mat.h"
#include "core/poetbin.h"
#include "core/rinc.h"
#include "core/rinc_conv.h"
#include "core/serialize.h"
#include "dt/lut.h"

namespace poetbin::model_io {

// Decode-failure carrier: the checks throw it while descending, and
// read_model_bytes turns it into the IoResult error arm.
struct DecodeFailure {
  ModelIoError error;
};

[[noreturn]] inline void fail(ModelIoError::Kind kind, std::string message) {
  throw DecodeFailure{{kind, std::move(message)}};
}

inline void expect(bool condition, const char* message) {
  if (!condition) fail(ModelIoError::Kind::kCorruptSection, message);
}

// A decoded model file before any cross-field check: plain parts, in the
// shapes PoetBin::from_parts and RincConvLayer::from_parts take.
struct ModelParts {
  PoetBinConfig config;              // output.quant_bits set by assemble_model
  std::uint64_t quant_bits = 0;      // the config's declared quantizer bits
  std::uint64_t quantizer_bits = 0;  // the quantizer record's own copy
  QuantizerParams quantizer;         // bits set by assemble_model
  std::vector<RincModule> modules;
  std::vector<SparseOutputNeuron> output;
  struct Conv {
    BinShape3 in_shape;
    RincConvConfig config;
    std::vector<RincModule> modules;
  };
  std::optional<Conv> conv;  // empty for a dense model
};

// The config, quantizer and conv geometry ranges. A decoder calls it before
// the header's counts size any loop or allocation.
void check_header(const ModelParts& parts);

// The trees and output layer against the header, then the model.
LoadedModel assemble_model(ModelParts parts, ModelFormat format);

// One pre-order module tree from `source`, with the per-node checks. A
// Source supplies, in file order:
//   node()          -> {is_leaf, arity or fanin}
//   leaf_input()    -> one raw leaf input index
//   table(arity)    -> a leaf's truth table
//   weight()        -> one MAT weight
//   mat_lut(mat)    -> an internal node's MAT LUT (stored or derived)
// `levels` is how many internal-node levels may still follow.
struct NodeRecord {
  bool leaf = false;
  std::size_t fanin = 0;
};

template <typename Source>
RincModule decode_tree(Source& source, std::size_t levels) {
  const NodeRecord node = source.node();
  if (node.leaf) {
    expect(node.fanin >= 1 && node.fanin <= 16, "bad leaf arity");
    std::vector<std::size_t> inputs(node.fanin);
    for (std::size_t& input : inputs) {
      const std::uint64_t index = source.leaf_input();
      expect(index <= (std::uint64_t{1} << 32),
             "leaf input feature index implausibly large");
      input = static_cast<std::size_t>(index);
    }
    return RincModule::make_leaf(
        Lut(std::move(inputs), source.table(node.fanin)));
  }
  expect(levels > 0, "module tree deeper than its RINC levels");
  expect(node.fanin >= 1 && node.fanin <= 20, "bad node fanin");
  std::vector<double> weights(node.fanin);
  for (double& weight : weights) weight = source.weight();
  MatModule mat(std::move(weights));
  Lut mat_lut = source.mat_lut(mat);
  std::vector<RincModule> children;
  children.reserve(node.fanin);
  for (std::size_t c = 0; c < node.fanin; ++c) {
    children.push_back(decode_tree(source, levels - 1));
    // make_internal aborts on mixed child levels (a builder contract).
    expect(children.back().level() == children.front().level(),
           "node children at mixed RINC levels");
  }
  return RincModule::make_internal(std::move(children), std::move(mat),
                                   std::move(mat_lut));
}

// The packed container (core/packed_model.cpp).
bool has_packed_magic(const std::uint8_t* data, std::size_t size);
ModelParts decode_packed(const std::uint8_t* data, std::size_t size,
                         PackedVerify verify);

// Every model writer's last step: `bytes` must load through
// read_model_bytes (kFull), then they replace `path` through a same-directory
// temp file and a rename, so a concurrent reader sees the complete old file
// or the complete new one.
IoStatus publish_model_file(const std::string& path, std::string_view bytes);

}  // namespace poetbin::model_io
