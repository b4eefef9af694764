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
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

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
// shapes PoetBin::from_parts and RincConvLayer::from_parts take. The
// modules are root handles on one RincTree the decoder built.
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
  // A packed file's table image, which the classifier's Luts view; empty
  // (null data) for a text file.
  TableImage tables;
};

// The config, quantizer and conv geometry ranges. A decoder calls it before
// the header's counts size any loop or allocation.
void check_header(const ModelParts& parts);

// The trees and output layer against the header, then the model.
LoadedModel assemble_model(ModelParts parts, ModelFormat format);

// A leaf input index as stored, checked against the one bound both
// formats share.
inline std::size_t leaf_input(std::uint64_t index) {
  expect(index <= (std::uint64_t{1} << 32),
         "leaf input feature index implausibly large");
  return static_cast<std::size_t>(index);
}

// One pre-order module tree from `source` into `builder`, with the per-node
// checks; returns its root node. A Source supplies, in file order:
//   node()          -> {is_leaf, arity or fanin}
//   leaf(arity)     -> a leaf's Lut (inputs through leaf_input)
//   mat_lut(fanin)  -> an internal node's MAT LUT (read, or a placeholder
//                      the packed decoder places later)
// `levels` is how many internal-node levels may still follow.
struct NodeRecord {
  bool leaf = false;
  std::size_t fanin = 0;
};

template <typename Source>
std::uint32_t decode_tree(Source& source, RincTreeBuilder& builder,
                          std::size_t levels) {
  const NodeRecord node = source.node();
  if (node.leaf) {
    expect(node.fanin >= 1 && node.fanin <= 16, "bad leaf arity");
    return builder.add_leaf(source.leaf(node.fanin));
  }
  expect(levels > 0, "module tree deeper than its RINC levels");
  expect(node.fanin >= 1 && node.fanin <= kMaxMatFanin, "bad node fanin");
  const std::uint32_t index = builder.open_internal(source.mat_lut(node.fanin));
  std::uint32_t first = 0;
  for (std::size_t c = 0; c < node.fanin; ++c) {
    const std::uint32_t child = decode_tree(source, builder, levels - 1);
    if (c == 0) first = child;
    // set_child aborts on mixed child levels (a builder contract).
    expect(builder.node(child).level == builder.node(first).level,
           "node children at mixed RINC levels");
    builder.set_child(index, c, child);
  }
  builder.close_internal(index);
  return index;
}

// The packed container (core/packed_model.cpp). `data` is `size` bytes,
// 8-byte aligned, kept alive by `owner`: the loaded model's Luts view its
// leaf inputs and tables in place.
bool has_packed_magic(const std::uint8_t* data, std::size_t size);
ModelParts decode_packed(std::shared_ptr<const void> owner,
                         const std::uint8_t* data, std::size_t size,
                         PackedVerify verify);

// CRC32 (IEEE 802.3: reflected, polynomial 0xEDB88320, init and final
// xor 0xFFFFFFFF) of `size` bytes; the packed header's checksum.
std::uint32_t crc32(const std::uint8_t* data, std::size_t size);

// `n_bytes` of uninitialised storage, 64-byte aligned.
std::shared_ptr<std::uint64_t[]> aligned_bytes(std::size_t n_bytes);

// Every model writer's last step: `bytes` must load through
// read_model_bytes (kFull), then they replace `path` through a same-directory
// temp file and a rename, so a concurrent reader sees the complete old file
// or the complete new one.
IoStatus publish_model_file(const std::string& path, std::string_view bytes);

}  // namespace poetbin::model_io
