// Model files: the text format, the typed I/O errors and the one loader.
//
// A trained PoET-BiN classifier is just LUT contents and wiring — a few
// kilobytes — so a human-readable line format is both debuggable and
// diff-friendly; core/packed_model.h describes the binary form serving
// loads. Both formats decode from memory through one entry point,
// read_model_bytes, which sniffs the packed magic or the text header, and
// read_model_file_any is one file read plus that call. Each decoder only
// turns its bytes into plain parts; serialize.cpp validates them, with the
// per-node checks core/model_parts.h runs while a decoder descends — every
// range and consistency check of either format, once, before the model is
// built — so malformed bytes come back as a typed ModelIoError, never as an
// abort or a broken model. Every writer publishes through one temp file and
// rename, and refuses bytes its own loader would reject.
//
//   poetbin-model v2
//   config <P> <L> <total_dts> <n_classes> <qbits>
//   quantizer <bits> <min> <max>
//   module <index>
//     leaf <arity> <input...> <table-bits>
//     node <fanin> <mat-table-bits>  (its fanin children follow, depth-first)
//   output <class> <bias> <module...> <weight...> <codes...>
//
// A table is 2^arity (2^fanin) '0'/'1' characters, bit 0 first: a MAT is
// stored as the LUT it folds into, like a leaf, and its Adaboost weights
// stay with training (AdaboostResult::mat). Floats are written with
// max_digits10 digits, so they read back bit-exactly. v1 files, which
// stored MAT weights, are a kVersionMismatch.
//
// A convolutional model (core/rinc_conv.h ConvModel) prepends a conv
// section and embeds the classifier verbatim, its own header included:
//
//   poetbin-conv-model v2
//   conv <in_c> <in_h> <in_w> <out_channels> <kernel> <stride> <padding>
//   channel <index>
//     leaf/node records, depth-first (same grammar as module bodies)
//   poetbin-model v2
//   ...
//
// Training-only knobs (the per-channel RincConfig, max_train_patches) are
// not serialized — a loaded layer carries the trained modules plus the
// geometry, which is everything inference needs.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <variant>

#include "core/poetbin.h"
#include "core/rinc.h"
#include "core/rinc_conv.h"
#include "util/check.h"

namespace poetbin {

// What went wrong in a model load/save. The kind is the dispatchable part
// (a rollout script retries kFileNotFound but pages on kCorruptSection);
// the message carries the human detail ("bad leaf arity", the path, ...).
struct ModelIoError {
  enum class Kind {
    kFileNotFound,       // path cannot be opened for reading
    kVersionMismatch,    // not a poetbin-model header / unsupported version
    kCorruptSection,     // structurally invalid section contents
    kWriteFailed,        // path cannot be opened/flushed for writing
    kChecksumMismatch,   // packed-file CRC does not match the payload
    kIncompatibleModel,  // valid model, but it cannot replace the one served
  };

  Kind kind = Kind::kCorruptSection;
  std::string message;
};

const char* model_io_error_kind_name(ModelIoError::Kind kind);

// Deepest RINC module tree a model file may hold. A classifier tree may be
// no deeper than its config's declared levels, which may not exceed this
// cap; conv channel trees, whose levels are not stored, take the cap
// itself. The decoders enforce it while descending, so a hostile file
// cannot recurse them off the stack.
inline constexpr std::size_t kMaxRincLevels = 8;

// expected-style carrier of a loaded T or a ModelIoError. Kept minimal on
// purpose (std::expected is C++23): value access on an error — or error
// access on a value — is a contract violation and aborts.
template <typename T>
class [[nodiscard]] IoResult {
 public:
  IoResult(T value) : state_(std::move(value)) {}
  IoResult(ModelIoError error) : state_(std::move(error)) {}

  bool ok() const { return std::holds_alternative<T>(state_); }
  explicit operator bool() const { return ok(); }

  T& value() & {
    POETBIN_CHECK_MSG(ok(), "IoResult::value() on an error result");
    return std::get<T>(state_);
  }
  const T& value() const& {
    POETBIN_CHECK_MSG(ok(), "IoResult::value() on an error result");
    return std::get<T>(state_);
  }
  T&& value() && {
    POETBIN_CHECK_MSG(ok(), "IoResult::value() on an error result");
    return std::get<T>(std::move(state_));
  }

  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }
  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }

  const ModelIoError& error() const {
    POETBIN_CHECK_MSG(!ok(), "IoResult::error() on a success result");
    return std::get<ModelIoError>(state_);
  }

 private:
  std::variant<T, ModelIoError> state_;
};

// Success-or-ModelIoError for operations with no payload (saves).
class [[nodiscard]] IoStatus {
 public:
  IoStatus() = default;  // success
  IoStatus(ModelIoError error) : failed_(true), error_(std::move(error)) {}

  bool ok() const { return !failed_; }
  explicit operator bool() const { return ok(); }

  const ModelIoError& error() const {
    POETBIN_CHECK_MSG(failed_, "IoStatus::error() on a success status");
    return error_;
  }

 private:
  bool failed_ = false;
  ModelIoError error_;
};

// Which on-disk representation a model came from (or should go to).
enum class ModelFormat {
  kText,    // this header's line format
  kPacked,  // core/packed_model.h's binary format
};

const char* model_format_name(ModelFormat format);

// How deep a packed load validates (see core/packed_model.h). Text loads
// always check everything.
enum class PackedVerify {
  kFull,           // structure + CRC
  kTrustChecksum,  // structure only
};

// A loaded model plus the format it was read in. `conv`, when non-null, is
// a convolutional front end whose flattened output feeds `model`; null
// means a dense model whose features are the wire features.
struct LoadedModel {
  PoetBin model;
  ModelFormat format = ModelFormat::kText;
  std::shared_ptr<const RincConvLayer> conv;
};

// The one model decoder: `size` bytes of a packed file (by its magic) or of
// a dense or conv text file (by its header line). kVersionMismatch for an
// unknown header or version, kChecksumMismatch for a packed CRC failure
// (kFull only), kCorruptSection for anything else malformed.
IoResult<LoadedModel> read_model_bytes(
    const void* data, std::size_t size,
    PackedVerify verify = PackedVerify::kFull);

// read_model_bytes over the whole file at `path`, read once. kFileNotFound
// when it cannot be read; decode errors carry the path in their message.
IoResult<LoadedModel> read_model_file_any(
    const std::string& path, PackedVerify verify = PackedVerify::kFull);

void save_model(const PoetBin& model, std::ostream& out);
void save_conv_model(const ConvModel& model, std::ostream& out);

// Text file writers: kWriteFailed when the path cannot be written, or when
// the model would not load back (a leaf input past the index bound, say).
IoStatus write_model_file(const PoetBin& model, const std::string& path);
IoStatus write_conv_model_file(const ConvModel& model,
                               const std::string& path);

}  // namespace poetbin
