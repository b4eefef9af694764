// Plain-text serialization of trained models, with typed I/O errors.
//
// A trained PoET-BiN classifier is just LUT contents and wiring — a few
// kilobytes — so a human-readable line format is both debuggable and
// diff-friendly. The format is versioned; loaders validate structure and
// return a typed ModelIoError on malformed input rather than constructing
// broken models (or aborting the process, as earlier revisions did — a
// serving worker must survive a bad model file on disk).
//
//   poetbin-model v1
//   config <P> <L> <total_dts> <n_classes> <qbits>
//   quantizer <bits> <min> <max>
//   module <index>
//     leaf <arity> <input...> <table-bits>
//     node <fanin>   ... children follow depth-first ... <mat-table-bits>
//   output <class> <bias> <weight...> <codes...>
//
// A convolutional model (core/rinc_conv.h ConvModel) prepends a conv
// section and embeds the classifier verbatim (its own header included, so
// the dense parser reads it unchanged):
//
//   poetbin-conv-model v1
//   conv <in_c> <in_h> <in_w> <out_channels> <kernel> <stride> <padding>
//   channel <index>
//     leaf/node records, depth-first (same grammar as module bodies)
//   poetbin-model v1
//   ...
//
// Training-only knobs (the per-channel RincConfig, max_train_patches) are
// not serialized — a loaded layer carries the trained modules plus the
// geometry, which is everything inference needs.
#pragma once

#include <iosfwd>
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

// Deepest RINC module tree the model loaders accept. A classifier tree may
// be no deeper than its config's declared levels, which may not exceed this
// cap; conv channel trees, whose levels are not stored, take the cap
// itself. Both loaders enforce it while descending, so a hostile file
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

void save_model(const PoetBin& model, std::ostream& out);

// Non-aborting parse: returns the model or a typed error
// (kVersionMismatch for a bad header, kCorruptSection for anything
// structurally wrong after it).
IoResult<PoetBin> read_model(std::istream& in);

// File wrappers. read_model_file adds kFileNotFound when the path cannot
// be opened; write_model_file reports kWriteFailed when it cannot be
// written or flushed.
IoResult<PoetBin> read_model_file(const std::string& path);
IoStatus write_model_file(const PoetBin& model, const std::string& path);

// Convolutional variants, same error contract: the conv geometry and every
// per-channel module are validated before construction, so corrupt bytes
// surface as typed errors, never as a from_parts abort.
void save_conv_model(const ConvModel& model, std::ostream& out);
IoResult<ConvModel> read_conv_model(std::istream& in);
IoResult<ConvModel> read_conv_model_file(const std::string& path);
IoStatus write_conv_model_file(const ConvModel& model,
                               const std::string& path);

}  // namespace poetbin
