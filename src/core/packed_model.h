// Versioned, 64-byte-aligned binary packed model format.
//
// The text format (core/serialize.h) is the debuggable interchange form; a
// serving fleet wants the opposite trade: a worker should read a model in
// and serve, with no text parsing. The packed format stores the classifier's
// truth tables, leaf and MAT alike, as the table image its compiled program
// reads (core/gather_program.h: TableLayout), the conv channels' tables
// after it, plus the wiring and the output layer as raw little-endian
// scalars. Everything else the program needs — gather indices and
// selectors, per-LUT records, the output layer's code bit-planes — is
// derived at load, so no stored byte is ever used as a gather index.
//
// A packed file loads through read_model_bytes / read_model_file_any
// (core/serialize.h) like a text one: one read into a 64-byte-aligned
// buffer, one validation pass (packed_model.cpp decodes the container and
// places every table; serialize.cpp runs the checks both formats share),
// and the model adopts the buffer. Its Luts view their leaf inputs and
// tables where they sit in it, its compiled program reads the same table
// image, and every copy of the model keeps the buffer alive: each table is
// held once.
//
// Load-time validation comes in two depths (PackedVerify):
//   kFull (default)  — header/section structure and CRC32 over the
//     payload. What pack/unpack tooling, the writers' own check and the
//     tests run.
//   kTrustChecksum   — structure only; skips the CRC pass, trusting the
//     producer's checksum. What serving loads (Runtime::load) run. A file
//     damaged after it was written (for example a `cp` over a file a
//     reader is loading) still fails with a typed error wherever the
//     damage breaks the structure, but damage inside a table, weight or
//     code goes undetected — push through pack (which verifies fully)
//     when that matters.
// Either way a well-formed file loads bit-identical to the same model
// loaded from text — every eval path, every backend.
//
// Layout (all integers little-endian; the format is declared LE-only and
// the codec rejects big-endian hosts rather than byte-swapping):
//
//   header (64 bytes):
//     0  char[8]  magic "PoETBiNP"
//     8  u32      format version (5; earlier versions are rejected with
//                 kVersionMismatch — re-export them with this build)
//     12 u32      header bytes (64)
//     16 u32      section count (9)
//     20 u32      CRC32 (IEEE) over file[64, file_size)
//     24 u64      file size in bytes
//     32 ...      zero reserved
//   section table (24 bytes per entry, immediately after the header):
//     u32 id, u32 reserved, u64 payload offset, u64 payload length
//   payloads: each section's offset is 64-byte aligned.
//
// Sections, each read front to back and required to be used up exactly:
// config scalars (P, levels, total DTs, classes, quantizer bits),
// quantizer, pre-order node records (u32 kind, u32 fanin), leaf input
// indices (u64, read in place as the loaded Luts' inputs), output wiring /
// weights / codes, the tables, and the conv config (input shape, output
// channels, kernel, stride, padding). A zero-length conv-config section
// means a dense model; otherwise the per-channel conv module trees follow
// the classifier trees in the same node/input sections.
//
// The tables section is the classifier's table image, then each conv
// node's table in pre-order, back to back. In the image, tables go level
// by level (leaves first) and in pre-order within a level; a level whose
// LUTs share one arity of 1..8 is plane-major — word j of its t-th table
// at j x stride + t, stride its LUT count rounded up to 8 — and any other
// level stores each table's words back to back. The loader recomputes
// that layout from the node records and requires the section to be
// exactly that long, every padding word zero and every bit past a table's
// 2^arity entries zero.
#pragma once

#include <string>

#include "core/poetbin.h"
#include "core/rinc_conv.h"
#include "core/serialize.h"

namespace poetbin {

// Writes `model` in the packed format. kWriteFailed on I/O trouble or when
// the bytes would not load back. The write is an atomic publish
// (same-directory temp file + rename): a reader racing the push reads the
// complete old file or the complete new one. Third-party pushers must
// follow the same rule; overwriting a packed file in place can hand a
// concurrent reload a torn file.
IoStatus write_packed_model_file(const PoetBin& model,
                                 const std::string& path);

// Packs a convolutional model (conv layer + classifier) in the same file,
// same contract.
IoStatus write_packed_conv_model_file(const ConvModel& model,
                                      const std::string& path);

}  // namespace poetbin
