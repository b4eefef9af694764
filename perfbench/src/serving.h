// Pieces the serving workloads share with their traced replays.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "loadgen.h"
#include "trace.h"

namespace perfbench {

// The inputs one phase's requests draw from, with each one's expected class
// and its encoded predict frame.
struct KeySet {
  Inputs rows;
  std::vector<std::uint8_t> frames;
  std::size_t frame_size = 0;
  std::vector<std::uint16_t> expected;

  FrameTable table() const { return FrameTable{frames.data(), frame_size}; }
};

// One scheduled phase of open-loop traffic.
struct Phase {
  std::string name;
  double rate_rps = 0.0;
  std::shared_ptr<const KeySet> keys;
  bool from_pool = false;  // keys repeat (zipf), so the cache runs warm
  std::vector<Request> requests;
};

// Fills `runtime`'s prediction cache with four times its capacity of
// seeded random keys at the current model version, so that from then on a
// fresh key pays a miss, an insert and the eviction of a live entry, as in
// a server that has run for a while on far more distinct inputs than the
// cache holds. No real input matches one of these keys.
void fill_cache(const poetbin::Runtime& runtime, std::uint64_t seed);

// Replays the recorded low and high phases through each serving layer's
// public entry point in process (protocol, cache, micro-batcher, window
// pass, model load and reload), records a span around every call, and puts
// the per-layer metrics on the sheet. `network[i]` is what the same
// requests of `phases[i]` saw over TCP. Wrong answers in a replay count as
// failed operations.
void replay_serving_layers(const std::string& model_path,
                           const std::vector<const Phase*>& phases,
                           const std::vector<const PhaseOutcome*>& network,
                           double replay_seconds, std::uint64_t seed,
                           Tracer* tracer, Sheet* sheet);

// Times read_model_file_any and Runtime::reload on `model_path` (shared by
// every workload: each loads a packed file) and records
// core.packed_model.load_ms, serve.runtime.reload_ms and
// serve.runtime.publish_ms.
void measure_load_and_reload(const std::string& model_path, Tracer* tracer,
                             Sheet* sheet);

}  // namespace perfbench
