#include "serve/runtime.h"

#include <atomic>
#include <mutex>
#include <utility>

#include "util/check.h"

namespace poetbin {

namespace {

// A reload may not change the request/response shape out from under
// connected clients: kIncompatibleModel when the candidate is a perfectly
// valid model that just doesn't fit the slot it would replace. Widths are
// the *wire* widths — a conv candidate counts its frame bits, so a dense
// model may be hot-swapped for a conv one (and vice versa) as long as
// clients keep sending the same number of bits.
IoStatus check_compatible(const ModelVersion& serving,
                          const LoadedModel& candidate,
                          const std::string& path) {
  const std::size_t cand_features = candidate.conv != nullptr
                                        ? candidate.conv->input_shape().flat()
                                        : candidate.model.n_features();
  if (candidate.model.n_classes() != serving.n_classes() ||
      cand_features != serving.n_features()) {
    return ModelIoError{
        ModelIoError::Kind::kIncompatibleModel,
        "'" + path + "' serves " + std::to_string(cand_features) +
            " features / " + std::to_string(candidate.model.n_classes()) +
            " classes but the live model serves " +
            std::to_string(serving.n_features()) + " / " +
            std::to_string(serving.n_classes())};
  }
  return IoStatus();
}

// Single-example predict for one version: the classifier's gather
// program, or for a conv version the fused conv predict on a one-row
// matrix (the call ConvModel::predict makes, on the shared layer). That
// pass runs inline on a BatchEngine of its own, which has no pool, so it
// never contends for the Runtime's engine.
int predict_example(const ModelVersion& version,
                    const BitVector& example_bits) {
  if (version.conv == nullptr) return version.model.predict(example_bits);
  const BitVector* frame = &example_bits;
  return predict_conv_dataset(*version.conv, version.model,
                              BitMatrix::from_rows({&frame, 1}),
                              BatchEngine(1))[0];
}

}  // namespace

struct Runtime::State {
  RuntimeOptions options;
  WordBackend backend = WordBackend::kScalar64;
  std::unique_ptr<BatchEngine> engine;
  std::atomic<std::uint64_t> next_version{1};

  // The swappable model slot. Readers copy the shared_ptr under
  // current_mu; a publish swaps it under the same lock. The critical
  // sections are a refcount increment and a pointer swap.
  mutable std::mutex current_mu;
  Snapshot current;
  // Prediction cache (null when cache_bytes == 0). Its epoch is pinned to
  // the version sequence in publish().
  std::unique_ptr<PredictCache> cache;

  // Lock order: mutate_mu -> engine_mu (each optional). mutate_mu
  // serializes read-modify-write publishes (reload, retrain) so concurrent
  // mutators can't interleave their compat check and swap. engine_mu
  // serializes dataset passes on the one non-reentrant engine.
  std::mutex mutate_mu;
  mutable std::mutex engine_mu;
};

Runtime::Runtime(PoetBin model, RuntimeOptions options)
    : Runtime(std::move(model), options, ModelFormat::kText, std::string()) {}

Runtime::Runtime(ConvModel model, RuntimeOptions options)
    : Runtime(std::move(model.classifier), options, ModelFormat::kText,
              std::string(),
              std::make_shared<const RincConvLayer>(std::move(model.conv))) {}

Runtime::Runtime(PoetBin model, RuntimeOptions options, ModelFormat format,
                 std::string source_path,
                 std::shared_ptr<const RincConvLayer> conv)
    : state_(std::make_unique<State>()) {
  state_->options = options;
  state_->backend = active_word_backend();
  state_->engine = std::make_unique<BatchEngine>(options.threads);
  if (options.cache_bytes > 0) {
    state_->cache = std::make_unique<PredictCache>(
        PredictCacheOptions{.capacity_bytes = options.cache_bytes});
  }
  publish(std::move(model), format, std::move(source_path), std::move(conv));
}

Runtime::Runtime(Runtime&&) noexcept = default;
Runtime& Runtime::operator=(Runtime&&) noexcept = default;
Runtime::~Runtime() = default;

void Runtime::publish(PoetBin model, ModelFormat format,
                      std::string source_path,
                      std::shared_ptr<const RincConvLayer> conv) {
  auto version = std::make_shared<const ModelVersion>(ModelVersion{
      std::move(model), state_->next_version.fetch_add(1), format,
      std::move(source_path), std::move(conv)});
  // Invalidate the cache generation BEFORE the slot store: any reader that
  // can see the new model already sees the new epoch, so a probe can never
  // resurrect an old version's answer after the swap.
  if (state_->cache != nullptr) {
    state_->cache->set_epoch(version->version);
  }
  // The swap under current_mu is the RCU publish point: the unlock
  // releases the fully-built ModelVersion AND the cache set_epoch sequenced
  // above to any snapshot() that takes the lock after it, and the one lock
  // totally orders publishes with each other and with every snapshot,
  // which is what lets hot_reload_test assert per-thread tag monotonicity.
  // Writers are serialized by mutate_mu. The old version is released after
  // the unlock, so its teardown never holds readers up.
  {
    std::lock_guard<std::mutex> lock(state_->current_mu);
    state_->current.swap(version);
  }
}

Runtime Runtime::train(const BitMatrix& features,
                       const BitMatrix& intermediate_targets,
                       const std::vector<int>& labels,
                       const PoetBinConfig& config, RuntimeOptions options) {
  return Runtime(PoetBin::train(features, intermediate_targets, labels, config),
                 options);
}

Runtime::LoadResult Runtime::load(const std::string& path,
                                  RuntimeOptions options) {
  IoResult<LoadedModel> loaded =
      read_model_file_any(path, PackedVerify::kTrustChecksum);
  if (!loaded.ok()) return loaded.error();
  return Runtime(std::move(loaded->model), options, loaded->format, path,
                 std::move(loaded->conv));
}

IoStatus Runtime::save(const std::string& path) const {
  const Snapshot snap = snapshot();
  if (snap->conv != nullptr) {
    return write_conv_model_file(ConvModel{*snap->conv, snap->model}, path);
  }
  return write_model_file(snap->model, path);
}

IoStatus Runtime::save_packed(const std::string& path) const {
  const Snapshot snap = snapshot();
  if (snap->conv != nullptr) {
    return write_packed_conv_model_file(ConvModel{*snap->conv, snap->model},
                                        path);
  }
  return write_packed_model_file(snap->model, path);
}

Runtime::Snapshot Runtime::snapshot() const {
  // The RCU read side, pairing with publish()'s swap: taking current_mu
  // makes the pointed-to ModelVersion (and the cache epoch bumped before
  // the publish) visible. The returned shared_ptr then pins the version
  // for the request's lifetime.
  std::lock_guard<std::mutex> lock(state_->current_mu);
  return state_->current;
}

const PoetBin& Runtime::model() const { return snapshot()->model; }
std::uint64_t Runtime::model_version() const { return snapshot()->version; }
ModelFormat Runtime::model_format() const { return snapshot()->format; }
std::string Runtime::source_path() const { return snapshot()->source_path; }

const RuntimeOptions& Runtime::options() const { return state_->options; }
const BatchEngine& Runtime::engine() const { return *state_->engine; }
std::size_t Runtime::threads() const { return state_->engine->n_threads(); }
WordBackend Runtime::backend() const { return state_->backend; }

IoStatus Runtime::reload() {
  const std::string path = snapshot()->source_path;
  if (path.empty()) {
    return ModelIoError{
        ModelIoError::Kind::kFileNotFound,
        "runtime has no recorded model path to reload from (the model was "
        "trained or constructed in-process)"};
  }
  return reload(path);
}

IoStatus Runtime::reload(const std::string& path) {
  std::lock_guard<std::mutex> mutate(state_->mutate_mu);
  IoResult<LoadedModel> loaded =
      read_model_file_any(path, PackedVerify::kTrustChecksum);
  if (!loaded.ok()) return loaded.error();
  const Snapshot serving = snapshot();
  IoStatus compatible = check_compatible(*serving, *loaded, path);
  if (!compatible.ok()) return compatible;
  publish(std::move(loaded->model), loaded->format, path,
          std::move(loaded->conv));
  return IoStatus();
}

std::vector<int> Runtime::predict_on(const ModelVersion& version,
                                     const BitMatrix& features) const {
  // The engine pool is not re-entrant: dataset passes from concurrent
  // callers (and from mutators) queue here instead of aborting.
  std::lock_guard<std::mutex> lock(state_->engine_mu);
  // A conv version runs the fused conv predict: each word chunk's conv
  // output feeds the classifier's argmax directly.
  if (version.conv != nullptr) {
    return predict_conv_dataset(*version.conv, version.model, features,
                                *state_->engine);
  }
  return state_->engine->predict_dataset(version.model, features);
}

std::vector<int> Runtime::predict(const BitMatrix& features) const {
  const Snapshot snap = snapshot();
  return predict_on(*snap, features);
}

std::vector<int> Runtime::predict_snapshot(const Snapshot& snap,
                                           const BitMatrix& features) const {
  POETBIN_CHECK_MSG(snap != nullptr, "predict_snapshot() on a null snapshot");
  return predict_on(*snap, features);
}

double Runtime::accuracy(const BitMatrix& features,
                         const std::vector<int>& labels) const {
  return prediction_accuracy(predict(features), labels);
}

BitMatrix Runtime::rinc_outputs(const BitMatrix& features) const {
  const Snapshot snap = snapshot();
  std::lock_guard<std::mutex> lock(state_->engine_mu);
  if (snap->conv != nullptr) {
    return state_->engine->rinc_outputs(
        snap->model, snap->conv->eval_dataset_batched(features,
                                                      *state_->engine));
  }
  return state_->engine->rinc_outputs(snap->model, features);
}

int Runtime::predict_one(const BitVector& example_bits) const {
  PredictCache* cache = state_->cache.get();
  if (cache == nullptr) return predict_example(*snapshot(), example_bits);
  // The cache keys on the raw request bits, so for conv versions a hit
  // skips the whole conv + classifier pass.
  const PredictCache::Key key = PredictCache::make_key(example_bits);
  int prediction = 0;
  if (cache->probe(key, &prediction)) return prediction;
  // Tag the insert with the version of the snapshot that computed it: a
  // reload between the predict and the insert leaves the entry stale
  // (harmless) instead of labeling an old answer as current (wrong).
  const Snapshot snap = snapshot();
  prediction = predict_example(*snap, example_bits);
  cache->insert(key, prediction, snap->version);
  return prediction;
}

PredictCache* Runtime::cache() const { return state_->cache.get(); }

void Runtime::retrain_output_layer(const BitMatrix& features,
                                   const std::vector<int>& labels) {
  std::lock_guard<std::mutex> mutate(state_->mutate_mu);
  const Snapshot serving = snapshot();
  // Retrain a copy off to the side; readers keep serving the old weights
  // until the publish below.
  PoetBin next = serving->model;
  {
    std::lock_guard<std::mutex> lock(state_->engine_mu);
    // For a conv version, the classifier's inputs are conv output bits —
    // run the (shared, unchanged) conv front end over the new frames first.
    const BitMatrix* input = &features;
    BitMatrix conv_bits;
    if (serving->conv != nullptr) {
      conv_bits = serving->conv->eval_dataset_batched(features,
                                                      *state_->engine);
      input = &conv_bits;
    }
    const BitMatrix rinc_bits = state_->engine->rinc_outputs(next, *input);
    next.retrain_output_layer(rinc_bits, labels, state_->engine.get());
  }
  publish(std::move(next), serving->format, serving->source_path,
          serving->conv);
}

}  // namespace poetbin
