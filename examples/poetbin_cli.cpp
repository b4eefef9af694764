// Command-line front end: train / evaluate / export a PoET-BiN classifier
// using the model serializer — the deploy loop a downstream user runs.
//
//   $ ./poetbin_cli train model.txt [digits|house_numbers|textures]
//   $ ./poetbin_cli train-conv model.txt        # conv front end + classifier
//   $ ./poetbin_cli eval model.txt  [digits|house_numbers|textures]
//                   [--threads=N]              # serving runtime options
//   $ ./poetbin_cli export model.txt out_dir
//   $ ./poetbin_cli pack model.txt model.pbm   # text -> packed binary
//   $ ./poetbin_cli unpack model.pbm model.txt # packed -> text
//   $ ./poetbin_cli serve model.txt [--port=P] [--workers=N] [--threads=N]
//                   [--watch[=ms]] [--cache-mb=N] [--no-cache]
//
// `serve` runs the network serving front end: N forked workers sharing one
// TCP port via SO_REUSEPORT, each with its own Runtime + micro-batcher.
// SIGTERM/SIGINT shut it down gracefully and print per-worker stats. With
// --watch each worker polls the model file (default every 1000 ms) and
// hot-swaps it in when its mtime or size changes; clients can also push a
// swap with a kReload frame either way. Each worker fronts its model with a
// lock-free prediction cache (serve/predict_cache.h, default 8 MiB) — hits
// are bit-identical and every reload/retrain invalidates by epoch; size it
// with --cache-mb=N or turn it off with --no-cache.
//
// `pack`/`unpack` convert between the text format and the compact packed
// binary format (core/packed_model.h); both accept either format as input
// (sniffed by magic), so `pack packed.pbm other.pbm` is a byte-identical
// re-pack. `eval` and `serve` likewise accept either format. Convolutional
// models (from `train-conv`) flow through pack/unpack/serve unchanged — the
// conv layer rides the same file and the serving runtime runs the fused
// bitsliced conv + classifier argmax per request.
//
// Common flags: --scale=<f> scales the dataset/teacher preset (default
// 0.5; CI smoke uses smaller) — eval regenerates the dataset, so pass the
// SAME --scale at train and eval time. `eval` loads the saved model into a
// poetbin::Runtime (persistent engine + fused bitsliced argmax) and times
// the pass; --threads=1 runs it inline on the calling thread (no pool).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/batch_eval.h"
#include "core/packed_model.h"
#include "core/pipeline.h"
#include "core/rinc_conv.h"
#include "core/serialize.h"
#include "hw/netlist_builder.h"
#include "hw/netlist_opt.h"
#include "hw/verilog.h"
#include "hw/vhdl.h"
#include "serve/net_server.h"
#include "serve/runtime.h"
#include "util/bit_matrix.h"
#include "util/rng.h"
#include "util/word_backend.h"

using namespace poetbin;

namespace {

SyntheticFamily parse_family(const char* name) {
  if (std::strcmp(name, "textures") == 0) return SyntheticFamily::kTextures;
  if (std::strcmp(name, "house_numbers") == 0) {
    return SyntheticFamily::kHouseNumbers;
  }
  return SyntheticFamily::kDigits;
}

PipelineConfig family_config(SyntheticFamily family, double scale) {
  PipelineConfig config;
  switch (family) {
    case SyntheticFamily::kTextures: config = preset_c1(scale); break;
    case SyntheticFamily::kHouseNumbers: config = preset_s1(scale); break;
    case SyntheticFamily::kDigits: default: config = preset_m1(scale); break;
  }
  // The deploy loop trains only what ships: the teacher (A3) and the
  // student (A4). A1/A2 are paper baselines.
  config.train_a1_network = false;
  config.train_a2_network = false;
  return config;
}

int cmd_train(const std::string& path, SyntheticFamily family, double scale) {
  const PipelineConfig config = family_config(family, scale);
  std::printf("training PoET-BiN on '%s'...\n", family_name(family));
  const PipelineResult result = run_pipeline(config);
  std::printf("teacher %.2f%%, PoET-BiN %.2f%%\n", 100 * result.a3,
              100 * result.a4);
  const IoStatus saved = write_model_file(result.model, path);
  if (!saved.ok()) {
    std::fprintf(stderr, "error: %s\n", saved.error().message.c_str());
    return 1;
  }
  std::printf("model saved to %s\n", path.c_str());
  return 0;
}

// Trains a convolutional PoET-BiN (paper §6): a RINC conv front end over a
// synthetic binary frame task, then the dense classifier on the conv
// outputs. The task is deliberately local — each output channel is a
// neighborhood function of the input frame and the class label reads two
// fixed pixels — so both stages have real signal to distill, and the
// reported accuracies mean something. The artifact is a conv text model
// that pack/eval/serve all accept.
int cmd_train_conv(const std::string& path, double scale) {
  const BinShape3 in_shape{1, 12, 12};
  RincConvConfig config;
  config.out_channels = 4;
  config.kernel = 3;
  config.stride = 1;
  config.padding = 1;
  config.rinc = {.lut_inputs = 4, .levels = 1, .total_dts = 4};
  const std::size_t n_classes = 4;
  const std::size_t n_train =
      std::max<std::size_t>(64, static_cast<std::size_t>(512 * scale));
  const std::size_t n_test = n_train / 2;

  const auto at = [&](std::size_t y, std::size_t x) {
    return y * in_shape.width + x;
  };
  // Per-position teacher targets: channel 0 copies the pixel, channels 1-3
  // are OR / AND / XOR over the 4-neighborhood (zero off the edge).
  const auto make_targets = [&](const BitMatrix& frames) {
    BitMatrix targets(frames.rows(),
                      config.out_channels * in_shape.height * in_shape.width);
    for (std::size_t i = 0; i < frames.rows(); ++i) {
      for (std::size_t y = 0; y < in_shape.height; ++y) {
        for (std::size_t x = 0; x < in_shape.width; ++x) {
          const bool centre = frames.get(i, at(y, x));
          const bool up = y > 0 && frames.get(i, at(y - 1, x));
          const bool down =
              y + 1 < in_shape.height && frames.get(i, at(y + 1, x));
          const bool left = x > 0 && frames.get(i, at(y, x - 1));
          const bool right =
              x + 1 < in_shape.width && frames.get(i, at(y, x + 1));
          const bool channel_bit[4] = {
              centre, up || down || left || right, up && down && left && right,
              static_cast<bool>(up ^ down ^ left ^ right)};
          const std::size_t position = y * in_shape.width + x;
          for (std::size_t c = 0; c < config.out_channels; ++c) {
            targets.set(i, c * in_shape.height * in_shape.width + position,
                        channel_bit[c]);
          }
        }
      }
    }
    return targets;
  };
  const auto label_of = [&](const BitMatrix& frames, std::size_t i) {
    return 2 * static_cast<int>(frames.get(i, at(6, 6))) +
           static_cast<int>(frames.get(i, at(2, 9)));
  };

  Rng rng(404);
  const auto random_frames = [&](std::size_t rows) {
    BitMatrix frames(rows, in_shape.flat());
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t j = 0; j < frames.cols(); ++j) {
        frames.set(i, j, (rng.next_u64() & 1) != 0);
      }
    }
    return frames;
  };
  const BitMatrix train_frames = random_frames(n_train);
  std::printf("training RINC conv front end on %zu synthetic %zux%zux%zu "
              "frames...\n",
              n_train, in_shape.channels, in_shape.height, in_shape.width);
  ConvModel model;
  model.conv = RincConvLayer::train(train_frames, in_shape,
                                    make_targets(train_frames), config);
  const BinShape3 out_shape = model.conv.output_shape();
  std::printf("conv: %zux%zux%zu -> %zux%zux%zu, %zu LUTs/position\n",
              in_shape.channels, in_shape.height, in_shape.width,
              out_shape.channels, out_shape.height, out_shape.width,
              model.conv.lut_count_per_position());

  // Classifier trains on what the conv layer actually produces, with the
  // usual per-class intermediate supervision blocks.
  const BatchEngine engine;
  const BitMatrix conv_out = model.conv.eval_dataset_batched(train_frames,
                                                             engine);
  std::vector<int> labels(n_train);
  for (std::size_t i = 0; i < n_train; ++i) {
    labels[i] = label_of(train_frames, i);
  }
  const std::size_t p = 4;
  BitMatrix intermediate(n_train, n_classes * p);
  for (std::size_t i = 0; i < n_train; ++i) {
    for (std::size_t j = 0; j < intermediate.cols(); ++j) {
      intermediate.set(i, j, labels[i] == static_cast<int>(j / p));
    }
  }
  PoetBinConfig classifier_config;
  classifier_config.rinc = {.lut_inputs = p, .levels = 1, .total_dts = 4};
  classifier_config.n_classes = n_classes;
  classifier_config.output.epochs = 10;
  model.classifier =
      PoetBin::train(conv_out, intermediate, labels, classifier_config);

  const BitMatrix test_frames = random_frames(n_test);
  const std::vector<int> predicted =
      model.predict_dataset_batched(test_frames, engine);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < n_test; ++i) {
    correct += predicted[i] == label_of(test_frames, i);
  }
  std::printf("held-out accuracy on %zu fresh frames: %.2f%%\n", n_test,
              100.0 * static_cast<double>(correct) /
                  static_cast<double>(n_test));

  const IoStatus saved = write_conv_model_file(model, path);
  if (!saved.ok()) {
    std::fprintf(stderr, "error: %s\n", saved.error().message.c_str());
    return 1;
  }
  std::printf("conv model saved to %s\n", path.c_str());
  return 0;
}

int cmd_eval(const std::string& path, SyntheticFamily family, double scale,
             std::size_t threads) {
  Runtime::LoadResult runtime = Runtime::load(path, {.threads = threads});
  if (!runtime.ok()) {
    std::fprintf(stderr, "error: %s: %s\n",
                 model_io_error_kind_name(runtime.error().kind),
                 runtime.error().message.c_str());
    return 1;
  }
  // Regenerate the family's features through a freshly trained teacher at a
  // matching scale; the saved model is evaluated on the resulting test bits.
  const PipelineResult result = run_pipeline(family_config(family, scale));
  const BitMatrix& test_features = result.test_bits.features;
  std::printf("loaded model: %zu modules, %zu LUTs\n",
              runtime->model().n_modules(), runtime->model().lut_count());

  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();
  const double accuracy =
      runtime->accuracy(test_features, result.test_bits.labels);
  const auto t1 = Clock::now();
  const double seconds = std::chrono::duration<double>(t1 - t0).count();
  std::printf("runtime (%zu threads, %s backend): ", runtime->threads(),
              word_backend_name(runtime->backend()));
  std::printf("%zu examples in %.3f ms (%.0f examples/s)\n",
              test_features.rows(), 1e3 * seconds,
              test_features.rows() / seconds);
  std::printf("accuracy on regenerated '%s' test bits: %.2f%%\n",
              family_name(family), 100 * accuracy);
  std::printf("(note: features come from a re-trained teacher at "
              "--scale=%g, so this\n"
              " measures transfer across feature extractors; pass the same "
              "--scale used\n"
              " at train time or the regenerated dataset will not match the "
              "model)\n",
              scale);
  return 0;
}

int cmd_export(const std::string& path, const std::string& out_dir) {
  const IoResult<LoadedModel> loaded = read_model_file_any(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s: %s\n",
                 model_io_error_kind_name(loaded.error().kind),
                 loaded.error().message.c_str());
    return 1;
  }
  if (loaded->conv) {
    std::fprintf(stderr,
                 "error: netlist export covers dense models only; the conv "
                 "layer's per-position module replication is not laid out "
                 "yet\n");
    return 1;
  }
  // The model's feature width is one past its highest referenced feature.
  const std::size_t n_features = loaded->model.n_features();
  // Ship what synthesis would keep: the optimized netlist, whose outputs
  // stay in the built netlist's order.
  PoetBinNetlist netlist = build_poetbin_netlist(loaded->model, n_features);
  const std::size_t raw_luts = netlist.netlist.n_luts();
  netlist.netlist = optimize_netlist(netlist.netlist);
  std::filesystem::create_directories(out_dir);
  std::ofstream(out_dir + "/poetbin_classifier.vhd") << generate_vhdl(netlist);
  std::ofstream(out_dir + "/poetbin_classifier.v") << generate_verilog(netlist);
  std::printf("exported %zu-LUT optimized netlist (%zu before optimization, "
              "%zu inputs) to %s/{.vhd,.v}\n",
              netlist.netlist.n_luts(), raw_luts, n_features, out_dir.c_str());
  return 0;
}

// Format converters. Input format is sniffed, so these also re-serialize
// same-format files (useful as a canonicalizer: both writers are
// deterministic).
int cmd_pack(const std::string& in_path, const std::string& out_path,
             bool to_packed) {
  const IoResult<LoadedModel> loaded = read_model_file_any(in_path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: %s: %s\n",
                 model_io_error_kind_name(loaded.error().kind),
                 loaded.error().message.c_str());
    return 1;
  }
  IoStatus written;
  if (loaded->conv) {
    // Conv models carry the front-end layer alongside the classifier; route
    // them through the conv writers so the layer survives the conversion.
    const ConvModel conv_model{*loaded->conv, loaded->model};
    written = to_packed ? write_packed_conv_model_file(conv_model, out_path)
                        : write_conv_model_file(conv_model, out_path);
  } else {
    written = to_packed ? write_packed_model_file(loaded->model, out_path)
                        : write_model_file(loaded->model, out_path);
  }
  if (!written.ok()) {
    std::fprintf(stderr, "error: %s\n", written.error().message.c_str());
    return 1;
  }
  std::printf("%s %s (%s) -> %s (%s)\n", to_packed ? "packed" : "unpacked",
              in_path.c_str(), model_format_name(loaded->format),
              out_path.c_str(),
              model_format_name(to_packed ? ModelFormat::kPacked
                                          : ModelFormat::kText));
  return 0;
}

}  // namespace

namespace {

// Parses the value of a `--flag=<value>` argument as a positive finite
// number; exits with a usage error on malformed input ("nan"/"inf" parse as
// doubles but would flow into float-to-size_t casts downstream, which is
// undefined behavior — reject them here).
double parse_flag_value(const char* arg, const char* value) {
  char* end = nullptr;
  const double parsed = std::strtod(value, &end);
  if (end == value || *end != '\0' || !std::isfinite(parsed) ||
      parsed <= 0.0) {
    std::fprintf(stderr, "error: bad value in '%s'\n", arg);
    std::exit(2);
  }
  return parsed;
}

// Thread counts are whole numbers: reject fractions and anything strtoul
// would quietly wrap (a double-then-cast parse would truncate 2.9 and make
// 1e300 undefined behavior).
std::size_t parse_thread_count(const char* arg, const char* value) {
  char* end = nullptr;
  const unsigned long parsed = std::strtoul(value, &end, 10);
  if (end == value || *end != '\0' || value[0] == '-') {
    std::fprintf(stderr, "error: bad thread count in '%s'\n", arg);
    std::exit(2);
  }
  return static_cast<std::size_t>(parsed);
}

}  // namespace

int main(int argc, char** argv) {
  // Peel off flags wherever they appear: --threads=N (serving runtime
  // threads) and --scale=<f> (dataset/teacher preset scale), plus the
  // serve options.
  std::size_t threads = 0;
  double scale = 0.5;
  std::size_t port = 0;
  std::size_t workers = 1;
  long watch_ms = 0;
  std::size_t cache_mb = 8;
  bool no_cache = false;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      threads = parse_thread_count(argv[i], argv[i] + 10);
      continue;
    }
    if (std::strncmp(argv[i], "--scale=", 8) == 0) {
      scale = parse_flag_value(argv[i], argv[i] + 8);
      continue;
    }
    if (std::strncmp(argv[i], "--port=", 7) == 0) {
      port = parse_thread_count(argv[i], argv[i] + 7);
      if (port > 65535) {
        std::fprintf(stderr, "error: bad port in '%s'\n", argv[i]);
        return 2;
      }
      continue;
    }
    if (std::strncmp(argv[i], "--workers=", 10) == 0) {
      workers = parse_thread_count(argv[i], argv[i] + 10);
      continue;
    }
    if (std::strncmp(argv[i], "--cache-mb=", 11) == 0) {
      cache_mb = parse_thread_count(argv[i], argv[i] + 11);
      if (cache_mb == 0) no_cache = true;
      continue;
    }
    if (std::strcmp(argv[i], "--no-cache") == 0) {
      no_cache = true;
      continue;
    }
    if (std::strncmp(argv[i], "--watch", 7) == 0 &&
        (argv[i][7] == '\0' || argv[i][7] == '=')) {
      watch_ms = argv[i][7] == '='
                     ? static_cast<long>(
                           parse_thread_count(argv[i], argv[i] + 8))
                     : 1000;
      if (watch_ms <= 0) {
        std::fprintf(stderr, "error: bad interval in '%s'\n", argv[i]);
        return 2;
      }
      continue;
    }
    args.push_back(argv[i]);
  }
  const int n_args = static_cast<int>(args.size());

  if (n_args >= 3 && std::strcmp(args[1], "train") == 0) {
    return cmd_train(args[2], parse_family(n_args > 3 ? args[3] : "digits"),
                     scale);
  }
  if (n_args >= 3 && std::strcmp(args[1], "train-conv") == 0) {
    return cmd_train_conv(args[2], scale);
  }
  if (n_args >= 3 && std::strcmp(args[1], "eval") == 0) {
    return cmd_eval(args[2], parse_family(n_args > 3 ? args[3] : "digits"),
                    scale, threads);
  }
  if (n_args >= 4 && std::strcmp(args[1], "export") == 0) {
    return cmd_export(args[2], args[3]);
  }
  if (n_args >= 4 && std::strcmp(args[1], "pack") == 0) {
    return cmd_pack(args[2], args[3], /*to_packed=*/true);
  }
  if (n_args >= 4 && std::strcmp(args[1], "unpack") == 0) {
    return cmd_pack(args[2], args[3], /*to_packed=*/false);
  }
  if (n_args >= 3 && std::strcmp(args[1], "serve") == 0) {
    ShardedServeOptions options;
    options.workers = workers < 1 ? 1 : workers;
    options.threads = threads == 0 ? 1 : threads;
    options.watch_interval = std::chrono::milliseconds(watch_ms);
    options.cache_bytes = no_cache ? 0 : cache_mb << 20;
    options.server.port = static_cast<std::uint16_t>(port);
    return run_sharded_server(args[2], options);
  }
  std::fprintf(stderr,
               "usage:\n"
               "  %s train  <model.txt> [digits|house_numbers|textures]"
               " [--scale=<f>]\n"
               "  %s train-conv <model.txt> [--scale=<f>]\n"
               "  %s eval   <model> [digits|house_numbers|textures]"
               " [--threads=N] [--scale=<f>]\n"
               "  %s export <model> <out_dir>\n"
               "  %s pack   <model> <out.pbm>\n"
               "  %s unpack <model> <out.txt>\n"
               "  %s serve  <model> [--port=P] [--workers=N]"
               " [--threads=N] [--watch[=ms]] [--cache-mb=N] [--no-cache]\n",
               argv[0], argv[0], argv[0], argv[0], argv[0], argv[0], argv[0]);
  return 2;
}
