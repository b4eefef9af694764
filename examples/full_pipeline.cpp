// Full A1 -> A4 workflow (paper Fig. 5) on the digits family:
// train the vanilla CNN, binarise features, train the teacher with the
// nc x P binary intermediate layer, distil every intermediate neuron into a
// RINC-2 module, retrain the sparse 8-bit output layer, and report the
// accuracy at every stage plus the hardware footprint of the result.
//
//   $ ./full_pipeline            # digits (MNIST stand-in)
//   $ ./full_pipeline textures   # CIFAR-10 stand-in
//   $ ./full_pipeline house_numbers
#include <cstdio>
#include <cstring>

#include "core/pipeline.h"
#include "hw/lut_decompose.h"
#include "hw/netlist_builder.h"
#include "hw/netlist_opt.h"
#include "hw/power_model.h"
#include "serve/micro_batcher.h"
#include "serve/runtime.h"
#include "util/word_backend.h"

using namespace poetbin;

int main(int argc, char** argv) {
  SyntheticFamily family = SyntheticFamily::kDigits;
  if (argc > 1) {
    if (std::strcmp(argv[1], "textures") == 0) {
      family = SyntheticFamily::kTextures;
    } else if (std::strcmp(argv[1], "house_numbers") == 0) {
      family = SyntheticFamily::kHouseNumbers;
    } else if (std::strcmp(argv[1], "digits") != 0) {
      std::fprintf(stderr,
                   "usage: %s [digits|house_numbers|textures]\n", argv[0]);
      return 2;
    }
  }

  PipelineConfig config;
  switch (family) {
    case SyntheticFamily::kDigits: config = preset_m1(0.75); break;
    case SyntheticFamily::kHouseNumbers: config = preset_s1(0.75); break;
    case SyntheticFamily::kTextures: config = preset_c1(0.75); break;
  }
  config.verbose = true;

  std::printf("PoET-BiN full pipeline on '%s' (stand-in for %s)\n",
              family_name(family), family_paper_dataset(family));
  std::printf("P=%zu, RINC-%zu, %zu DTs per module, q=%d, %zu train / %zu "
              "test examples\n\n",
              config.poetbin.rinc.lut_inputs, config.poetbin.rinc.levels,
              config.poetbin.rinc.total_dts, config.poetbin.output.quant_bits,
              config.n_train, config.n_test);

  const PipelineResult result = run_pipeline(config);

  std::printf("\n--- accuracy per workflow stage (Fig. 5 / Table 2) ---\n");
  std::printf("  A1 vanilla network        : %6.2f%%\n", 100 * result.a1);
  std::printf("  A2 binary features        : %6.2f%%\n", 100 * result.a2);
  std::printf("  A3 teacher network        : %6.2f%%\n", 100 * result.a3);
  std::printf("  A4 PoET-BiN student       : %6.2f%%\n", 100 * result.a4);
  std::printf("  RINC/teacher bit fidelity : %6.2f%% (test)\n",
              100 * result.fidelity_test);

  const Netlist built = build_poetbin_netlist(
      result.model, result.train_bits.n_features()).netlist;
  const std::size_t raw_6luts = six_lut_count(built);
  const std::size_t kept_6luts = six_lut_count(optimize_netlist(built));
  const double removed_fraction = 1.0 - static_cast<double>(kept_6luts) /
                                            static_cast<double>(raw_6luts);
  std::printf("\n--- hardware footprint ---\n");
  std::printf("  RINC modules              : %zu\n", result.model.n_modules());
  std::printf("  LUTs (module units)       : %zu\n", result.model.lut_count());
  std::printf("  6-input LUTs (decomposed) : %zu raw, %zu after netlist "
              "optimization (%.1f%% removed)\n",
              raw_6luts, kept_6luts, 100.0 * removed_fraction);

  PoetBinHwSpec spec;
  spec.name = family_paper_dataset(family);
  spec.lut_inputs = config.poetbin.rinc.lut_inputs;
  spec.levels = config.poetbin.rinc.levels;
  spec.n_dts = config.poetbin.rinc.total_dts;
  spec.n_modules = result.model.n_modules();
  spec.qbits = config.poetbin.output.quant_bits;
  spec.clock_mhz = spec.lut_inputs <= 6 ? 100.0 : 62.5;
  spec.prune_fraction = removed_fraction;
  std::printf("  modelled latency          : %.2f ns (single cycle @ %.1f "
              "MHz)\n",
              poetbin_latency_ns(spec), spec.clock_mhz);
  std::printf("  modelled energy/inference : %.2e J\n",
              poetbin_energy_joules(spec));

  // --- serving: the trained student behind the runtime layer ---
  // One persistent engine owns the request path; concurrent single-example
  // traffic goes through a MicroBatcher, which answers a window of requests
  // per dispatch — here it serves the whole test set one submit() at a
  // time and must agree with the batch pass.
  const Runtime runtime(result.model, {});
  MicroBatcher batcher(runtime, {.max_batch = 64});
  const BitMatrix& test_features = result.test_bits.features;
  std::vector<MicroBatcher::Ticket> tickets;
  std::vector<BitVector> rows;
  rows.reserve(test_features.rows());
  tickets.reserve(test_features.rows());
  for (std::size_t i = 0; i < test_features.rows(); ++i) {
    rows.push_back(test_features.row(i));
    tickets.push_back(batcher.submit(rows.back()));
  }
  batcher.flush();
  const std::vector<int> batch_preds = runtime.predict(test_features);
  std::size_t serve_mismatches = 0;
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    if (tickets[i].get() != batch_preds[i]) ++serve_mismatches;
  }
  std::printf("\n--- serving runtime ---\n");
  std::printf("  engine                    : %zu threads, %s backend\n",
              runtime.threads(), word_backend_name(runtime.backend()));
  const ServeStats serve_stats = batcher.stats();
  std::printf("  micro-batched requests    : %llu served in %llu batches "
              "(mean fill %.1f), %zu mismatches vs batch pass %s\n",
              static_cast<unsigned long long>(serve_stats.requests),
              static_cast<unsigned long long>(serve_stats.batches),
              serve_stats.mean_window_fill(), serve_mismatches,
              serve_mismatches == 0 ? "(bit-exact)" : "(BUG!)");
  return serve_mismatches == 0 ? 0 : 1;
}
