// Backend dispatch and cross-backend bit-identity.
//
// Every available backend (scalar64 always; avx2/avx512 when the build and
// CPU support them) must produce results bit-identical to the scalar64
// reference on ragged dataset sizes, and the fused output-layer argmax must
// match predict_dataset exactly, ties included. Tests that switch the
// active backend restore it on exit.
#include "util/word_backend.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/batch_eval.h"
#include "core/poetbin.h"
#include "core/rinc.h"
#include "dt/lut.h"
#include "nn/quantize.h"
#include "reference/scalar_reference.h"
#include "test_util.h"
#include "util/aligned_vector.h"
#include "util/bitvector.h"
#include "util/rng.h"

namespace poetbin {
namespace {

constexpr std::size_t kRaggedSizes[] = {1, 63, 64, 65, 129, 1000};

using testing::BackendGuard;

BitVector random_vector(std::size_t n, Rng& rng) {
  BitVector v(n);
  for (std::size_t w = 0; w < v.word_count(); ++w) {
    v.words()[w] = rng.next_u64();
  }
  v.mask_tail_word();
  return v;
}

Lut random_lut(std::size_t arity, std::size_t n_features, Rng& rng) {
  std::vector<std::size_t> inputs(arity);
  for (auto& input : inputs) input = rng.next_index(n_features);
  BitVector table(std::size_t{1} << arity);
  for (std::size_t a = 0; a < table.size(); ++a) table.set(a, rng.next_bool());
  return Lut(std::move(inputs), std::move(table));
}

RincModule random_rinc(std::size_t level, std::size_t fanin,
                       std::size_t n_features, Rng& rng) {
  if (level == 0) {
    return RincModule::make_leaf(random_lut(fanin, n_features, rng));
  }
  std::vector<RincModule> children;
  for (std::size_t c = 0; c < fanin; ++c) {
    children.push_back(random_rinc(level - 1, fanin, n_features, rng));
  }
  std::vector<double> alphas(fanin);
  for (auto& alpha : alphas) alpha = rng.next_double() + 0.1;
  return RincModule::make_internal(std::move(children), MatModule(alphas));
}

// nc-class model over RINC-1 modules with caller-supplied codes (or random
// 8-bit codes when `codes_for` is null).
PoetBin make_model(std::size_t n_classes, std::size_t p, Rng& rng,
                   const std::vector<std::uint32_t>* shared_codes = nullptr) {
  PoetBinConfig config;
  config.rinc.lut_inputs = p;
  config.n_classes = n_classes;
  std::vector<RincModule> modules;
  for (std::size_t m = 0; m < n_classes * p; ++m) {
    modules.push_back(random_rinc(1, p, 32, rng));
  }
  const QuantizerParams quantizer;  // 8-bit codes
  const std::size_t n_combos = std::size_t{1} << p;
  std::vector<SparseOutputNeuron> neurons(n_classes);
  for (std::size_t c = 0; c < n_classes; ++c) {
    neurons[c].input_modules.resize(p);
    neurons[c].weights.assign(p, 0.0f);
    for (std::size_t j = 0; j < p; ++j) {
      // With a shared code table the classes must also share wiring, so
      // their codes genuinely tie on every example.
      neurons[c].input_modules[j] = shared_codes != nullptr ? j : c * p + j;
    }
    if (shared_codes != nullptr) {
      neurons[c].codes = *shared_codes;
    } else {
      neurons[c].codes.resize(n_combos);
      for (std::size_t a = 0; a < n_combos; ++a) {
        neurons[c].codes[a] = rng.next_index(quantizer.levels());
      }
    }
  }
  return PoetBin::from_parts(config, std::move(modules), std::move(neurons),
                             quantizer);
}

TEST(WordBackendDispatch, Scalar64IsAlwaysAvailable) {
  EXPECT_TRUE(word_backend_available(WordBackend::kScalar64));
  const auto backends = available_word_backends();
  ASSERT_FALSE(backends.empty());
  EXPECT_EQ(backends.front(), WordBackend::kScalar64);
}

TEST(WordBackendDispatch, ActiveBackendIsAvailable) {
  EXPECT_TRUE(word_backend_available(active_word_backend()));
  EXPECT_EQ(word_ops().kind, active_word_backend());
}

TEST(WordBackendDispatch, SetBackendSwitchesAndGuardRestores) {
  const WordBackend before = active_word_backend();
  {
    BackendGuard guard;
    for (const auto backend : available_word_backends()) {
      set_word_backend(backend);
      EXPECT_EQ(active_word_backend(), backend);
    }
  }
  EXPECT_EQ(active_word_backend(), before);
}

TEST(WordBackendDispatch, NameParsing) {
  EXPECT_EQ(word_backend_from_name("scalar64"), WordBackend::kScalar64);
  EXPECT_EQ(word_backend_from_name("scalar"), WordBackend::kScalar64);
  EXPECT_EQ(word_backend_from_name("AVX2"), WordBackend::kAvx2);
  EXPECT_EQ(word_backend_from_name("avx512"), WordBackend::kAvx512);
  EXPECT_EQ(word_backend_from_name("AVX-512"), WordBackend::kAvx512);
  EXPECT_EQ(word_backend_from_name("neon"), WordBackend::kNeon);
  EXPECT_EQ(word_backend_from_name("ASIMD"), WordBackend::kNeon);
  EXPECT_EQ(word_backend_from_name("sse2"), std::nullopt);
  EXPECT_EQ(word_backend_from_name(""), std::nullopt);
  for (const auto backend : available_word_backends()) {
    EXPECT_EQ(word_backend_from_name(word_backend_name(backend)), backend);
  }
}

TEST(WordBackendOps, BitVectorOpsBitIdenticalAcrossBackends) {
  BackendGuard guard;
  Rng rng(71);
  for (const std::size_t n : kRaggedSizes) {
    const BitVector a = random_vector(n, rng);
    const BitVector b = random_vector(n, rng);
    set_word_backend(WordBackend::kScalar64);
    BitVector ref_xor;
    a.xor_into(b, ref_xor);
    const std::size_t ref_ham = a.hamming(b);
    EXPECT_EQ(ref_ham, testing::popcount(ref_xor)) << "n=" << n;
    for (const auto backend : available_word_backends()) {
      set_word_backend(backend);
      BitVector got_xor;
      a.xor_into(b, got_xor);
      EXPECT_EQ(got_xor, ref_xor) << word_backend_name(backend) << " n=" << n;
      EXPECT_EQ(a.hamming(b), ref_ham) << word_backend_name(backend);
      EXPECT_EQ(a.xnor_popcount(b), n - ref_ham)
          << word_backend_name(backend);
    }
  }
}

// Drive the Hamming kernel directly at word granularity: ragged word
// counts around the SIMD block width and buffers spanning many blocks, so
// the AVX-512 VPOPCNTDQ body (selected at runtime on capable hosts) is
// compared against the scalar count on both its vector loop and its
// scalar remainder.
TEST(WordBackendOps, PopcountKernelsBitIdenticalAcrossBackends) {
  BackendGuard guard;
  Rng rng(77);
  for (const std::size_t n_words :
       {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{8},
        std::size_t{9}, std::size_t{17}, std::size_t{64}, std::size_t{100}}) {
    WordVec a(n_words), b(n_words);
    for (std::size_t w = 0; w < n_words; ++w) {
      a[w] = rng.next_u64();
      b[w] = rng.next_u64();
    }
    const WordOps& scalar = *word_ops_for(WordBackend::kScalar64);
    const std::size_t ref_ham =
        scalar.hamming_words(a.data(), b.data(), n_words);
    for (const auto backend : available_word_backends()) {
      const WordOps& ops = *word_ops_for(backend);
      EXPECT_EQ(ops.hamming_words(a.data(), b.data(), n_words), ref_ham)
          << word_backend_name(backend) << " n_words=" << n_words;
    }
  }
  // All-ones / all-zeros corners: exact totals, not just scalar agreement.
  WordVec ones(33, ~0ULL), zeros(33, 0ULL);
  for (const auto backend : available_word_backends()) {
    const WordOps& ops = *word_ops_for(backend);
    EXPECT_EQ(ops.hamming_words(ones.data(), zeros.data(), 33), 33u * 64u);
    EXPECT_EQ(ops.hamming_words(ones.data(), ones.data(), 33), 0u);
  }
}

TEST(WordBackendOps, LutEvalBitIdenticalAcrossBackends) {
  BackendGuard guard;
  Rng rng(73);
  // Every arity up to 6 is its own unrolled subtree; 7 and up fold 64-entry
  // subtrees through the level stack (12 is bench_model_load's leaf arity;
  // 16 and 20 are the packed leaf and MAT-fanin caps, the first to stack
  // past depth 6 and to index table bytes at high subtree offsets).
  for (const std::size_t arity : {0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 16, 20}) {
    for (const std::size_t n : kRaggedSizes) {
      const BitMatrix features = testing::random_bits(n, 32, rng.next_u64());
      const Lut lut = random_lut(arity, features.cols(), rng);
      // The column-scan oracle never touches the word backend.
      const BitVector want = reference::eval_dataset(lut, features);
      const RincModule leaf = RincModule::make_leaf(lut);
      for (const auto backend : available_word_backends()) {
        set_word_backend(backend);
        EXPECT_EQ(leaf.eval_dataset_batched(features), want)
            << word_backend_name(backend) << " arity=" << arity << " n=" << n;
      }
    }
  }
}

// Direct kernel calls on tables that pin every bottom-level entry-pair code
// (e0 | e1 << 1) of the folded reduction: all-zero (code 0), ~x0 (1), x0
// (2), all-one (3), and a random table that mixes them. The word counts
// give odd block counts at every backend width (the two-block loop plus a
// lone block) and ragged tails, the last word holds a partial row count,
// and the columns are rebased (word_begin != base).
TEST(WordBackendOps, LutReducePairCodesMatchReference) {
  Rng rng(89);
  constexpr std::size_t kBase = 2;
  constexpr std::size_t kBegin = 5;
  constexpr std::size_t kCols = 24;
  const char* const kPatterns[] = {"zero", "not_x0", "x0", "one", "random"};
  for (const std::size_t n_words :
       {std::size_t{1}, std::size_t{3}, std::size_t{8}, std::size_t{9},
        std::size_t{24}, std::size_t{29}, std::size_t{43}}) {
    const std::size_t word_end = kBegin + n_words;
    const std::size_t n_rows = 64 * word_end - 13;
    const BitMatrix features = testing::random_bits(n_rows, kCols, n_words);
    for (const std::size_t arity : {1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 20}) {
      std::vector<std::size_t> inputs(arity);
      for (auto& input : inputs) input = rng.next_index(kCols);
      std::vector<const std::uint64_t*> columns(arity);
      for (std::size_t j = 0; j < arity; ++j) {
        columns[j] = features.column_words(inputs[j]).data() + kBase;
      }
      for (std::size_t pattern = 0; pattern < 5; ++pattern) {
        BitVector table(std::size_t{1} << arity);
        for (std::size_t a = 0; a < table.size(); ++a) {
          const bool x0 = (a & 1) != 0;
          const bool fixed[] = {false, !x0, x0, true};
          table.set(a, pattern < 4 ? fixed[pattern] : rng.next_bool());
        }
        const BitVector want =
            reference::eval_dataset(Lut(inputs, table), features);
        for (const auto backend : available_word_backends()) {
          WordVec out(n_words, 0xA5A5A5A5A5A5A5A5ULL);
          word_ops_for(backend)->lut_reduce(table.words(), arity,
                                            columns.data(), kBase, kBegin,
                                            word_end, out.data());
          // The oracle masks the bits past n_rows; the kernel does not.
          out[n_words - 1] &= ~0ULL >> 13;
          for (std::size_t i = 0; i < n_words; ++i) {
            ASSERT_EQ(out[i], want.words()[kBegin + i])
                << word_backend_name(backend) << " arity=" << arity
                << " table=" << kPatterns[pattern] << " n_words=" << n_words
                << " word=" << i;
          }
        }
      }
    }
  }
}

TEST(WordBackendOps, RincEvalBitIdenticalAcrossBackends) {
  BackendGuard guard;
  Rng rng(79);
  for (const std::size_t n : kRaggedSizes) {
    const BitMatrix features = testing::random_bits(n, 40, rng.next_u64());
    const RincModule module = random_rinc(2, 4, features.cols(), rng);
    const BitVector want = reference::eval_dataset(module, features);
    for (const auto backend : available_word_backends()) {
      set_word_backend(backend);
      EXPECT_EQ(module.eval_dataset_batched(features), want)
          << word_backend_name(backend) << " n=" << n;
    }
  }
}

TEST(WordBackendOps, ScaleByMaskExactAcrossBackends) {
  // Elementwise multiplies must be IEEE-exact at any vector width: every
  // backend produces the same doubles, bit for bit.
  BackendGuard guard;
  Rng rng(83);
  for (const std::size_t n : kRaggedSizes) {
    const BitVector bits = random_vector(n, rng);
    std::vector<double> initial(n);
    for (auto& w : initial) w = rng.next_double() + 1e-3;
    const double f0 = 0.8705505632961241;   // exp(-alpha)-like values
    const double f1 = 1.1487038401803204;
    std::vector<double> reference = initial;
    set_word_backend(WordBackend::kScalar64);
    word_ops().scale_by_mask(bits.words(), n, f0, f1, reference.data());
    for (const auto backend : available_word_backends()) {
      set_word_backend(backend);
      std::vector<double> weights = initial;
      word_ops().scale_by_mask(bits.words(), n, f0, f1, weights.data());
      EXPECT_EQ(weights, reference) << word_backend_name(backend) << " n=" << n;
    }
  }
}

TEST(WordBackendOps, GatherBitsBitIdenticalAcrossBackends) {
  // Each backend's table entry is called directly (on AVX-512 hosts with
  // VBMI + BITALG that is the vpermb + vpshufbitqmb body), on sources on
  // both sides of its two-register (128-byte) path. The source vector is
  // exactly src_bytes long, so a read past it shows under ASan.
  Rng rng(77);
  for (const std::size_t src_bytes : {1u, 7u, 64u, 65u, 128u, 129u, 300u}) {
    for (const std::size_t n_groups : {0u, 1u, 3u, 9u}) {
      std::vector<std::uint8_t> src(src_bytes);
      for (auto& byte : src) byte = static_cast<std::uint8_t>(rng.next_u64());
      std::vector<std::uint64_t> index(32 * n_groups, 0);
      std::vector<std::uint8_t> select(64 * n_groups);
      std::vector<std::uint64_t> want(n_groups, 0);
      for (std::size_t k = 0; k < select.size(); ++k) {
        const std::size_t at = rng.next_index(src_bytes);
        index[k / 2] |= std::uint64_t{at} << (32 * (k % 2));
        const std::size_t bit = rng.next_index(8);
        select[k] = static_cast<std::uint8_t>((k % 8) * 8 + bit);
        want[k / 64] |= std::uint64_t{(src[at] >> bit) & 1u} << (k % 64);
      }
      for (const auto backend : available_word_backends()) {
        std::vector<std::uint64_t> got(n_groups, ~std::uint64_t{0});
        word_ops_for(backend)->gather_bits(src.data(), src_bytes, index.data(),
                                           select.data(), n_groups,
                                           got.data());
        EXPECT_EQ(got, want) << word_backend_name(backend) << " src_bytes "
                             << src_bytes << " groups " << n_groups;
      }
    }
  }
}

TEST(WordBackendOps, LutLookupBitIdenticalAcrossBackends) {
  // Plane-major tables at every uniform arity, ragged LUT counts; address
  // bytes carry junk above the arity, which the lookup must mask.
  Rng rng(78);
  for (std::size_t arity = 1; arity <= 8; ++arity) {
    const std::size_t n_planes =
        BitVector::words_needed(std::size_t{1} << arity);
    for (const std::size_t n_luts : {1u, 7u, 8u, 9u, 63u, 64u, 65u, 200u}) {
      const std::size_t stride = (n_luts + 7) / 8 * 8;
      std::vector<std::uint64_t> planes(n_planes * stride, 0);
      for (std::size_t t = 0; t < n_luts; ++t) {
        for (std::size_t j = 0; j < n_planes; ++j) {
          planes[j * stride + t] = rng.next_u64();
        }
      }
      std::vector<std::uint8_t> address(stride);
      for (auto& byte : address) {
        byte = static_cast<std::uint8_t>(rng.next_u64());
      }
      std::vector<std::uint64_t> want((n_luts + 63) / 64, 0);
      for (std::size_t t = 0; t < n_luts; ++t) {
        const std::size_t a = address[t] & ((1u << arity) - 1);
        want[t / 64] |= ((planes[(a / 64) * stride + t] >> (a % 64)) & 1u)
                        << (t % 64);
      }
      for (const auto backend : available_word_backends()) {
        std::vector<std::uint64_t> got(want.size(), ~std::uint64_t{0});
        word_ops_for(backend)->lut_lookup(address.data(), planes.data(), arity,
                                          n_luts, got.data());
        EXPECT_EQ(got, want) << word_backend_name(backend) << " arity "
                             << arity << " luts " << n_luts;
      }
    }
  }
}

TEST(FusedArgmax, MatchesScalarPredictOnRaggedSizes) {
  BackendGuard guard;
  Rng rng(89);
  const PoetBin model = make_model(/*n_classes=*/7, /*p=*/4, rng);
  const BatchEngine inline_engine(1);
  const BatchEngine threaded_engine(3);
  for (const std::size_t n : kRaggedSizes) {
    const BitMatrix features = testing::random_bits(n, 32, 101 + n);
    const std::vector<int> want = reference::predict_dataset(model, features);
    for (const auto backend : available_word_backends()) {
      set_word_backend(backend);
      EXPECT_EQ(model.predict_dataset_batched(features, inline_engine),
                want)
          << word_backend_name(backend) << " n=" << n;
      EXPECT_EQ(model.predict_dataset_batched(features, threaded_engine),
                want)
          << word_backend_name(backend) << " threaded, n=" << n;
    }
  }
}

TEST(FusedArgmax, TieBreaksToLowestClassLikePredictDataset) {
  // All classes share one code table, so every example's codes tie across
  // all 6 classes; the scalar comparator-tree rule keeps the lowest class.
  BackendGuard guard;
  Rng rng(97);
  const std::size_t p = 4;
  std::vector<std::uint32_t> shared(std::size_t{1} << p);
  for (auto& code : shared) code = rng.next_index(256);
  const PoetBin model = make_model(/*n_classes=*/6, p, rng, &shared);
  const BitMatrix features = testing::random_bits(321, 32, 103);
  const std::vector<int> want = reference::predict_dataset(model, features);
  for (const int prediction : want) EXPECT_EQ(prediction, 0);
  const BatchEngine engine(1);
  for (const auto backend : available_word_backends()) {
    set_word_backend(backend);
    EXPECT_EQ(model.predict_dataset_batched(features, engine), want)
        << word_backend_name(backend);
  }
}

TEST(FusedArgmax, PartialTiesMatchScalar) {
  // Classes 0/1 and 2/3 are pairwise identical: winners must come from the
  // lower index of each tied pair, exactly as predict_dataset decides.
  BackendGuard guard;
  Rng rng(107);
  const std::size_t p = 4;
  const std::size_t n_combos = std::size_t{1} << p;
  PoetBinConfig config;
  config.rinc.lut_inputs = p;
  config.n_classes = 4;
  std::vector<RincModule> modules;
  for (std::size_t m = 0; m < config.n_classes * p; ++m) {
    modules.push_back(random_rinc(1, p, 32, rng));
  }
  std::vector<SparseOutputNeuron> neurons(config.n_classes);
  std::vector<std::uint32_t> codes_a(n_combos), codes_b(n_combos);
  for (auto& code : codes_a) code = rng.next_index(256);
  for (auto& code : codes_b) code = rng.next_index(256);
  for (std::size_t c = 0; c < config.n_classes; ++c) {
    neurons[c].input_modules.resize(p);
    neurons[c].weights.assign(p, 0.0f);
    // Tied pairs also share input wiring so their codes collide per example.
    const std::size_t block = (c / 2) * 2;
    for (std::size_t j = 0; j < p; ++j) {
      neurons[c].input_modules[j] = block * p + j;
    }
    neurons[c].codes = c < 2 ? codes_a : codes_b;
  }
  const PoetBin model = PoetBin::from_parts(config, std::move(modules),
                                            std::move(neurons),
                                            QuantizerParams{});
  const BitMatrix features = testing::random_bits(500, 32, 109);
  const std::vector<int> want = reference::predict_dataset(model, features);
  for (const int prediction : want) {
    EXPECT_TRUE(prediction == 0 || prediction == 2) << prediction;
  }
  const BatchEngine engine(1);
  for (const auto backend : available_word_backends()) {
    set_word_backend(backend);
    EXPECT_EQ(model.predict_dataset_batched(features, engine), want)
        << word_backend_name(backend);
  }
}

TEST(FusedArgmax, DegenerateClassCounts) {
  BackendGuard guard;
  Rng rng(113);
  const PoetBin one_class = make_model(/*n_classes=*/1, /*p=*/3, rng);
  const BitMatrix features = testing::random_bits(130, 32, 127);
  const std::vector<int> want = reference::predict_dataset(one_class, features);
  const BatchEngine engine(1);
  for (const auto backend : available_word_backends()) {
    set_word_backend(backend);
    EXPECT_EQ(one_class.predict_dataset_batched(features, engine), want)
        << word_backend_name(backend);
  }
  // Empty dataset: no predictions, no crash.
  const BitMatrix empty(0, 32);
  EXPECT_TRUE(one_class.predict_dataset_batched(empty, engine).empty());
}

TEST(FusedArgmax, AccuracyMatchesScalar) {
  BackendGuard guard;
  Rng rng(131);
  const PoetBin model = make_model(/*n_classes=*/5, /*p=*/4, rng);
  const BitMatrix features = testing::random_bits(777, 32, 137);
  std::vector<int> labels(features.rows());
  for (auto& label : labels) label = static_cast<int>(rng.next_index(5));
  const double want =
      prediction_accuracy(reference::predict_dataset(model, features), labels);
  const BatchEngine engine(2);
  for (const auto backend : available_word_backends()) {
    set_word_backend(backend);
    EXPECT_EQ(prediction_accuracy(
                  model.predict_dataset_batched(features, engine), labels),
              want)
        << word_backend_name(backend);
  }
}

}  // namespace
}  // namespace poetbin
