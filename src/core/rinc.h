// RINC: Reduced Input Neural Circuit (the paper's §2.1).
//
// A RINC-0 is one level-wise DT == one P-input LUT. A RINC-l (l >= 1) boosts
// up to P RINC-(l-1) children with discrete Adaboost and combines their
// output bits in a MAT LUT (Algorithm 2's hierarchical Adaboost). A RINC-L
// therefore sees up to P^(L+1) of the binary input features while every
// internal operation — tree lookup and boosted combination alike — is a
// single LUT access.
//
// The number of leaf DTs need not be the full P^L: the paper's MNIST config
// uses 32 DTs with P=8 (4 subgroups of 8). `RincConfig::total_dts` controls
// the leaf budget; children are filled greedily P^(l-1) at a time.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "boost/adaboost.h"
#include "boost/mat.h"
#include "dt/level_dt.h"
#include "dt/lut.h"
#include "util/bit_matrix.h"
#include "util/bitvector.h"

namespace poetbin {

class BatchEngine;  // core/batch_eval.h

struct RincConfig {
  std::size_t lut_inputs = 6;  // P: LUT arity (tree depth and max MAT fanin)
  std::size_t levels = 2;      // L: 0 = bare LevelDT, 1 = one Adaboost layer...
  std::size_t total_dts = 36;  // leaf DT budget; clamped to P^L
  AdaboostConfig adaboost;     // epsilon clamping etc. (n_rounds is derived)
};

class RincModule {
 public:
  RincModule() = default;

  // Trains a RINC-`config.levels` on binary `features` against the binary
  // `targets`, starting from `weights` (empty = uniform). The weights thread
  // through the recursive Adaboost exactly as Algorithm 2 prescribes.
  // Training runs word-parallel throughout (bitsliced LevelDT scans,
  // word-parallel Adaboost loops, bitsliced weak-learner dataset passes),
  // bit-identical to the scalar trainer the tests hold it to.
  // `engine`, when non-null, parallelises the LevelDT candidate scans over
  // its thread pool (identical results at any thread count); leave it null
  // when modules are already trained in parallel, as PoetBin::train does.
  static RincModule train(const BitMatrix& features, const BitVector& targets,
                          std::span<const double> weights,
                          const RincConfig& config,
                          const BatchEngine* engine = nullptr);

  // Reconstruction from stored artefacts (deserialization, hand-built
  // modules in tests). Children must all have the same level.
  static RincModule make_leaf(Lut lut);
  static RincModule make_internal(std::vector<RincModule> children,
                                  MatModule mat);
  // Reconstruction with a prebuilt MAT LUT (the packed-model loader passes
  // the stored table, skipping the 2^fanin x fanin to_table() enumeration
  // unless it verifies fully). `mat_lut` must have fanin zero-filled inputs
  // and a 2^fanin table equal to mat.to_table() — the loader's checksum
  // covers that equality; sizes are validated here.
  static RincModule make_internal(std::vector<RincModule> children,
                                  MatModule mat, Lut mat_lut);

  bool is_leaf() const { return children_.empty(); }
  std::size_t level() const;
  std::size_t fanin() const {
    return is_leaf() ? leaf_.arity() : children_.size();
  }

  const Lut& leaf_lut() const;          // valid only for RINC-0
  const MatModule& mat() const;         // valid only for level >= 1
  const Lut& mat_lut() const;           // MAT encoded as a LUT (level >= 1)
  const std::vector<RincModule>& children() const { return children_; }

  // The module's output bit for every row of `features`: the bitsliced
  // pass (64 examples per word op, the whole hierarchy evaluated as a DAG
  // of word muxes), bit-identical to the per-example walk the tests hold it
  // to. Defined in core/batch_eval.cpp. Use a BatchEngine for the threaded
  // version.
  BitVector eval_dataset_batched(const BitMatrix& features) const;

  // --- structural queries used by the hardware model and tests ---

  // Total number of LUTs (leaf DTs + all MAT modules), before any 8->6
  // decomposition: equals (P^(L+1)-1)/(P-1) for a full tree.
  std::size_t lut_count() const;
  std::size_t leaf_dt_count() const;
  // LUT levels on the critical path (1 for RINC-0, L+1 for a full RINC-L).
  std::size_t depth_in_luts() const;
  // Distinct input features referenced anywhere in the module, ascending.
  std::vector<std::size_t> distinct_features() const;
  // Leaf LUTs in deterministic (depth-first) order.
  std::vector<const Lut*> leaf_luts() const;

  double train_error() const { return train_error_; }

 private:
  // Leaf payload (level 0).
  Lut leaf_;
  // Internal payload (level >= 1).
  std::vector<RincModule> children_;
  MatModule mat_;
  Lut mat_lut_;  // inputs() is empty (the fanins are child modules, not features)
  double train_error_ = 0.0;

  void collect_leaves(std::vector<const Lut*>& out) const;
  static RincModule train_impl(const BitMatrix& features, const BitVector& targets,
                               std::span<const double> weights,
                               const RincConfig& config, std::size_t level,
                               std::size_t dt_budget,
                               const BatchEngine* engine);
};

// Closed-form LUT count of a *full* RINC-L: (P^(L+1)-1)/(P-1), the formula
// of §2.1.3. Exposed for tests and the area model.
std::size_t full_rinc_lut_count(std::size_t lut_inputs, std::size_t levels);

}  // namespace poetbin
