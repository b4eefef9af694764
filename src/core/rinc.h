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
#include <cstdint>
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

struct RincTree;

// A RINC module: a handle on one node of a RincTree (below), the flat
// pre-order store its whole subtree lives in. Copies share the tree and
// keep it alive. The handles children() returns live inside the tree and
// do not own it, so walking a module costs no reference counting; copying
// one of them takes a reference like any other copy.
class RincModule {
 public:
  RincModule() = default;
  RincModule(const RincModule& other);
  RincModule(RincModule&& other) noexcept = default;
  RincModule& operator=(const RincModule& other);
  RincModule& operator=(RincModule&& other) noexcept = default;

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

  // Reconstruction from stored artefacts (hand-built modules, tests).
  // Children must all have the same level; each call copies the children's
  // nodes into one new tree (their Luts are shared, not copied).
  // make_internal keeps only `mat`'s table (the weights are training state).
  static RincModule make_leaf(Lut lut);
  static RincModule make_internal(std::vector<RincModule> children,
                                  MatModule mat);

  bool is_leaf() const;
  std::size_t level() const;
  std::size_t fanin() const;

  const Lut& leaf_lut() const;  // valid only for RINC-0
  const Lut& mat_lut() const;   // the MAT folded into a LUT (level >= 1)
  std::span<const RincModule> children() const;

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
  friend struct RincTree;
  friend class RincTreeBuilder;

  RincModule(const RincTree* tree, std::uint32_t node)
      : tree_(tree), node_(node) {}

  std::shared_ptr<const RincTree> owner_;  // null inside the tree itself
  const RincTree* tree_ = nullptr;         // null: an empty leaf
  std::uint32_t node_ = 0;
  double train_error_ = 0.0;

  static RincModule train_impl(const BitMatrix& features, const BitVector& targets,
                               std::span<const double> weights,
                               const RincConfig& config, std::size_t level,
                               std::size_t dt_budget,
                               const BatchEngine* engine);
};

// The nodes of one or more module trees, each tree in pre-order, with one
// Lut per node (a leaf's LUT or a MAT's). A packed load builds one tree
// for the whole model, whose Luts view the loaded buffer; make_leaf and
// make_internal build one per call. Immutable once its builder is done.
struct RincTree : std::enable_shared_from_this<RincTree> {
  struct Node {
    std::uint32_t fanin = 0;        // leaf arity, or MAT fanin
    std::uint32_t level = 0;        // 0 for a leaf
    std::uint32_t size = 1;         // nodes in the subtree, itself included
    std::uint32_t children_at = 0;  // internal: its first handle in children
  };
  std::vector<Node> nodes;
  std::vector<Lut> luts;             // nodes[i]'s LUT
  std::vector<RincModule> children;  // fanin handles per internal node
};

// The walks of the word passes call these per node, so they inline.
inline bool RincModule::is_leaf() const {
  return tree_ == nullptr || tree_->nodes[node_].level == 0;
}
inline std::size_t RincModule::level() const {
  return tree_ == nullptr ? 0 : tree_->nodes[node_].level;
}
inline std::size_t RincModule::fanin() const {
  return tree_ == nullptr ? 0 : tree_->nodes[node_].fanin;
}
inline std::span<const RincModule> RincModule::children() const {
  if (is_leaf()) return {};
  const RincTree::Node& node = tree_->nodes[node_];
  return {tree_->children.data() + node.children_at, node.fanin};
}

// Appends nodes to a new tree in pre-order: open an internal node, append
// its children, close it.
class RincTreeBuilder {
 public:
  explicit RincTreeBuilder(std::size_t node_hint = 0);

  std::uint32_t add_leaf(Lut lut);
  // The node's fanin is `mat_lut`'s arity. Its table may be set later
  // through lut() (the packed loader places the tables once the levels are
  // known).
  std::uint32_t open_internal(Lut mat_lut);
  // Records child `index` of internal node `node`; aborts (a builder
  // contract) unless the children share a level.
  void set_child(std::uint32_t node, std::size_t index, std::uint32_t child);
  void close_internal(std::uint32_t node);
  // A copy of `module`'s subtree, appended in pre-order.
  std::uint32_t append(const RincModule& module);

  const RincTree::Node& node(std::uint32_t index) const {
    return tree_->nodes[index];
  }
  std::size_t size() const { return tree_->nodes.size(); }
  Lut& lut(std::uint32_t index) { return tree_->luts[index]; }
  // An owning handle on `node`.
  RincModule module(std::uint32_t node) const;

 private:
  std::shared_ptr<RincTree> tree_;
};

// Closed-form LUT count of a *full* RINC-L: (P^(L+1)-1)/(P-1), the formula
// of §2.1.3. Exposed for tests and the area model.
std::size_t full_rinc_lut_count(std::size_t lut_inputs, std::size_t levels);

}  // namespace poetbin
