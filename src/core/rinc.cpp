#include "core/rinc.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace poetbin {

namespace {

// P^l with overflow guard (arities and levels are tiny).
std::size_t ipow(std::size_t base, std::size_t exponent) {
  std::size_t result = 1;
  for (std::size_t i = 0; i < exponent; ++i) {
    POETBIN_CHECK(result <= (static_cast<std::size_t>(-1) / base));
    result *= base;
  }
  return result;
}

}  // namespace

std::size_t full_rinc_lut_count(std::size_t lut_inputs, std::size_t levels) {
  // sum_{l=0..L} P^l
  std::size_t total = 0;
  for (std::size_t l = 0; l <= levels; ++l) total += ipow(lut_inputs, l);
  return total;
}

// --- the tree ---------------------------------------------------------------

RincModule::RincModule(const RincModule& other)
    : owner_(other.owner_),
      tree_(other.tree_),
      node_(other.node_),
      train_error_(other.train_error_) {
  if (owner_ == nullptr && tree_ != nullptr) owner_ = tree_->shared_from_this();
}

RincModule& RincModule::operator=(const RincModule& other) {
  if (this != &other) *this = RincModule(other);
  return *this;
}

RincTreeBuilder::RincTreeBuilder(std::size_t node_hint)
    : tree_(std::make_shared<RincTree>()) {
  // Every node but a root is some node's child.
  tree_->nodes.reserve(node_hint);
  tree_->luts.reserve(node_hint);
  tree_->children.reserve(node_hint);
}

std::uint32_t RincTreeBuilder::add_leaf(Lut lut) {
  const auto index = static_cast<std::uint32_t>(tree_->nodes.size());
  tree_->nodes.push_back(
      {.fanin = static_cast<std::uint32_t>(lut.arity())});
  tree_->luts.push_back(std::move(lut));
  return index;
}

std::uint32_t RincTreeBuilder::open_internal(Lut mat_lut) {
  const std::size_t fanin = mat_lut.arity();
  POETBIN_CHECK(fanin >= 1);
  RincTree& tree = *tree_;
  const auto index = static_cast<std::uint32_t>(tree.nodes.size());
  tree.nodes.push_back(
      {.fanin = static_cast<std::uint32_t>(fanin),
       .children_at = static_cast<std::uint32_t>(tree.children.size())});
  tree.children.resize(tree.children.size() + fanin);
  tree.luts.push_back(std::move(mat_lut));
  return index;
}

void RincTreeBuilder::set_child(std::uint32_t node, std::size_t index,
                                std::uint32_t child) {
  RincTree& tree = *tree_;
  const RincTree::Node& parent = tree.nodes[node];
  POETBIN_CHECK(index < parent.fanin);
  // Its first child directly follows it in pre-order.
  POETBIN_CHECK_MSG(tree.nodes[child].level == tree.nodes[node + 1].level,
                    "RINC children must share a level");
  tree.children[parent.children_at + index] = RincModule(&tree, child);
}

void RincTreeBuilder::close_internal(std::uint32_t node) {
  RincTree& tree = *tree_;
  RincTree::Node& parent = tree.nodes[node];
  parent.size = static_cast<std::uint32_t>(tree.nodes.size() - node);
  parent.level = tree.nodes[node + 1].level + 1;  // its first child's + 1
}

std::uint32_t RincTreeBuilder::append(const RincModule& module) {
  if (module.tree_ == nullptr) return add_leaf(Lut());
  const RincTree& src = *module.tree_;
  const RincTree::Node& node = src.nodes[module.node_];
  if (node.level == 0) return add_leaf(src.luts[module.node_]);
  const std::uint32_t index = open_internal(src.luts[module.node_]);
  for (std::size_t c = 0; c < node.fanin; ++c) {
    set_child(index, c, append(src.children[node.children_at + c]));
  }
  close_internal(index);
  return index;
}

RincModule RincTreeBuilder::module(std::uint32_t node) const {
  RincModule handle(tree_.get(), node);
  handle.owner_ = tree_;
  return handle;
}

RincModule RincModule::make_leaf(Lut lut) {
  RincTreeBuilder builder(1);
  return builder.module(builder.add_leaf(std::move(lut)));
}

RincModule RincModule::make_internal(std::vector<RincModule> children,
                                     MatModule mat) {
  POETBIN_CHECK(!children.empty());
  POETBIN_CHECK(mat.arity() == children.size());
  POETBIN_CHECK_MSG(mat.arity() <= kMaxMatFanin, "MAT fanin too large");
  std::size_t n_nodes = 1;
  for (const RincModule& child : children) n_nodes += child.lut_count();
  RincTreeBuilder builder(n_nodes);
  const std::uint32_t node = builder.open_internal(
      Lut(std::vector<std::size_t>(mat.arity(), 0), mat.to_table()));
  for (std::size_t c = 0; c < children.size(); ++c) {
    builder.set_child(node, c, builder.append(children[c]));
  }
  builder.close_internal(node);
  return builder.module(node);
}

RincModule RincModule::train(const BitMatrix& features, const BitVector& targets,
                             std::span<const double> weights,
                             const RincConfig& config,
                             const BatchEngine* engine) {
  POETBIN_CHECK(config.lut_inputs >= 2);
  const std::size_t max_dts = ipow(config.lut_inputs, config.levels);
  std::size_t budget = config.total_dts == 0 ? max_dts : config.total_dts;
  POETBIN_CHECK_MSG(budget <= max_dts,
                    "total_dts exceeds P^L; increase levels or lut_inputs");
  return train_impl(features, targets, weights, config, config.levels, budget,
                    engine);
}

RincModule RincModule::train_impl(const BitMatrix& features,
                                  const BitVector& targets,
                                  std::span<const double> weights,
                                  const RincConfig& config, std::size_t level,
                                  std::size_t dt_budget,
                                  const BatchEngine* engine) {
  if (level == 0) {
    LevelDtConfig dt_config;
    dt_config.n_inputs = config.lut_inputs;
    LevelDtResult fit =
        train_level_dt(features, targets, weights, dt_config, engine);
    RincModule module = make_leaf(std::move(fit.lut));
    module.train_error_ = fit.weighted_error;
    return module;
  }

  // Distribute the leaf budget over at most P children, P^(level-1) at a time.
  const std::size_t child_capacity = ipow(config.lut_inputs, level - 1);
  const std::size_t n_children = std::min(
      config.lut_inputs, (dt_budget + child_capacity - 1) / child_capacity);
  POETBIN_CHECK(n_children >= 1);

  AdaboostConfig boost_config = config.adaboost;
  boost_config.n_rounds = n_children;

  std::vector<RincModule> children;
  std::size_t remaining = dt_budget;
  auto train_weak = [&](std::span<const double> round_weights,
                        std::size_t round) -> BitVector {
    (void)round;
    const std::size_t child_budget = std::min(child_capacity, remaining);
    POETBIN_CHECK(child_budget >= 1);
    remaining -= child_budget;
    RincModule child = train_impl(features, targets, round_weights, config,
                                  level - 1, child_budget, engine);
    // The weak learner's dataset pass rides the bitsliced inference path.
    BitVector predictions = child.eval_dataset_batched(features);
    children.push_back(std::move(child));
    return predictions;
  };

  AdaboostResult boosted =
      run_adaboost(targets, train_weak, boost_config, weights);
  POETBIN_CHECK(children.size() == n_children);
  RincModule module = make_internal(std::move(children), boosted.mat);
  module.train_error_ = boosted.train_error;
  return module;
}

const Lut& RincModule::leaf_lut() const {
  POETBIN_CHECK_MSG(is_leaf(), "leaf_lut() on an internal RINC module");
  static const Lut kEmpty;
  return tree_ == nullptr ? kEmpty : tree_->luts[node_];
}

const Lut& RincModule::mat_lut() const {
  POETBIN_CHECK_MSG(!is_leaf(), "mat_lut() on a RINC-0 module");
  return tree_->luts[node_];
}

std::size_t RincModule::lut_count() const {
  return tree_ == nullptr ? 1 : tree_->nodes[node_].size;
}

std::size_t RincModule::leaf_dt_count() const { return leaf_luts().size(); }

// Children share a level, so every path down has level() + 1 LUTs.
std::size_t RincModule::depth_in_luts() const { return level() + 1; }

std::vector<std::size_t> RincModule::distinct_features() const {
  // Sorted and deduplicated, so the cost does not depend on how large an
  // index a (possibly hostile) loaded model holds.
  std::vector<std::size_t> out;
  for (const Lut* lut : leaf_luts()) {
    out.insert(out.end(), lut->inputs().begin(), lut->inputs().end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<const Lut*> RincModule::leaf_luts() const {
  std::vector<const Lut*> out;
  if (tree_ == nullptr) {
    out.push_back(&leaf_lut());
    return out;
  }
  // The subtree is nodes [node_, node_ + size) in pre-order.
  const std::size_t end = node_ + tree_->nodes[node_].size;
  for (std::size_t i = node_; i < end; ++i) {
    if (tree_->nodes[i].level == 0) out.push_back(&tree_->luts[i]);
  }
  return out;
}

}  // namespace poetbin
