#include "dt/lut.h"

#include <gtest/gtest.h>

#include "core/rinc.h"
#include "reference/scalar_reference.h"
#include "test_util.h"

namespace poetbin {
namespace {

TEST(Lut, AddressBitJComesFromInputJ) {
  // inputs = {feature 5, feature 2}: address = x5 + 2*x2.
  BitVector table(4);
  table.set(1, true);  // only x5=1, x2=0 fires
  const Lut lut({5, 2}, table);

  BitVector example(8);
  example.set(5, true);
  EXPECT_EQ(reference::lut_address(lut, example), 1u);
  EXPECT_TRUE(lut.lookup(reference::lut_address(lut, example)));
  example.set(2, true);
  EXPECT_EQ(reference::lut_address(lut, example), 3u);
  EXPECT_FALSE(lut.lookup(reference::lut_address(lut, example)));
  example.set(5, false);
  EXPECT_EQ(reference::lut_address(lut, example), 2u);
  EXPECT_FALSE(lut.lookup(reference::lut_address(lut, example)));
}

TEST(Lut, TableSizeMustMatchArity) {
  EXPECT_EQ(Lut({1, 2, 3}, BitVector(8)).table_size(), 8u);
  EXPECT_DEATH(Lut({1, 2}, BitVector(8)), "");
}

TEST(Lut, EvalDatasetMatchesPerExampleEval) {
  const BitMatrix features = testing::random_bits(97, 16, 5);
  BitVector table(16);
  Rng rng(6);
  for (std::size_t i = 0; i < 16; ++i) table.set(i, rng.next_bool());
  const Lut lut({3, 7, 11, 15}, table);

  const BitVector dataset_eval =
      RincModule::make_leaf(lut).eval_dataset_batched(features);
  for (std::size_t i = 0; i < features.rows(); ++i) {
    EXPECT_EQ(dataset_eval.get(i),
              lut.lookup(reference::lut_address(lut, features.row(i))))
        << "row " << i;
  }
}

TEST(Lut, AddressesMatchAddressOf) {
  const BitMatrix features = testing::random_bits(40, 10, 7);
  const Lut lut({0, 9, 4}, BitVector(8));
  const auto addrs = reference::lut_addresses(lut, features);
  for (std::size_t i = 0; i < features.rows(); ++i) {
    EXPECT_EQ(addrs[i], reference::lut_address(lut, features.row(i)));
  }
}

TEST(Lut, ConstantTables) {
  const BitMatrix features = testing::random_bits(20, 4, 8);
  const Lut zero({0, 1}, BitVector(4, false));
  const Lut one({0, 1}, BitVector(4, true));
  EXPECT_EQ(testing::popcount(reference::eval_dataset(zero, features)), 0u);
  EXPECT_EQ(testing::popcount(reference::eval_dataset(one, features)), 20u);
  EXPECT_EQ(RincModule::make_leaf(zero).eval_dataset_batched(features),
            reference::eval_dataset(zero, features));
  EXPECT_EQ(RincModule::make_leaf(one).eval_dataset_batched(features),
            reference::eval_dataset(one, features));
}

TEST(Lut, IdentityAndNegationOfSingleInput) {
  const BitMatrix features = testing::random_bits(64, 2, 9);
  BitVector identity(2);
  identity.set(1, true);
  BitVector negation(2);
  negation.set(0, true);
  const Lut id_lut({1}, identity);
  const Lut not_lut({1}, negation);
  const BitVector id_out =
      RincModule::make_leaf(id_lut).eval_dataset_batched(features);
  const BitVector not_out =
      RincModule::make_leaf(not_lut).eval_dataset_batched(features);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(id_out.get(i), features.get(i, 1));
    EXPECT_EQ(not_out.get(i), !features.get(i, 1));
  }
}

TEST(Lut, Equality) {
  BitVector t(2);
  t.set(0, true);
  EXPECT_EQ(Lut({4}, t), Lut({4}, t));
  BitVector t2(2);
  EXPECT_FALSE(Lut({4}, t) == Lut({4}, t2));
  EXPECT_FALSE(Lut({4}, t) == Lut({5}, t));
}

}  // namespace
}  // namespace poetbin
