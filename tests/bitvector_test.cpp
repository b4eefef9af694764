#include "util/bitvector.h"

#include <gtest/gtest.h>

#include <vector>

#include "test_util.h"
#include "util/rng.h"

namespace poetbin {
namespace {

using testing::popcount;

TEST(BitVector, StartsCleared) {
  BitVector bits(100);
  EXPECT_EQ(bits.size(), 100u);
  EXPECT_EQ(popcount(bits), 0u);
  for (std::size_t i = 0; i < bits.size(); ++i) EXPECT_FALSE(bits.get(i));
}

TEST(BitVector, FillConstructor) {
  BitVector bits(70, true);
  EXPECT_EQ(popcount(bits), 70u);
}

TEST(BitVector, SetGetRoundTrip) {
  BitVector bits(130);
  bits.set(0, true);
  bits.set(63, true);
  bits.set(64, true);
  bits.set(129, true);
  EXPECT_TRUE(bits.get(0));
  EXPECT_TRUE(bits.get(63));
  EXPECT_TRUE(bits.get(64));
  EXPECT_TRUE(bits.get(129));
  EXPECT_FALSE(bits.get(1));
  EXPECT_EQ(popcount(bits), 4u);
  bits.set(63, false);
  EXPECT_FALSE(bits.get(63));
  EXPECT_EQ(popcount(bits), 3u);
}

TEST(BitVector, TailBitsStayMasked) {
  BitVector bits(65, true);
  // Only 65 bits should count even though two words are allocated.
  EXPECT_EQ(popcount(bits), 65u);
}

// xor_into must equal the per-bit xor, size and tail included.
void expect_xor_of(const BitVector& dst, const BitVector& a,
                   const BitVector& b) {
  ASSERT_EQ(dst.size(), a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(dst.get(i), a.get(i) != b.get(i)) << "bit " << i;
  }
  EXPECT_EQ(popcount(dst), a.hamming(b));
}

TEST(BitVector, XorIntoMatchesOperatorXor) {
  Rng rng(5);
  for (const std::size_t n : {1u, 63u, 64u, 65u, 200u}) {
    BitVector a(n), b(n);
    for (std::size_t i = 0; i < n; ++i) {
      a.set(i, rng.next_bool());
      b.set(i, rng.next_bool());
    }
    BitVector dst;
    a.xor_into(b, dst);
    expect_xor_of(dst, a, b);
    // Reuse with stale larger contents must still come out exact.
    BitVector stale(512, true);
    a.xor_into(b, stale);
    expect_xor_of(stale, a, b);
  }
}

TEST(BitVector, MaskedWeightedSumMatchesScalarLoop) {
  Rng rng(6);
  for (const std::size_t n : {1u, 63u, 64u, 65u, 300u}) {
    BitVector mask(n);
    std::vector<double> weights(n);
    for (std::size_t i = 0; i < n; ++i) {
      mask.set(i, rng.next_bool());
      weights[i] = rng.next_double();
    }
    double expected = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (mask.get(i)) expected += weights[i];
    }
    // Identical accumulation order, so the comparison is exact.
    EXPECT_EQ(mask.masked_weighted_sum(weights), expected) << "n=" << n;
  }
}

TEST(BitVector, XnorPopcountMatchesDefinition) {
  Rng rng(77);
  BitVector a(150);
  BitVector b(150);
  for (std::size_t i = 0; i < 150; ++i) {
    a.set(i, rng.next_bool());
    b.set(i, rng.next_bool());
  }
  std::size_t agree = 0;
  for (std::size_t i = 0; i < 150; ++i) {
    if (a.get(i) == b.get(i)) ++agree;
  }
  EXPECT_EQ(a.xnor_popcount(b), agree);
  EXPECT_EQ(a.hamming(b), 150u - agree);
}

TEST(BitVector, XnorPopcountSelfIsSize) {
  BitVector a(77, true);
  EXPECT_EQ(a.xnor_popcount(a), 77u);
  EXPECT_EQ(a.hamming(a), 0u);
}

TEST(BitVector, ResizeGrowsWithValue) {
  BitVector bits(10);
  bits.set(9, true);
  bits.resize(80, true);
  EXPECT_TRUE(bits.get(9));
  EXPECT_TRUE(bits.get(79));
  EXPECT_EQ(popcount(bits), 71u);
  bits.resize(5);
  EXPECT_EQ(bits.size(), 5u);
  EXPECT_EQ(popcount(bits), 0u);
}

TEST(BitVector, PushBack) {
  BitVector bits;
  for (int i = 0; i < 100; ++i) bits.push_back(i % 2 == 0);
  EXPECT_EQ(bits.size(), 100u);
  EXPECT_EQ(popcount(bits), 50u);
  EXPECT_TRUE(bits.get(0));
  EXPECT_FALSE(bits.get(99));
}

TEST(BitVector, EqualityConsidersSizeAndBits) {
  BitVector a(10);
  BitVector b(10);
  EXPECT_EQ(a, b);
  b.set(4, true);
  EXPECT_FALSE(a == b);
  BitVector c(11);
  EXPECT_FALSE(a == c);
}

TEST(BitVector, ToStringOrdersBitZeroFirst) {
  BitVector bits(4);
  bits.set(0, true);
  bits.set(3, true);
  EXPECT_EQ(bits.to_string(), "1001");
}

// Property sweep: xor_into and the Hamming counts agree with the naive
// per-bit versions for many sizes straddling word boundaries.
class BitVectorPropertyTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BitVectorPropertyTest, OpsMatchNaive) {
  const std::size_t n = GetParam();
  Rng rng(n * 7919 + 1);
  BitVector a(n);
  BitVector b(n);
  std::vector<bool> na(n);
  std::vector<bool> nb(n);
  for (std::size_t i = 0; i < n; ++i) {
    na[i] = rng.next_bool();
    nb[i] = rng.next_bool();
    a.set(i, na[i]);
    b.set(i, nb[i]);
  }
  BitVector xor_bits;
  a.xor_into(b, xor_bits);
  std::size_t set_bits = 0;
  std::size_t differ = 0;
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(xor_bits.get(i), na[i] != nb[i]);
    if (na[i]) ++set_bits;
    if (na[i] != nb[i]) ++differ;
  }
  EXPECT_EQ(popcount(a), set_bits);
  EXPECT_EQ(a.hamming(b), differ);
  EXPECT_EQ(a.xnor_popcount(b), n - differ);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BitVectorPropertyTest,
                         ::testing::Values(1, 2, 31, 32, 63, 64, 65, 127, 128,
                                           129, 1000, 4096));

}  // namespace
}  // namespace poetbin
