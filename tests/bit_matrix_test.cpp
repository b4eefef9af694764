#include "util/bit_matrix.h"

#include <gtest/gtest.h>

#include "test_util.h"
#include "util/rng.h"

namespace poetbin {
namespace {

TEST(BitMatrix, ShapeAndDefault) {
  BitMatrix m(5, 7);
  EXPECT_EQ(m.rows(), 5u);
  EXPECT_EQ(m.cols(), 7u);
  for (std::size_t r = 0; r < 5; ++r) {
    for (std::size_t c = 0; c < 7; ++c) EXPECT_FALSE(m.get(r, c));
  }
}

TEST(BitMatrix, SetGet) {
  BitMatrix m(4, 4);
  m.set(2, 3, true);
  EXPECT_TRUE(m.get(2, 3));
  EXPECT_FALSE(m.get(3, 2));
}

TEST(BitMatrix, ColumnIsFeatureMajor) {
  BitMatrix m(100, 3);
  for (std::size_t r = 0; r < 100; r += 2) m.set(r, 1, true);
  EXPECT_EQ(testing::popcount(m.column(1)), 50u);
  EXPECT_EQ(testing::popcount(m.column(0)), 0u);
}

TEST(BitMatrix, RowGathersAcrossColumns) {
  BitMatrix m(3, 5);
  m.set(1, 0, true);
  m.set(1, 4, true);
  const BitVector row = m.row(1);
  EXPECT_EQ(row.size(), 5u);
  EXPECT_TRUE(row.get(0));
  EXPECT_TRUE(row.get(4));
  EXPECT_EQ(testing::popcount(row), 2u);
}

TEST(BitMatrix, SelectRowsReordersAndDuplicates) {
  BitMatrix m(4, 2);
  m.set(0, 0, true);
  m.set(3, 1, true);
  const BitMatrix sub = m.select_rows({3, 0, 0});
  EXPECT_EQ(sub.rows(), 3u);
  EXPECT_TRUE(sub.get(0, 1));
  EXPECT_TRUE(sub.get(1, 0));
  EXPECT_TRUE(sub.get(2, 0));
  EXPECT_FALSE(sub.get(0, 0));
}

TEST(BitMatrix, AppendRow) {
  BitMatrix m(0, 3);
  m.append_row({true, false, true});
  m.append_row({false, true, false});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_TRUE(m.get(0, 0));
  EXPECT_TRUE(m.get(1, 1));
  EXPECT_TRUE(m.get(0, 2));
  EXPECT_FALSE(m.get(1, 2));
}

TEST(BitMatrix, RowColumnConsistencyProperty) {
  Rng rng(5);
  BitMatrix m(67, 13);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      m.set(r, c, rng.next_bool());
    }
  }
  for (std::size_t r = 0; r < m.rows(); ++r) {
    const BitVector row = m.row(r);
    for (std::size_t c = 0; c < m.cols(); ++c) {
      EXPECT_EQ(row.get(c), m.get(r, c));
      EXPECT_EQ(m.column(c).get(r), m.get(r, c));
    }
  }
}

}  // namespace
}  // namespace poetbin
