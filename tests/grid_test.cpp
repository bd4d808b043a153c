// Unit tests for the grid substrate: dense grids, prefix sums and
// connected components.
#include <gtest/gtest.h>

#include "grid/connected_components.h"
#include "grid/grid.h"
#include "grid/prefix_sum.h"

namespace mbf {
namespace {

TEST(GridTest, BasicAccess) {
  Grid<int> g(4, 3, 7);
  EXPECT_EQ(g.width(), 4);
  EXPECT_EQ(g.height(), 3);
  EXPECT_EQ(g.size(), 12u);
  EXPECT_EQ(g.at(2, 1), 7);
  g.at(2, 1) = 42;
  EXPECT_EQ(g.at(2, 1), 42);
  EXPECT_EQ(g.get(2, 1), 42);
  EXPECT_EQ(g.get(-1, 0, -5), -5);
  EXPECT_EQ(g.get(4, 0), 0);
}

TEST(GridTest, RowPointerMatchesAt) {
  Grid<int> g(5, 4, 0);
  g.at(3, 2) = 9;
  EXPECT_EQ(g.row(2)[3], 9);
}

TEST(GridTest, FillAndCount) {
  Grid<int> g(10, 10, 0);
  g.fill(3);
  EXPECT_EQ(g.count([](int v) { return v == 3; }), 100);
}

TEST(PrefixSumTest, FullAndPartialSums) {
  MaskGrid m(6, 5, 0);
  m.at(1, 1) = 1;
  m.at(2, 1) = 1;
  m.at(4, 3) = 1;
  const PrefixSum2D ps(m);
  EXPECT_EQ(ps.sum(0, 0, 6, 5), 3);
  EXPECT_EQ(ps.sum(1, 1, 3, 2), 2);
  EXPECT_EQ(ps.sum(4, 3, 5, 4), 1);
  EXPECT_EQ(ps.sum(0, 0, 1, 1), 0);
}

TEST(PrefixSumTest, ClampsOutOfRange) {
  MaskGrid m(4, 4, 1);
  const PrefixSum2D ps(m);
  EXPECT_EQ(ps.sum(-10, -10, 100, 100), 16);
  EXPECT_EQ(ps.sum(2, 2, 1, 1), 0);  // inverted window
}

TEST(PrefixSumTest, MatchesBruteForceOnRandomMask) {
  MaskGrid m(17, 13, 0);
  unsigned state = 12345;
  for (int y = 0; y < m.height(); ++y) {
    for (int x = 0; x < m.width(); ++x) {
      state = state * 1664525 + 1013904223;
      m.at(x, y) = (state >> 28) & 1;
    }
  }
  const PrefixSum2D ps(m);
  for (int y0 = 0; y0 < m.height(); y0 += 3) {
    for (int x0 = 0; x0 < m.width(); x0 += 3) {
      for (int y1 = y0; y1 <= m.height(); y1 += 4) {
        for (int x1 = x0; x1 <= m.width(); x1 += 4) {
          std::int64_t expected = 0;
          for (int y = y0; y < y1; ++y) {
            for (int x = x0; x < x1; ++x) expected += m.at(x, y);
          }
          EXPECT_EQ(ps.sum(x0, y0, x1, y1), expected);
        }
      }
    }
  }
}

TEST(ConnectedComponentsTest, TwoBlobs) {
  MaskGrid m(10, 10, 0);
  m.at(1, 1) = 1;
  m.at(2, 1) = 1;
  m.at(1, 2) = 1;
  m.at(7, 7) = 1;
  const ComponentLabels cl = labelComponents(m);
  ASSERT_EQ(cl.components.size(), 2u);
  EXPECT_EQ(cl.components[0].pixels + cl.components[1].pixels, 4);
  EXPECT_EQ(cl.labels.at(1, 1), cl.labels.at(2, 1));
  EXPECT_NE(cl.labels.at(1, 1), cl.labels.at(7, 7));
  EXPECT_EQ(cl.labels.at(0, 0), -1);
}

TEST(ConnectedComponentsTest, DiagonalIsNotConnected) {
  MaskGrid m(4, 4, 0);
  m.at(0, 0) = 1;
  m.at(1, 1) = 1;
  const ComponentLabels cl = labelComponents(m);
  EXPECT_EQ(cl.components.size(), 2u);
}

TEST(ConnectedComponentsTest, BboxIsTight) {
  MaskGrid m(12, 12, 0);
  for (int y = 3; y < 7; ++y) {
    for (int x = 2; x < 9; ++x) m.at(x, y) = 1;
  }
  const ComponentLabels cl = labelComponents(m);
  ASSERT_EQ(cl.components.size(), 1u);
  EXPECT_EQ(cl.components[0].bbox, Rect(2, 3, 9, 7));
  EXPECT_EQ(cl.components[0].pixels, 28);
}

TEST(ConnectedComponentsTest, EmptyMask) {
  MaskGrid m(5, 5, 0);
  EXPECT_TRUE(labelComponents(m).components.empty());
}

}  // namespace
}  // namespace mbf
