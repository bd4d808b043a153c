// Tests for shot ordering (mdp/ordering.h) and shot statistics
// (analysis/shot_stats.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>

#include "analysis/shot_stats.h"
#include "mdp/ordering.h"

namespace mbf {
namespace {

std::vector<Rect> randomShots(unsigned seed, int n) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> pos(0, 500);
  std::vector<Rect> shots;
  for (int i = 0; i < n; ++i) {
    const int x = pos(rng);
    const int y = pos(rng);
    shots.push_back({x, y, x + 20, y + 20});
  }
  return shots;
}

TEST(OrderingTest, PermutationIsValid) {
  const std::vector<Rect> shots = randomShots(1, 30);
  const std::vector<std::size_t> order = orderShots(shots);
  ASSERT_EQ(order.size(), shots.size());
  std::vector<std::size_t> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);
}

TEST(OrderingTest, ImprovesRandomOrder) {
  const std::vector<Rect> shots = randomShots(2, 40);
  const double before = travelLength(shots);
  const std::vector<std::size_t> order = orderShots(shots);
  const double after = travelLength(shots, order);
  EXPECT_LT(after, before);
}

TEST(OrderingTest, TwoOptNotWorseThanGreedy) {
  const std::vector<Rect> shots = randomShots(3, 35);
  OrderingConfig greedyOnly;
  greedyOnly.twoOpt = false;
  const double greedy = travelLength(shots, orderShots(shots, greedyOnly));
  const double improved = travelLength(shots, orderShots(shots));
  EXPECT_LE(improved, greedy + 1e-9);
}

TEST(OrderingTest, GridTourNearOptimal) {
  // 5x5 grid of shots spaced 100 nm: optimal open tour = 24 hops of
  // 100 nm. Nearest neighbour + 2-opt must be close.
  std::vector<Rect> shots;
  for (int y = 0; y < 5; ++y) {
    for (int x = 0; x < 5; ++x) {
      shots.push_back({x * 100, y * 100, x * 100 + 10, y * 100 + 10});
    }
  }
  const double len = travelLength(shots, orderShots(shots));
  EXPECT_LE(len, 1.15 * 2400.0);
}

TEST(OrderingTest, EdgeCases) {
  EXPECT_TRUE(orderShots({}).empty());
  const std::vector<Rect> one{{0, 0, 10, 10}};
  EXPECT_EQ(orderShots(one).size(), 1u);
  EXPECT_DOUBLE_EQ(travelLength(one), 0.0);
}

TEST(OrderingTest, ApplyOrderReorders) {
  const std::vector<Rect> shots{{0, 0, 1, 1}, {10, 0, 11, 1}, {5, 0, 6, 1}};
  const std::vector<std::size_t> order{2, 0, 1};
  const std::vector<Rect> out = applyOrder(shots, order);
  EXPECT_EQ(out[0], shots[2]);
  EXPECT_EQ(out[1], shots[0]);
  EXPECT_EQ(out[2], shots[1]);
}

TEST(ShotStatsTest, BasicCounters) {
  const std::vector<Rect> shots{{0, 0, 100, 15}, {0, 0, 50, 50}};
  const ShotStats s = computeShotStats(shots, /*sliverThreshold=*/20);
  EXPECT_EQ(s.count, 2);
  EXPECT_EQ(s.sliverCount, 1);  // the 15-nm-tall one
  EXPECT_EQ(s.minDimension, 15);
  EXPECT_EQ(s.maxDimension, 100);
  EXPECT_EQ(s.totalShotArea, 100 * 15 + 50 * 50);
}

TEST(ShotStatsTest, OverlapFraction) {
  // Two identical shots: intersection = area, total = 2 * area -> 0.5.
  const std::vector<Rect> shots{{0, 0, 40, 40}, {0, 0, 40, 40}};
  const ShotStats s = computeShotStats(shots);
  EXPECT_DOUBLE_EQ(s.overlapFraction, 0.5);
  // Disjoint: 0.
  const std::vector<Rect> disjoint{{0, 0, 40, 40}, {100, 0, 140, 40}};
  EXPECT_DOUBLE_EQ(computeShotStats(disjoint).overlapFraction, 0.0);
}

TEST(ShotStatsTest, EmptyList) {
  const ShotStats s = computeShotStats({});
  EXPECT_EQ(s.count, 0);
  EXPECT_EQ(s.totalShotArea, 0);
}

}  // namespace
}  // namespace mbf
