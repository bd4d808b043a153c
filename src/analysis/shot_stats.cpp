#include "analysis/shot_stats.h"

#include <algorithm>
#include <limits>
#include <vector>

namespace mbf {

namespace {

/// Pairwise intersection area, in int64 (coordinates near +-2^31 must
/// not overflow int32 widths).
std::int64_t overlapArea(const Rect& a, const Rect& b) {
  const std::int64_t w = std::int64_t{std::min(a.x1, b.x1)} -
                         std::int64_t{std::max(a.x0, b.x0)};
  const std::int64_t h = std::int64_t{std::min(a.y1, b.y1)} -
                         std::int64_t{std::max(a.y0, b.y0)};
  return w > 0 && h > 0 ? w * h : 0;
}

/// Pairs `s` with every active shot whose x extent still reaches it,
/// dropping for good those that end at or before s.x0 (shots arrive in
/// ascending x0, so nothing later can overlap them).
std::int64_t sweepStep(const Rect& s, std::vector<Rect>& active) {
  std::int64_t overlap = 0;
  std::size_t keep = 0;
  for (const Rect& a : active) {
    if (a.x1 <= s.x0) continue;
    overlap += overlapArea(a, s);
    active[keep++] = a;
  }
  active.resize(keep);
  return overlap;
}

}  // namespace

// A row-bucketed sort-by-x sweep. Shots are bucketed by y0 into rows
// one tallest-shot high, so two shots whose y extents overlap sit in
// the same or adjacent rows. Each row is swept alone in ascending x0,
// and each pair of adjacent rows by one merged sweep that pairs shots of
// different rows only, so every pair that can overlap is visited once.
// A shot meets only the shots of its own and the neighbouring rows whose
// x extent still reaches it: near-linear for real shot lists, whose
// heights are alike; a shot list with one very tall shot (tall rows) or
// many shots over one spot can still approach the all-pairs count.
// Touching pairs contribute zero and int64 addition is
// order-independent, so the total is bitwise equal to the all-pairs
// scan (the tests pin this against the brute-force oracle).
std::int64_t pairwiseOverlapArea(std::span<const Rect> shots) {
  if (shots.size() < 2) return 0;
  std::int64_t tallest = 1;
  std::int32_t lowest = shots.front().y0;
  for (const Rect& s : shots) {
    tallest = std::max(tallest, std::int64_t{s.y1} - s.y0);
    lowest = std::min(lowest, s.y0);
  }
  struct Binned {
    std::int64_t row;
    Rect shot;
  };
  std::vector<Binned> binned;
  binned.reserve(shots.size());
  for (const Rect& s : shots) {
    binned.push_back({(std::int64_t{s.y0} - lowest) / tallest, s});
  }
  std::sort(binned.begin(), binned.end(),
            [](const Binned& a, const Binned& b) {
              return a.row != b.row ? a.row < b.row : a.shot.x0 < b.shot.x0;
            });

  std::int64_t overlap = 0;
  std::vector<Rect> active, activeNext;
  const auto rowEnd = [&](std::size_t begin) {
    std::size_t end = begin;
    while (end < binned.size() && binned[end].row == binned[begin].row) ++end;
    return end;
  };
  for (std::size_t begin = 0, end = 0; begin < binned.size(); begin = end) {
    end = rowEnd(begin);
    active.clear();
    for (std::size_t i = begin; i < end; ++i) {
      overlap += sweepStep(binned[i].shot, active);
      active.push_back(binned[i].shot);
    }
    if (end == binned.size() || binned[end].row != binned[begin].row + 1) {
      continue;
    }
    // Row r against row r + 1: merge both in x0 order, pairing each shot
    // only with the other row's active shots.
    const std::size_t nextEnd = rowEnd(end);
    active.clear();
    activeNext.clear();
    for (std::size_t i = begin, j = end; i < end || j < nextEnd;) {
      const bool fromRow =
          j == nextEnd || (i < end && binned[i].shot.x0 <= binned[j].shot.x0);
      const Rect& s = fromRow ? binned[i++].shot : binned[j++].shot;
      overlap += sweepStep(s, fromRow ? activeNext : active);
      (fromRow ? active : activeNext).push_back(s);
    }
  }
  return overlap;
}

ShotStats computeShotStats(std::span<const Rect> shots, int sliverThreshold) {
  ShotStats stats;
  stats.count = static_cast<int>(shots.size());
  if (shots.empty()) return stats;

  stats.minDimension = std::numeric_limits<int>::max();
  for (const Rect& s : shots) {
    const int small = std::min(s.width(), s.height());
    const int large = std::max(s.width(), s.height());
    stats.minDimension = std::min(stats.minDimension, small);
    stats.maxDimension = std::max(stats.maxDimension, large);
    if (small < sliverThreshold) ++stats.sliverCount;
    stats.totalShotArea += s.area();
  }
  const std::int64_t overlap = pairwiseOverlapArea(shots);
  stats.meanArea = static_cast<double>(stats.totalShotArea) / stats.count;
  stats.overlapFraction =
      stats.totalShotArea > 0
          ? static_cast<double>(overlap) / static_cast<double>(stats.totalShotArea)
          : 0.0;
  return stats;
}

}  // namespace mbf
