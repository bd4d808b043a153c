// Shot-list statistics for manufacturability review: sliver counts
// (narrow shots degrade CD control -- the concern behind Kahng et al.'s
// yield-driven fracturing, cited in paper section 1), overlap volume
// (overlap means double exposure and dose sensitivity), and size
// distribution.
#pragma once

#include <cstdint>
#include <span>

#include "geometry/rect.h"

namespace mbf {

struct ShotStats {
  int count = 0;
  /// Shots whose smaller dimension is below the sliver threshold.
  int sliverCount = 0;
  int minDimension = 0;
  int maxDimension = 0;
  double meanArea = 0.0;
  /// Sum of pairwise geometric intersection area over total shot area --
  /// 0 for a partition, grows with covering overlap.
  double overlapFraction = 0.0;
  /// Total exposed area counting multiplicity (sum of shot areas), nm^2.
  std::int64_t totalShotArea = 0;
};

ShotStats computeShotStats(std::span<const Rect> shots,
                           int sliverThreshold = 20);

/// Sum over all unordered pairs of shots of their intersection area, in
/// nm^2 (touching pairs contribute 0); exact in int64.
std::int64_t pairwiseOverlapArea(std::span<const Rect> shots);

}  // namespace mbf
