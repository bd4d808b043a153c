// Shot corner point extraction (paper section 3, figure 1). The simplified
// target boundary is traversed segment by segment:
//  - horizontal/vertical segments produce two corner points on the segment
//    line, pushed Lth/sqrt(2) outward along the segment so that corner
//    rounding does not clip the target corner;
//  - diagonal segments produce points spaced Lth along the segment,
//    shifted Lth/sqrt(2) perpendicular to the outside, where a shot
//    corner's rounding prints the 45-degree edge;
//  - segments shorter than Lth are skipped (covered by neighbors).
// Finally, same-type points closer than Lth are clustered.
#pragma once

#include <vector>

#include "fracture/problem.h"
#include "geometry/point.h"

namespace mbf {

enum class CornerType : std::uint8_t {
  kBottomLeft = 0,
  kBottomRight = 1,
  kTopLeft = 2,
  kTopRight = 3,
};

const char* toString(CornerType type);

struct CornerPoint {
  Vec2 pos;
  CornerType type;
};

/// Every position here is GRID-LOCAL: relative to Problem::origin(), so
/// the extraction of a shape is the same wherever the shape sits in the
/// layout. Add origin() to draw it over layout coordinates.
struct CornerExtraction {
  /// RDP output per target ring (closed, implicit wrap): [0] is the outer
  /// boundary, the rest are holes (walked clockwise, interior on the left).
  std::vector<std::vector<Vec2>> simplifiedRings;
  std::vector<CornerPoint> raw;      // before clustering
  std::vector<CornerPoint> corners;  // after clustering

  /// Convenience for single-ring targets.
  const std::vector<Vec2>& simplifiedRing() const {
    return simplifiedRings.front();
  }
  std::size_t totalSimplifiedVertices() const {
    std::size_t n = 0;
    for (const auto& r : simplifiedRings) n += r.size();
    return n;
  }
};

/// Runs simplification + traversal + clustering for `problem`.
CornerExtraction extractCornerPoints(const Problem& problem);

/// Clustering step exposed for tests: merges same-type points closer than
/// `radius` into their centroid (single-linkage via union-find).
std::vector<CornerPoint> clusterCornerPoints(std::vector<CornerPoint> points,
                                             double radius);

}  // namespace mbf
