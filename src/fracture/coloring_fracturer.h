// Stage 1 of the paper's method: graph-coloring-based approximate
// fracturing (section 3, figure 3). Produces an initial shot set that may
// still have CD violations; the iterative refiner (section 4) fixes them.
#pragma once

#include "fracture/corner_extraction.h"
#include "fracture/problem.h"
#include "fracture/solution.h"
#include "graph/coloring.h"
#include "graph/graph.h"

namespace mbf {

/// Intermediate artifacts, exposed for tests, visualization and the
/// figure-1/3 pipeline bench.
struct ColoringArtifacts {
  CornerExtraction extraction;
  Graph compatibility;   // G(V, E): edge = pair can share a shot
  Coloring coloring;     // of the complement graph G_inv
  std::vector<Rect> shots;
};

class ColoringFracturer {
 public:
  /// Runs the full stage-1 pipeline. Statistics in the returned Solution
  /// are filled by a verification pass (the solution is approximate and
  /// usually has failing pixels — that is expected).
  Solution fracture(const Problem& problem) const;

  /// Same, returning every intermediate artifact.
  ColoringArtifacts fractureWithArtifacts(const Problem& problem) const;
};

/// Places the shot for one color class (set of mutually compatible corner
/// points). Degenerate classes (one point, or two points on the same shot
/// edge) get minimum extent in the free directions and are then extended
/// until they touch the opposite boundary of the target (figure 4). The
/// points are grid-local (CornerExtraction); the shot is in layout
/// coordinates.
Rect placeShotForClass(const Problem& problem,
                       const std::vector<CornerPoint>& classPoints);

}  // namespace mbf
