#include "fracture/coloring_fracturer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>

#include "fracture/shot_graph.h"
#include "fracture/verifier.h"
#include "support/telemetry.h"

namespace mbf {
namespace {

int roundNm(double v) { return static_cast<int>(std::lround(v)); }

// Mean coordinate of the class points that pin one shot edge, or nullopt
// when no class point has a type on that edge.
struct EdgePins {
  std::optional<double> left, right, bottom, top;
};

EdgePins pinEdges(const std::vector<CornerPoint>& pts) {
  struct Acc {
    double sum = 0.0;
    int n = 0;
    void add(double v) {
      sum += v;
      ++n;
    }
    std::optional<double> mean() const {
      return n ? std::optional<double>(sum / n) : std::nullopt;
    }
  };
  Acc left, right, bottom, top;
  for (const CornerPoint& p : pts) {
    switch (p.type) {
      case CornerType::kBottomLeft:
        left.add(p.pos.x);
        bottom.add(p.pos.y);
        break;
      case CornerType::kBottomRight:
        right.add(p.pos.x);
        bottom.add(p.pos.y);
        break;
      case CornerType::kTopLeft:
        left.add(p.pos.x);
        top.add(p.pos.y);
        break;
      case CornerType::kTopRight:
        right.add(p.pos.x);
        top.add(p.pos.y);
        break;
    }
  }
  return {left.mean(), right.mean(), bottom.mean(), top.mean()};
}

// Extends one free edge of `r` outward until the 1-pixel strip just past
// the edge no longer contains target-interior pixels, i.e. the edge
// touches the opposite boundary of the target shape (figure 4). `dx, dy`
// select the direction: (-1,0) bottom... expressed per edge below.
enum class Side { kLeft, kRight, kBottom, kTop };

void extendToOppositeBoundary(const Problem& problem, Rect& r, Side side) {
  const Rect domain = problem.gridToWorld(
      {0, 0, problem.gridWidth(), problem.gridHeight()});
  bool entered = false;
  // A strip counts as target interior only when most of it is inside;
  // "any pixel inside" would let the extension cross gaps between arms
  // and blanket unrelated geometry.
  auto stripHasInside = [&](const Rect& strip) {
    return 2 * problem.insideArea(strip) > strip.area();
  };
  switch (side) {
    case Side::kBottom:
      while (r.y0 > domain.y0) {
        const Rect strip{r.x0, r.y0 - 1, r.x1, r.y0};
        const bool in = stripHasInside(strip);
        if (in) {
          entered = true;
        } else if (entered) {
          break;
        }
        if (!in && !entered && r.y1 - r.y0 > 4 * problem.params().lmin) break;
        --r.y0;
      }
      break;
    case Side::kTop:
      while (r.y1 < domain.y1) {
        const Rect strip{r.x0, r.y1, r.x1, r.y1 + 1};
        const bool in = stripHasInside(strip);
        if (in) {
          entered = true;
        } else if (entered) {
          break;
        }
        if (!in && !entered && r.y1 - r.y0 > 4 * problem.params().lmin) break;
        ++r.y1;
      }
      break;
    case Side::kLeft:
      while (r.x0 > domain.x0) {
        const Rect strip{r.x0 - 1, r.y0, r.x0, r.y1};
        const bool in = stripHasInside(strip);
        if (in) {
          entered = true;
        } else if (entered) {
          break;
        }
        if (!in && !entered && r.x1 - r.x0 > 4 * problem.params().lmin) break;
        --r.x0;
      }
      break;
    case Side::kRight:
      while (r.x1 < domain.x1) {
        const Rect strip{r.x1, r.y0, r.x1 + 1, r.y1};
        const bool in = stripHasInside(strip);
        if (in) {
          entered = true;
        } else if (entered) {
          break;
        }
        if (!in && !entered && r.x1 - r.x0 > 4 * problem.params().lmin) break;
        ++r.x1;
      }
      break;
  }
}

}  // namespace

Rect placeShotForClass(const Problem& problem,
                       const std::vector<CornerPoint>& classPoints) {
  const int lmin = problem.params().lmin;
  const EdgePins pins = pinEdges(classPoints);

  Rect r;
  // Pinned edges first; free edges get a provisional minimum extent and
  // are then pushed to the opposite target boundary.
  const bool hasL = pins.left.has_value();
  const bool hasR = pins.right.has_value();
  const bool hasB = pins.bottom.has_value();
  const bool hasT = pins.top.has_value();

  r.x0 = hasL ? roundNm(*pins.left) : 0;
  r.x1 = hasR ? roundNm(*pins.right) : 0;
  r.y0 = hasB ? roundNm(*pins.bottom) : 0;
  r.y1 = hasT ? roundNm(*pins.top) : 0;

  if (hasL && !hasR) r.x1 = r.x0 + lmin;
  if (hasR && !hasL) r.x0 = r.x1 - lmin;
  if (hasB && !hasT) r.y1 = r.y0 + lmin;
  if (hasT && !hasB) r.y0 = r.y1 - lmin;
  // A class always pins at least one corner, so both axes have an anchor.

  // The pins are grid-local, so they round the same wherever the shape
  // sits; the integer rect then moves to layout coordinates.
  r = problem.gridToWorld(r);
  if (hasL && !hasR) extendToOppositeBoundary(problem, r, Side::kRight);
  if (hasR && !hasL) extendToOppositeBoundary(problem, r, Side::kLeft);
  if (hasB && !hasT) extendToOppositeBoundary(problem, r, Side::kTop);
  if (hasT && !hasB) extendToOppositeBoundary(problem, r, Side::kBottom);

  if (r.x1 < r.x0) std::swap(r.x0, r.x1);
  if (r.y1 < r.y0) std::swap(r.y0, r.y1);
  enforceMinSize(r, lmin);
  return r;
}

ColoringArtifacts ColoringFracturer::fractureWithArtifacts(
    const Problem& problem) const {
  ColoringArtifacts art;
  problem.checkpoint("corner-extraction");
  art.extraction = extractCornerPoints(problem);
  problem.checkpoint("shot-graph");
  {
    TraceScope traceGraph("shot-graph");
    art.compatibility = buildShotGraph(problem, art.extraction.corners);
  }
  const Graph inverse = art.compatibility.complement();
  problem.checkpoint("coloring");
  {
    TraceScope traceColoring("coloring");
    art.coloring = greedyColoring(inverse, problem.params().coloringOrder);
  }

  TraceScope tracePlacement("shot-placement");
  for (const std::vector<int>& cls : art.coloring.classes()) {
    problem.checkpoint("shot-placement");
    std::vector<CornerPoint> pts;
    pts.reserve(cls.size());
    for (const int v : cls) {
      pts.push_back(art.extraction.corners[static_cast<std::size_t>(v)]);
    }
    if (pts.empty()) continue;
    const Rect placed = placeShotForClass(problem, pts);
    // The clique guarantees pairwise compatibility, but the joint
    // placement (edge pins averaged over all class points) can still
    // land badly when the clique spans distant geometry. Fall back to
    // one shot per corner point in that case; merge and refinement
    // clean up the redundancy.
    if (pts.size() > 1 && !shotAdmissible(problem, placed)) {
      for (const CornerPoint& pt : pts) {
        art.shots.push_back(placeShotForClass(problem, {pt}));
      }
    } else {
      art.shots.push_back(placed);
    }
  }
  return art;
}

Solution ColoringFracturer::fracture(const Problem& problem) const {
  const auto start = std::chrono::steady_clock::now();
  ColoringArtifacts art = fractureWithArtifacts(problem);

  Solution sol;
  sol.method = "coloring";
  sol.shots = std::move(art.shots);
  Verifier verifier(problem);
  verifier.setShots(sol.shots);
  verifier.writeStats(sol);
  sol.runtimeSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return sol;
}

}  // namespace mbf
