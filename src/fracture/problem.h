// A fracturing problem instance: the target polygon sampled onto a pixel
// grid and classified into Pon (inside, beyond gamma of the boundary),
// Poff (outside, beyond gamma) and Px (the don't-care band within gamma),
// per paper section 2.
#pragma once

#include <memory>

#include "ebeam/proximity_model.h"
#include "fracture/params.h"
#include "geometry/polygon.h"
#include "grid/grid.h"
#include "grid/prefix_sum.h"
#include "support/exec_context.h"

namespace mbf {

enum class PixelClass : std::uint8_t {
  kDontCare = 0,  // Px: within gamma of the target boundary
  kOn = 1,        // Pon: must reach intensity >= rho
  kOff = 2,       // Poff: must stay below rho
};

class Problem {
 public:
  Problem(Polygon target, FractureParams params);

  /// Multi-ring target with even-odd semantics (outer boundary + holes).
  /// Rings are re-oriented canonically: the largest ring becomes counter-
  /// clockwise (the outer boundary), every other ring clockwise (holes),
  /// so that walking any ring keeps the target interior on the left.
  Problem(std::vector<Polygon> rings, FractureParams params);

  /// The outer boundary ring.
  const Polygon& target() const { return rings_.front(); }
  /// All rings: rings()[0] is the outer boundary, the rest are holes.
  const std::vector<Polygon>& rings() const { return rings_; }
  const FractureParams& params() const { return params_; }
  const ProximityModel& model() const { return model_; }
  double lth() const { return lth_; }

  /// World coordinate of the grid anchor: pixel (i, j) samples
  /// (origin.x + i + 0.5, origin.y + j + 0.5). The grids are built from
  /// the rings translated by -origin in integer arithmetic, so a shape
  /// moved by an integer vector gets the same class grid and inside mask
  /// (its origin moves by that vector); rings() stays in layout
  /// coordinates, and stage 1 translates it the same way
  /// (CornerExtraction is grid-local).
  Point origin() const { return origin_; }
  int gridWidth() const { return classes_.width(); }
  int gridHeight() const { return classes_.height(); }

  PixelClass pixelClass(int x, int y) const {
    return static_cast<PixelClass>(classes_.at(x, y));
  }
  const Grid<std::uint8_t>& classGrid() const { return classes_; }
  /// 1 where the pixel centre is inside the target polygon.
  const MaskGrid& insideMask() const { return inside_; }

  std::int64_t numOnPixels() const { return numOn_; }
  std::int64_t numOffPixels() const { return numOff_; }

  /// Pixels of the inside mask covered by a world-coordinate rectangle
  /// (used for the 80 % / 90 % area-overlap tests). O(1).
  std::int64_t insideArea(const Rect& worldRect) const;

  /// Pon pixels covered by a world-coordinate rectangle. O(1).
  std::int64_t onArea(const Rect& worldRect) const;

  /// Per-shape execution context (budget deadline). Non-owning; the
  /// per-shape driver in mdp/layout sets it for the duration of the
  /// fracture call. nullptr (the default) disables all budget checks.
  void setExecContext(const ExecContext* ctx) { exec_ = ctx; }
  const ExecContext* execContext() const { return exec_; }

  /// Cooperative budget checkpoint; no-op without a context. Called by
  /// the long-running loops in Refiner, ColoringFracturer and Verifier.
  void checkpoint(const char* stage) const {
    if (exec_ != nullptr) exec_->checkpoint(stage);
  }

  /// Margin, in pixels, the grid adds on every side of the target's
  /// bbox: the model's influence radius, half a minimum shot and 4.
  /// The constructor throws std::out_of_range when the bbox plus this
  /// margin leaves the 32-bit coordinate space; planning rejects such
  /// shapes up front (mdp/hierarchy).
  static int gridPad(const FractureParams& params);

  /// True when the grid of a target whose bbox spans [x0, x1] x [y0, y1]
  /// — the bbox grown by `pad` (gridPad) on every side — lies inside the
  /// 32-bit coordinate space. int64 bounds, so callers can pass a
  /// translated bbox before narrowing it.
  static bool gridFits(std::int64_t x0, std::int64_t y0, std::int64_t x1,
                       std::int64_t y1, int pad);

  /// Estimated resident bytes per grid cell across the Problem's own
  /// grids (inside mask + classes + two 8-byte prefix sums) plus the
  /// Verifier's intensity map — the figure FractureParams::maxGridBytes
  /// caps.
  static constexpr std::int64_t kBytesPerGridCell = 1 + 1 + 8 + 8 + 8;

  Rect worldToGrid(const Rect& worldRect) const {
    return {worldRect.x0 - origin_.x, worldRect.y0 - origin_.y,
            worldRect.x1 - origin_.x, worldRect.y1 - origin_.y};
  }
  Rect gridToWorld(const Rect& gridRect) const {
    return {gridRect.x0 + origin_.x, gridRect.y0 + origin_.y,
            gridRect.x1 + origin_.x, gridRect.y1 + origin_.y};
  }

 private:
  std::vector<Polygon> rings_;
  FractureParams params_;
  ProximityModel model_;
  double lth_ = 0.0;

  Point origin_;
  MaskGrid inside_;
  Grid<std::uint8_t> classes_;
  PrefixSum2D insideSum_;
  PrefixSum2D onSum_;
  std::int64_t numOn_ = 0;
  std::int64_t numOff_ = 0;
  const ExecContext* exec_ = nullptr;
};

}  // namespace mbf
