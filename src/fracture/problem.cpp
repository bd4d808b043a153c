#include "fracture/problem.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "geometry/edt.h"
#include "geometry/rasterizer.h"

namespace mbf {
namespace {

// Uniform bucket index over all boundary segments (outer ring + holes),
// so the exact narrow-band distance computation stays linear in band size
// even for dense staircase contours (thousands of segments).
class SegmentIndex {
 public:
  SegmentIndex(const std::vector<Polygon>& rings, Rect domain,
               double queryRadius)
      : rings_(&rings), domain_(domain), cell_(16) {
    nx_ = std::max(1, (domain.width() + cell_ - 1) / cell_);
    ny_ = std::max(1, (domain.height() + cell_ - 1) / cell_);
    buckets_.resize(static_cast<std::size_t>(nx_) * ny_);
    const int pad = static_cast<int>(std::ceil(queryRadius)) + 1;
    for (std::size_t r = 0; r < rings.size(); ++r) {
      const Polygon& poly = rings[r];
      const std::size_t n = poly.size();
      for (std::size_t i = 0; i < n; ++i) {
        const Point a = poly[i];
        const Point b = poly.wrapped(i + 1);
        const Rect box = Rect::fromCorners(a, b).inflated(pad);
        forEachBucket(box, [&](std::vector<std::uint32_t>& bucket) {
          bucket.push_back(
              static_cast<std::uint32_t>((r << 24) | (i & 0xFFFFFF)));
        });
      }
    }
  }

  double distance(Vec2 p) const {
    const int bx = std::clamp(
        (static_cast<int>(p.x) - domain_.x0) / cell_, 0, nx_ - 1);
    const int by = std::clamp(
        (static_cast<int>(p.y) - domain_.y0) / cell_, 0, ny_ - 1);
    double best = std::numeric_limits<double>::infinity();
    for (const std::uint32_t key :
         buckets_[static_cast<std::size_t>(by) * nx_ + bx]) {
      const Polygon& poly = (*rings_)[key >> 24];
      const std::size_t i = key & 0xFFFFFF;
      const Vec2 a = toVec2(poly[i]);
      const Vec2 b = toVec2(poly.wrapped(i + 1));
      best = std::min(best, distPointSegment(p, a, b));
    }
    return best;
  }

 private:
  template <typename Fn>
  void forEachBucket(const Rect& box, Fn fn) {
    const int bx0 = std::clamp((box.x0 - domain_.x0) / cell_, 0, nx_ - 1);
    const int bx1 = std::clamp((box.x1 - domain_.x0) / cell_, 0, nx_ - 1);
    const int by0 = std::clamp((box.y0 - domain_.y0) / cell_, 0, ny_ - 1);
    const int by1 = std::clamp((box.y1 - domain_.y0) / cell_, 0, ny_ - 1);
    for (int by = by0; by <= by1; ++by) {
      for (int bx = bx0; bx <= bx1; ++bx) {
        fn(buckets_[static_cast<std::size_t>(by) * nx_ + bx]);
      }
    }
  }

  const std::vector<Polygon>* rings_;
  Rect domain_;
  int cell_;
  int nx_ = 0;
  int ny_ = 0;
  std::vector<std::vector<std::uint32_t>> buckets_;
};

}  // namespace

Problem::Problem(Polygon target, FractureParams params)
    : Problem(std::vector<Polygon>{std::move(target)}, params) {}

Problem::Problem(std::vector<Polygon> rings, FractureParams params)
    : rings_(std::move(rings)),
      params_(params),
      model_(params.makeModel()),
      lth_(params.resolvedLth(model_)) {
  if (rings_.empty()) {
    throw std::invalid_argument("Problem: empty ring list");
  }
  for (const Polygon& r : rings_) {
    if (r.size() < 3) {
      throw std::invalid_argument("Problem: ring with fewer than 3 vertices");
    }
  }

  // Grid extent: the union bbox plus enough margin that every pixel a
  // near-target shot could push over threshold is represented. Planning
  // rejects shapes whose grid would leave int32; a direct caller gets
  // an exception rather than a wrapped grid.
  Rect unionBox = rings_[0].bbox();
  for (const Polygon& r : rings_) unionBox = unionBox.unionWith(r.bbox());
  const int pad = gridPad(params_);
  if (!gridFits(unionBox.x0, unionBox.y0, unionBox.x1, unionBox.y1, pad)) {
    throw std::out_of_range("Problem: target bbox " + unionBox.str() +
                            " plus its " + std::to_string(pad) +
                            " nm grid halo leaves the 32-bit coordinate "
                            "space");
  }
  origin_ = {unionBox.x0 - pad, unionBox.y0 - pad};
  const int w = unionBox.width() + 2 * pad;
  const int h = unionBox.height() + 2 * pad;

  // The grid-local copy of the rings, translated by -origin in integer
  // arithmetic (exact: every vertex lands in [0, w] x [0, h]). Pixel
  // (x, y) samples (x + 1/2, y + 1/2) of it, so everything decided here
  // — orientation, nesting, the inside mask, the classes — is the same
  // for every integer translation of the shape (DESIGN.md section 17).
  std::vector<Polygon> local;
  local.reserve(rings_.size());
  for (const Polygon& ring : rings_) {
    std::vector<Point> v;
    v.reserve(ring.size());
    for (const Point& p : ring.vertices()) {
      v.push_back({p.x - origin_.x, p.y - origin_.y});
    }
    local.emplace_back(std::move(v));
  }
  auto reverseRing = [](Polygon& p) {
    p = Polygon(std::vector<Point>(p.vertices().rbegin(),
                                   p.vertices().rend()));
  };

  // Canonical ring orientation: the largest ring comes first and is
  // counter-clockwise. Every other ring nested inside an earlier ring is
  // a hole (clockwise); rings outside every other ring are separate
  // components (counter-clockwise). Walking any ring then keeps the
  // target interior on the left. (One nesting level: holes-in-islands
  // are not supported.) rings_ follows the decisions made on `local`.
  std::size_t outer = 0;
  double outerArea = -1.0;
  for (std::size_t i = 0; i < local.size(); ++i) {
    const double a = local[i].area();
    if (a > outerArea) {
      outerArea = a;
      outer = i;
    }
  }
  std::swap(rings_[0], rings_[outer]);
  std::swap(local[0], local[outer]);
  if (!local[0].isCounterClockwise()) reverseRing(rings_[0]);
  for (std::size_t i = 1; i < local.size(); ++i) {
    bool nested = false;
    for (std::size_t j = 0; j < local.size(); ++j) {
      if (i == j) continue;
      if (local[j].bbox().contains(local[i].bbox()) &&
          local[j].contains(toVec2(local[i][0]) + Vec2{0.25, 0.25})) {
        nested = true;
        break;
      }
    }
    // Holes must be clockwise, separate components counter-clockwise.
    if (nested == local[i].isCounterClockwise()) reverseRing(rings_[i]);
  }

  // Grid-memory budget: refuse before allocating, so a pathological
  // shape degrades to the baseline instead of taking the process down.
  if (params_.maxGridBytes > 0) {
    const std::int64_t bytes =
        static_cast<std::int64_t>(w) * h * kBytesPerGridCell;
    if (bytes > params_.maxGridBytes) {
      throw BudgetExceededError(
          Status(StatusCode::kResourceExhausted,
                 "shape grid needs ~" + std::to_string(bytes) +
                     " bytes, budget is " +
                     std::to_string(params_.maxGridBytes)));
    }
  }

  inside_ = MaskGrid(w, h, 0);
  rasterizeEvenOdd(local, Point{0, 0}, inside_);

  // Narrow-band exact distances; EDT pre-filter keeps the band small.
  MaskGrid boundary(w, h, 0);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const std::uint8_t v = inside_.at(x, y);
      if ((x + 1 < w && inside_.at(x + 1, y) != v) ||
          (y + 1 < h && inside_.at(x, y + 1) != v) ||
          (x > 0 && inside_.at(x - 1, y) != v) ||
          (y > 0 && inside_.at(x, y - 1) != v)) {
        boundary.at(x, y) = 1;
      }
    }
  }
  const Grid<float> approxDist = distanceTransform(boundary);
  const double bandLimit = params_.gamma + 2.0;
  SegmentIndex segIndex(local, Rect(0, 0, w, h), bandLimit + 2.0);

  classes_ = Grid<std::uint8_t>(w, h, 0);
  MaskGrid onMask(w, h, 0);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const bool in = inside_.at(x, y) != 0;
      double d = approxDist.at(x, y);
      if (d <= bandLimit) d = segIndex.distance({x + 0.5, y + 0.5});
      PixelClass cls;
      if (d <= params_.gamma) {
        cls = PixelClass::kDontCare;
      } else if (in) {
        cls = PixelClass::kOn;
        onMask.at(x, y) = 1;
        ++numOn_;
      } else {
        cls = PixelClass::kOff;
        ++numOff_;
      }
      classes_.at(x, y) = static_cast<std::uint8_t>(cls);
    }
  }
  insideSum_ = PrefixSum2D(inside_);
  onSum_ = PrefixSum2D(onMask);
}

int Problem::gridPad(const FractureParams& params) {
  return params.makeModel().influenceRadiusPx() + params.lmin / 2 + 4;
}

bool Problem::gridFits(std::int64_t x0, std::int64_t y0, std::int64_t x1,
                       std::int64_t y1, int pad) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int32_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int32_t>::max();
  x0 -= pad;
  y0 -= pad;
  x1 += pad;
  y1 += pad;
  return x0 >= kMin && y0 >= kMin && x1 <= kMax && y1 <= kMax &&
         x1 - x0 <= kMax && y1 - y0 <= kMax;
}

std::int64_t Problem::insideArea(const Rect& worldRect) const {
  return insideSum_.sum(worldToGrid(worldRect));
}

std::int64_t Problem::onArea(const Rect& worldRect) const {
  return onSum_.sum(worldToGrid(worldRect));
}

}  // namespace mbf
