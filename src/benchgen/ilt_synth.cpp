#include "benchgen/ilt_synth.h"

#include <algorithm>
#include <random>

#include "ebeam/intensity_map.h"
#include "geometry/contour.h"

namespace mbf {
namespace {

// Picks a random point on the perimeter region of `host` so attached arms
// stick out instead of piling onto the centre (keeps the union sparse in
// its bounding box, like OPC'd wires with assist features).
Point anchorOn(std::mt19937& rng, const Rect& host) {
  std::uniform_int_distribution<int> px(host.x0, host.x1);
  std::uniform_int_distribution<int> py(host.y0, host.y1);
  Point p{px(rng), py(rng)};
  // Snap one coordinate toward an edge of the host.
  if (std::uniform_int_distribution<int>(0, 1)(rng)) {
    p.x = std::uniform_int_distribution<int>(0, 1)(rng) ? host.x0 : host.x1;
  } else {
    p.y = std::uniform_int_distribution<int>(0, 1)(rng) ? host.y0 : host.y1;
  }
  return p;
}

}  // namespace

namespace {

IltShape tryMakeIltShape(const IltSynthConfig& config, std::uint32_t salt);

}  // namespace

IltShape makeIltShapeWithArms(const IltSynthConfig& config) {
  // The printed union can in rare cases pinch off into separate lobes
  // (a thin junction below threshold); the generator arms would then
  // overexpose around the dropped lobe and the feasible-by-construction
  // guarantee would break. Regenerate with a salted seed until the
  // contour is a single loop.
  for (std::uint32_t salt = 0; salt < 16; ++salt) {
    IltShape shape = tryMakeIltShape(config, salt);
    if (!shape.target.empty()) return shape;
  }
  return tryMakeIltShape(config, 0);  // unreachable in practice
}

namespace {

IltShape tryMakeIltShape(const IltSynthConfig& config, std::uint32_t salt) {
  std::mt19937 rng(config.seed + 65537 * salt);
  std::uniform_int_distribution<int> widthDist(config.minWidth,
                                               config.maxWidth);
  std::uniform_int_distribution<int> lengthDist(config.minLength,
                                                config.maxLength);

  // Union of elongated arms, each growing off the boundary of an earlier
  // one with alternating orientation -- the skeleton of a curvilinear
  // ILT main feature.
  std::vector<Rect> arms;
  arms.reserve(static_cast<std::size_t>(config.numFeatures));
  {
    const int w = widthDist(rng);
    const int l = lengthDist(rng);
    arms.push_back({0, 0, l, w});  // first arm horizontal
  }
  for (int i = 1; i < config.numFeatures; ++i) {
    const Rect& host = arms[std::uniform_int_distribution<std::size_t>(
        0, arms.size() - 1)(rng)];
    const Point a = anchorOn(rng, host);
    const int w = widthDist(rng);
    const int l = lengthDist(rng);
    const bool horizontal = static_cast<unsigned>(i % 2) == config.seed % 2;
    Rect next;
    if (horizontal) {
      // Extend left or right from the anchor; the 4 nm back-extension
      // keeps the junction solidly connected after printing.
      if (std::uniform_int_distribution<int>(0, 1)(rng)) {
        next = {a.x - 4, a.y - w / 2, a.x + l, a.y + w - w / 2};
      } else {
        next = {a.x - l, a.y - w / 2, a.x + 4, a.y + w - w / 2};
      }
    } else {
      if (std::uniform_int_distribution<int>(0, 1)(rng)) {
        next = {a.x - w / 2, a.y - 4, a.x + w - w / 2, a.y + l};
      } else {
        next = {a.x - w / 2, a.y - l, a.x + w - w / 2, a.y + 4};
      }
    }
    arms.push_back(next);
  }

  // Diagonal chains: start at a random edge point of an existing arm and
  // march diagonally, one square shot per step.
  for (int d = 0; d < config.numDiagonals; ++d) {
    const Rect& host = arms[std::uniform_int_distribution<std::size_t>(
        0, arms.size() - 1)(rng)];
    Point a = anchorOn(rng, host);
    const int w = config.diagWidth;
    const int sx = std::uniform_int_distribution<int>(0, 1)(rng) ? 1 : -1;
    const int sy = std::uniform_int_distribution<int>(0, 1)(rng) ? 1 : -1;
    for (int k = 0; k < config.diagSteps; ++k) {
      arms.push_back({a.x - w / 2, a.y - w / 2, a.x + w - w / 2,
                      a.y + w - w / 2});
      a.x += sx * config.diagStep;
      a.y += sy * config.diagStep;
    }
  }

  // "Print" the arms: accumulate their dose under the proximity model and
  // trace the rho-contour. The arms are then a feasible solution of the
  // resulting fracturing problem by construction.
  const ProximityModel model(config.sigma, config.rho);
  Rect box = arms.front();
  for (const Rect& f : arms) box = box.unionWith(f);
  box = box.inflated(model.influenceRadiusPx() + 2);

  IntensityMap map(model, box.bl(), box.width(), box.height());
  for (const Rect& f : arms) map.addShot(f);

  MaskGrid mask(box.width(), box.height(), 0);
  for (int y = 0; y < mask.height(); ++y) {
    for (int x = 0; x < mask.width(); ++x) {
      mask.at(x, y) = map.at(x, y) >= model.rho() ? 1 : 0;
    }
  }
  IltShape shape;
  // Reject prints that are not a single simply-connected lobe: a second
  // counter-clockwise loop means the union pinched apart, a clockwise
  // loop means the arms closed into a ring with a hole -- either way the
  // single-ring target would not match what the arms print, breaking the
  // feasible-by-construction guarantee. The caller retries with a salted
  // seed. (Holed targets are exercised via makeFrameShape instead.)
  std::vector<Polygon> loops = traceContours(mask, box.bl());
  if (loops.size() != 1 || loops[0].signedArea() <= 0) {
    return shape;  // empty target signals "retry"
  }
  shape.target = std::move(loops[0]);
  shape.generatorArms = std::move(arms);
  return shape;
}

}  // namespace

Polygon makeIltShape(const IltSynthConfig& config) {
  return makeIltShapeWithArms(config).target;
}

FrameShape makeFrameShape(std::uint32_t seed, int outerSize, int armWidth) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> jitter(-4, 4);
  const int s = outerSize;
  const int w = armWidth;
  // Four overlapping arms; small deterministic jitter keeps suites
  // diverse without risking the ring topology.
  std::vector<Rect> arms{
      {0, 0, s, w + jitter(rng)},              // bottom
      {s - w + jitter(rng), 0, s, s},          // right
      {0, s - w + jitter(rng), s, s},          // top
      {0, 0, w + jitter(rng), s},              // left
  };

  const ProximityModel model;
  Rect box = arms.front();
  for (const Rect& f : arms) box = box.unionWith(f);
  box = box.inflated(model.influenceRadiusPx() + 2);

  IntensityMap map(model, box.bl(), box.width(), box.height());
  for (const Rect& f : arms) map.addShot(f);
  MaskGrid mask(box.width(), box.height(), 0);
  for (int y = 0; y < mask.height(); ++y) {
    for (int x = 0; x < mask.width(); ++x) {
      mask.at(x, y) = map.at(x, y) >= model.rho() ? 1 : 0;
    }
  }
  FrameShape frame;
  frame.generatorArms = std::move(arms);
  // Keep the two largest loops: the CCW outer boundary and the CW hole.
  std::vector<Polygon> loops = traceContours(mask, box.bl());
  std::sort(loops.begin(), loops.end(), [](const Polygon& a, const Polygon& b) {
    return a.area() > b.area();
  });
  for (Polygon& loop : loops) {
    if (frame.rings.size() < 2) frame.rings.push_back(std::move(loop));
  }
  return frame;
}

std::vector<IltSynthConfig> iltSuiteConfigs() {
  std::vector<IltSynthConfig> suite;
  for (int i = 1; i <= 10; ++i) {
    IltSynthConfig c;
    c.seed = static_cast<std::uint32_t>(1000 + i);
    // Ramp complexity: clips 1-3 are short two-arm features, 4-7 mid-size,
    // 8-10 elaborate many-arm shapes (mirroring the spread of shot counts
    // in the paper's Table 2).
    c.numFeatures = 2 + (i * 2) / 3;
    c.minWidth = 13 + (i % 3);
    c.maxWidth = 20 + i / 2;
    c.minLength = 25 + 2 * i;
    c.maxLength = 55 + 5 * i;
    c.numDiagonals = (i >= 2) ? 1 + i / 4 : 0;
    c.diagSteps = 4 + i / 2;
    c.diagWidth = 14 + (i % 4);
    suite.push_back(c);
  }
  return suite;
}

}  // namespace mbf
