// Translation covariance of the whole fracture pipeline: a shape moved
// by an integer vector fractures to exactly the moved shots with the
// same failing pixels. Plan cells rely on it (mdp/hierarchy anchors
// every cell at its bbox corner and translates the cell's shots to each
// instance), so it is pinned on the benchmark's ILT clips at a small
// offset and at both ends of the 32-bit coordinate space.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "benchgen/ilt_synth.h"
#include "fracture/problem.h"
#include "mdp/layout.h"
#include "parallel/parallel_for.h"

namespace mbf {
namespace {

/// Clip k of the ilt_flat benchmark workload (bench/e2e/workload_gen.cpp,
/// iltClip): the ten suite configurations, re-seeded per decade.
Polygon iltClip(int k) {
  IltSynthConfig cfg = iltSuiteConfigs()[static_cast<std::size_t>(k % 10)];
  cfg.seed += static_cast<std::uint32_t>(10 * (k / 10));
  return makeIltShape(cfg);
}

TEST(MetamorphicTest, IltFlatClipsFractureExactlyTranslated) {
  constexpr int kClips = 40;
  constexpr std::int64_t kMin = std::numeric_limits<std::int32_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int32_t>::max();
  const FractureParams params;
  const int pad = Problem::gridPad(params);

  struct Outcome {
    int offsets = 0;
    std::vector<std::string> mismatches;
  };
  std::vector<Outcome> outcomes(kClips);
  parallelFor(0, kClips, 4, 1, [&](int k) {
    LayoutShape shape;
    shape.rings.push_back(iltClip(k));
    const Rect box = shape.rings.front().bbox();
    // ~1 um, then the grid (bbox grown by gridPad) 1 nm inside -2^31 and
    // 1 nm inside +2^31 on both axes.
    const std::int64_t low = kMin + 1 + pad;
    const std::int64_t high = kMax - 1 - pad;
    const Point deltas[] = {
        {1013, 997},
        {static_cast<std::int32_t>(low - box.x0),
         static_cast<std::int32_t>(low - box.y0)},
        {static_cast<std::int32_t>(high - box.x1),
         static_cast<std::int32_t>(high - box.y1)}};
    const Solution base = fractureShape(shape, params, Method::kOurs);
    Outcome& out = outcomes[static_cast<std::size_t>(k)];
    for (const Point delta : deltas) {
      LayoutShape moved = shape;
      moved.rings.front().translate(delta);
      const Solution sol = fractureShape(moved, params, Method::kOurs);
      std::vector<Rect> expected = base.shots;
      for (Rect& r : expected) r = r.translated(delta);
      ++out.offsets;
      if (sol.shots != expected || sol.failOn != base.failOn ||
          sol.failOff != base.failOff) {
        out.mismatches.push_back(
            "clip " + std::to_string(k) + " moved by (" +
            std::to_string(delta.x) + ", " + std::to_string(delta.y) +
            "): " + std::to_string(sol.shots.size()) + " shots / " +
            std::to_string(sol.failingPixels()) + " px vs " +
            std::to_string(base.shots.size()) + " shots / " +
            std::to_string(base.failingPixels()) + " px");
      }
    }
  });
  int checked = 0;
  for (const Outcome& out : outcomes) {
    checked += out.offsets;
    for (const std::string& m : out.mismatches) ADD_FAILURE() << m;
  }
  EXPECT_EQ(checked, 3 * kClips);
}

}  // namespace
}  // namespace mbf
