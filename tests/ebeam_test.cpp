// Unit tests for the e-beam proximity model: edge profiles, shot
// intensity, intensity map incrementality, corner rounding and Lth.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "ebeam/corner_rounding.h"
#include "ebeam/intensity_map.h"
#include "ebeam/proximity_model.h"

namespace mbf {
namespace {

constexpr double kSigma = 6.25;

TEST(ProximityModelTest, EdgeProfileLimitsAndMidpoint) {
  const ProximityModel m(kSigma);
  EXPECT_NEAR(m.edgeProfileExact(0.0), 0.5, 1e-12);
  EXPECT_NEAR(m.edgeProfileExact(100.0), 1.0, 1e-12);
  EXPECT_NEAR(m.edgeProfileExact(-100.0), 0.0, 1e-12);
  // Antisymmetry about 0.5.
  EXPECT_NEAR(m.edgeProfileExact(3.0) + m.edgeProfileExact(-3.0), 1.0, 1e-12);
}

TEST(ProximityModelTest, LutMatchesExact) {
  // The half-integer table holds the exact profile, not an approximation.
  const ProximityModel m(kSigma);
  for (int k = -24; k <= 25; ++k) {
    EXPECT_EQ(m.halfIntegerProfile(k), m.edgeProfileExact(k - 0.5)) << k;
  }
  EXPECT_EQ(m.halfIntegerProfile(-100), 0.0);
  EXPECT_EQ(m.halfIntegerProfile(100), 1.0);
}

TEST(ProximityModelTest, ShotIntensityEdgePrintsAtRho) {
  const ProximityModel m(kSigma);
  const Rect shot{0, 0, 100, 100};
  // Mid-edge of a large shot prints exactly at 0.5.
  EXPECT_NEAR(m.shotIntensity(shot, 0.0, 50.0), 0.5, 1e-6);
  EXPECT_NEAR(m.shotIntensity(shot, 100.0, 50.0), 0.5, 1e-6);
  EXPECT_NEAR(m.shotIntensity(shot, 50.0, 0.0), 0.5, 1e-6);
  // Deep interior saturates at ~1, corner at ~0.25.
  EXPECT_NEAR(m.shotIntensity(shot, 50.0, 50.0), 1.0, 1e-6);
  EXPECT_NEAR(m.shotIntensity(shot, 0.0, 0.0), 0.25, 1e-6);
  // Far outside: ~0.
  EXPECT_NEAR(m.shotIntensity(shot, -30.0, 50.0), 0.0, 1e-4);
}

TEST(ProximityModelTest, IntensityMatchesKernelConvolutionOnSmallShot) {
  // Brute-force 2D convolution of the truncated paper kernel vs the
  // separable erf product, on a shot comparable to sigma.
  const ProximityModel m(kSigma);
  const Rect shot{0, 0, 15, 10};
  const double step = 0.25;
  for (const auto& [px, py] : {std::pair{7.5, 5.0}, {0.0, 5.0}, {15.0, 10.0},
                               {-4.0, 3.0}, {20.0, 12.0}}) {
    double acc = 0.0;
    for (double x = shot.x0; x < shot.x1; x += step) {
      for (double y = shot.y0; y < shot.y1; y += step) {
        const double cx = x + step / 2 - px;
        const double cy = y + step / 2 - py;
        const double r2 = cx * cx + cy * cy;
        if (r2 <= 9.0 * kSigma * kSigma) {
          acc += std::exp(-r2 / (kSigma * kSigma)) /
                 (M_PI * kSigma * kSigma) * step * step;
        }
      }
    }
    EXPECT_NEAR(m.shotIntensity(shot, px, py), acc, 2e-3)
        << "(" << px << "," << py << ")";
  }
}

TEST(ProximityModelTest, MinShotStillPrintsCenterAboveRho) {
  // A minimum-size shot (12 nm with sigma 6.25) must still print its
  // centre; this anchors the choice of Lmin.
  const ProximityModel m(kSigma);
  const Rect shot{0, 0, 12, 12};
  EXPECT_GT(m.shotIntensity(shot, 6.0, 6.0), 0.5);
}

TEST(IntensityMapTest, SingleShotMatchesDirectEval) {
  const ProximityModel m(kSigma);
  IntensityMap map(m, {-10, -10}, 50, 50);
  const Rect shot{0, 0, 20, 15};
  map.addShot(shot);
  for (int y = 0; y < 50; y += 7) {
    for (int x = 0; x < 50; x += 7) {
      const double px = -10 + x + 0.5;
      const double py = -10 + y + 0.5;
      const double direct = m.shotIntensity(shot, px, py);
      // Outside the influence window the map holds 0 while direct decays
      // smoothly; both are below 2e-4.
      EXPECT_NEAR(map.at(x, y), direct, 2e-4);
    }
  }
}

TEST(IntensityMapTest, AddRemoveIsIdentity) {
  const ProximityModel m(kSigma);
  IntensityMap map(m, {0, 0}, 40, 40);
  const Rect a{5, 5, 25, 20};
  const Rect b{15, 10, 35, 35};
  map.addShot(a);
  map.addShot(b);
  map.removeShot(a);
  IntensityMap ref(m, {0, 0}, 40, 40);
  ref.addShot(b);
  for (int y = 0; y < 40; ++y) {
    for (int x = 0; x < 40; ++x) {
      EXPECT_NEAR(map.at(x, y), ref.at(x, y), 1e-5);
    }
  }
}

TEST(IntensityMapTest, OverlappingShotsSum) {
  const ProximityModel m(kSigma);
  IntensityMap map(m, {0, 0}, 60, 60);
  const Rect a{10, 10, 30, 30};
  const Rect b{20, 10, 40, 30};
  map.addShot(a);
  map.addShot(b);
  const double px = 25.5;
  const double py = 20.5;
  EXPECT_NEAR(map.at(25, 20),
              m.shotIntensity(a, px, py) + m.shotIntensity(b, px, py), 1e-5);
}

TEST(IntensityMapTest, InfluenceWindowClampsToGrid) {
  const ProximityModel m(kSigma);
  IntensityMap map(m, {0, 0}, 30, 30);
  const Rect w = map.influenceWindow({-100, -100, -50, -50});
  EXPECT_TRUE(w.empty());
  const Rect w2 = map.influenceWindow({10, 10, 20, 20});
  EXPECT_EQ(w2.x0, 0);
  EXPECT_EQ(w2.y1, 30);
}

TEST(CornerRoundingTest, ErosionDepthMatchesClosedForm) {
  const ProximityModel m(kSigma);
  // On the diagonal: F(t)^2 = 0.5 => t = sigma * erfinv(sqrt(2) - 1).
  const double t = m.cornerErosionDepth() / std::sqrt(2.0);
  EXPECT_NEAR(m.edgeProfileExact(t), std::sqrt(0.5), 1e-9);
  EXPECT_GT(t, 0.3 * kSigma);
  EXPECT_LT(t, 0.5 * kSigma);
}

TEST(CornerRoundingTest, ContourIsMonotoneAndSymmetric) {
  const ProximityModel m(kSigma);
  const std::vector<Vec2> contour = m.cornerContour(4.0 * kSigma, 0.05);
  ASSERT_GT(contour.size(), 100u);
  // Every point satisfies F(-x) F(-y) = rho.
  for (std::size_t i = 0; i < contour.size(); i += 25) {
    const Vec2 p = contour[i];
    EXPECT_NEAR(m.edgeProfileExact(-p.x) * m.edgeProfileExact(-p.y), 0.5,
                1e-4);
  }
  // y decreases as x increases (contour bends around the corner).
  for (std::size_t i = 1; i < contour.size(); ++i) {
    EXPECT_LE(contour[i].y, contour[i - 1].y + 1e-9);
  }
}

TEST(IntensityMapTest, TenThousandAddRemoveCyclesLeaveNoResidue) {
  // Regression: the grid accumulates in double. With float storage the
  // separable outer product rounds each pixel update, and 10k add/remove
  // cycles leave ~1e-3 of residue — enough to flip pixels near rho in a
  // long refinement run. Double accumulation keeps the worst pixel below
  // 1e-6 (measured ~1e-8).
  const ProximityModel model(kSigma);
  IntensityMap map(model, {0, 0}, 60, 60);
  std::mt19937 rng(1234);
  std::uniform_int_distribution<int> pos(-10, 50);
  std::uniform_int_distribution<int> len(3, 25);
  std::vector<Rect> shots;
  shots.reserve(10000);
  for (int i = 0; i < 10000; ++i) {
    const int x0 = pos(rng);
    const int y0 = pos(rng);
    shots.push_back({x0, y0, x0 + len(rng), y0 + len(rng)});
    map.addShot(shots.back());
  }
  for (const Rect& s : shots) map.removeShot(s);
  double worst = 0.0;
  for (const double v : map.grid().data()) {
    worst = std::max(worst, std::abs(v));
  }
  EXPECT_LT(worst, 1e-6);
}

TEST(CornerRoundingTest, LthIncreasesWithGamma) {
  const ProximityModel m(kSigma);
  const double l1 = m.computeLth(1.0);
  const double l2 = m.computeLth(2.0);
  const double l4 = m.computeLth(4.0);
  EXPECT_GT(l1, 0.0);
  EXPECT_LT(l1, l2);
  EXPECT_LT(l2, l4);
  // For the paper's setup Lth lands in a few-sigma range.
  EXPECT_GT(l2, 0.5 * kSigma);
  EXPECT_LT(l2, 4.0 * kSigma);
}

TEST(CornerRoundingTest, LthScalesWithSigma) {
  const double gamma = 2.0;
  const ProximityModel small(4.0);
  const ProximityModel large(10.0);
  EXPECT_LT(small.computeLth(gamma), large.computeLth(gamma));
}

TEST(CornerRoundingTest, SweepsAreMonotone) {
  const ProximityModel m(kSigma);
  const std::vector<LthSample> byGamma = sweepLthVsGamma(m, 0.5, 4.0, 0.5);
  ASSERT_GE(byGamma.size(), 7u);
  for (std::size_t i = 1; i < byGamma.size(); ++i) {
    EXPECT_GE(byGamma[i].lth, byGamma[i - 1].lth - 1e-9);
  }
  const std::vector<LthSample> bySigma = sweepLthVsSigma(0.5, 2.0, 4.0, 9.0, 1.0);
  ASSERT_GE(bySigma.size(), 5u);
  for (std::size_t i = 1; i < bySigma.size(); ++i) {
    EXPECT_GE(bySigma[i].lth, bySigma[i - 1].lth - 1e-9);
  }
}

}  // namespace
}  // namespace mbf
