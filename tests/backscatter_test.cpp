// Tests for the two-Gaussian PSF extension (forward + backscatter).
#include <gtest/gtest.h>

#include "fracture/model_based_fracturer.h"

namespace mbf {
namespace {

Polygon square(int size) {
  return Polygon({{0, 0}, {size, 0}, {size, size}, {0, size}});
}

TEST(BackscatterTest, EtaZeroMatchesSingleGaussian) {
  const ProximityModel single(6.25, 0.5);
  const ProximityModel twoG(6.25, 0.5, 0.0, 18.75);
  for (double t = -20.0; t <= 20.0; t += 1.7) {
    EXPECT_DOUBLE_EQ(single.edgeProfileExact(t), twoG.edgeProfileExact(t));
  }
}

TEST(BackscatterTest, ProfileIsMixture) {
  const double eta = 0.2;
  const ProximityModel fwd(6.25, 0.5);
  const ProximityModel back(18.75, 0.5);
  const ProximityModel mix(6.25, 0.5, eta, 18.75);
  for (double t = -30.0; t <= 30.0; t += 2.3) {
    EXPECT_NEAR(mix.edgeProfileExact(t),
                (1 - eta) * fwd.edgeProfileExact(t) +
                    eta * back.edgeProfileExact(t),
                1e-12);
  }
}

TEST(BackscatterTest, InfluenceRadiusGrowsWithBackscatter) {
  const ProximityModel single(6.25, 0.5);
  const ProximityModel mix(6.25, 0.5, 0.1, 20.0);
  EXPECT_GT(mix.influenceRadius(), single.influenceRadius());
  EXPECT_DOUBLE_EQ(mix.influenceRadius(), 60.0);
}

TEST(BackscatterTest, LutStillAccurate) {
  // The table spans 4 sigma of the wider (backscatter) Gaussian.
  const ProximityModel mix(6.25, 0.5, 0.15, 20.0);
  for (int k = -79; k <= 80; ++k) {
    EXPECT_EQ(mix.halfIntegerProfile(k), mix.edgeProfileExact(k - 0.5)) << k;
  }
  EXPECT_EQ(mix.halfIntegerProfile(-80), 0.0);
  EXPECT_EQ(mix.halfIntegerProfile(81), 1.0);
}

TEST(BackscatterTest, MidEdgeStillPrintsAtHalf) {
  // The mixture of two antisymmetric profiles is antisymmetric, so an
  // isolated long edge still prints exactly at rho = 0.5 on the edge.
  const ProximityModel mix(6.25, 0.5, 0.2, 18.75);
  const Rect shot{0, 0, 200, 200};
  EXPECT_NEAR(mix.shotIntensity(shot, 0.0, 100.0), 0.5, 1e-6);
}

TEST(BackscatterTest, CornerRoundingWorsens) {
  // Backscatter softens the profile, so corner erosion deepens and the
  // printable 45-degree segment lengthens.
  const ProximityModel single(6.25, 0.5);
  const ProximityModel mix(6.25, 0.5, 0.2, 18.75);
  EXPECT_GT(mix.cornerErosionDepth(), single.cornerErosionDepth());
  EXPECT_GT(mix.computeLth(2.0), single.computeLth(2.0));
}

TEST(BackscatterTest, PipelineStillSolvesSquare) {
  FractureParams params;
  params.backscatterEta = 0.1;
  params.backscatterSigma = 15.0;
  Problem p(square(60), params);
  const Solution sol = ModelBasedFracturer{}.fracture(p);
  EXPECT_EQ(sol.shotCount(), 1);
  EXPECT_TRUE(sol.feasible());
}

TEST(BackscatterTest, ParamsPlumbedThroughProblem) {
  FractureParams params;
  params.backscatterEta = 0.12;
  params.backscatterSigma = 17.0;
  Problem p(square(40), params);
  EXPECT_DOUBLE_EQ(p.model().backscatterEta(), 0.12);
  EXPECT_DOUBLE_EQ(p.model().backscatterSigma(), 17.0);
}

}  // namespace
}  // namespace mbf
