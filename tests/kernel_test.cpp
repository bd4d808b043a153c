// Oracle tests for the refine hot-path kernels: the half-integer profile
// table, the int64 pixel-profile routine, and the one-pass row
// classifier (SSE2 on x86-64) against its scalar reference. Built into
// the tsan-labelled binary, so both sanitizer presets replay them — in
// particular ASan/UBSan watch the 16-cell loads at the end of each row.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <utility>
#include <vector>

#include "ebeam/proximity_model.h"
#include "fracture/problem.h"
#include "fracture/verifier.h"

namespace mbf {
namespace {

// Every model the table must reproduce: the paper's sigma, sigmas the
// tests sweep, and a two-Gaussian mixture.
std::vector<ProximityModel> tableModels() {
  return {ProximityModel(3.0), ProximityModel(6.25), ProximityModel(7.0),
          ProximityModel(10.0), ProximityModel(6.25, 0.5, 0.3, 18.75)};
}

double maxSigmaOf(const ProximityModel& m) {
  return m.backscatterEta() > 0.0
             ? std::max(m.sigma(), m.backscatterSigma())
             : m.sigma();
}

TEST(ProfileTableTest, ExactInsideRangeAndSaturatedBeyond) {
  for (const ProximityModel& m : tableModels()) {
    const double range = 4.0 * maxSigmaOf(m);
    const std::int64_t reach = static_cast<std::int64_t>(range) + 8;
    int exact = 0;
    for (std::int64_t k = -reach; k <= reach; ++k) {
      const double t = static_cast<double>(k) - 0.5;
      const double v = m.halfIntegerProfile(k);
      if (std::abs(t) < range) {
        EXPECT_EQ(v, m.edgeProfileExact(t))
            << "sigma " << m.sigma() << " k " << k;
        ++exact;
      } else {
        EXPECT_EQ(v, t < 0.0 ? 0.0 : 1.0)
            << "sigma " << m.sigma() << " k " << k;
      }
    }
    EXPECT_GT(exact, 0);
    // Far beyond the table the profile stays saturated.
    EXPECT_EQ(m.halfIntegerProfile(std::numeric_limits<std::int32_t>::min()),
              0.0);
    EXPECT_EQ(m.halfIntegerProfile(std::numeric_limits<std::int32_t>::max()),
              1.0);
  }
}

TEST(ProfileTableTest, MaxUnitStepIsTheCentredStep) {
  // The slope peaks at t = 0, so the largest +-1 step over half-integers
  // is T[1] - T[0] (t = -1/2 to +1/2), and it bounds every other step.
  for (const ProximityModel& m : tableModels()) {
    EXPECT_EQ(m.maxUnitStep(),
              m.halfIntegerProfile(1) - m.halfIntegerProfile(0))
        << "sigma " << m.sigma();
    for (std::int64_t k = -200; k <= 200; ++k) {
      EXPECT_LE(m.halfIntegerProfile(k + 1) - m.halfIntegerProfile(k),
                m.maxUnitStep());
    }
  }
}

TEST(PixelProfileTest, MatchesPerPixelTableDifferences) {
  const ProximityModel m(6.25);
  const int n = 90;
  std::vector<double> out(n);
  for (const double scale : {1.0, -1.0, 0.75}) {
    m.pixelProfile(-7, 33, -40, n, scale, out.data());
    for (int i = 0; i < n; ++i) {
      // Pixel i's centre sits at -40 + i + 1/2.
      const std::int64_t c = -40 + i;
      EXPECT_EQ(out[static_cast<std::size_t>(i)],
                scale * (m.halfIntegerProfile(33 - c) -
                         m.halfIntegerProfile(-7 - c)))
          << i;
    }
  }
}

TEST(PixelProfileTest, NearInt32LimitsEqualsTheProfileAtTheOrigin) {
  // Shot edges and pixel rows within 64 nm of +-2^31: the int64 index
  // arithmetic must give exactly the profile of the same geometry
  // translated to the origin.
  const ProximityModel m(6.25, 0.5, 0.3, 18.75);
  const std::int64_t limits[] = {std::int64_t{1} << 31,
                                 -(std::int64_t{1} << 31)};
  const int n = 128;
  std::vector<double> far(n);
  std::vector<double> near(n);
  for (const std::int64_t limit : limits) {
    for (const int p : {-64, -40, -1, 0}) {
      for (const auto& [d0, d1] : {std::pair{3, 40}, {-20, 60}, {50, 63}}) {
        const std::int64_t base = limit + p;
        m.pixelProfile(base + d0, base + d1, base, n, 1.0, far.data());
        m.pixelProfile(d0, d1, 0, n, 1.0, near.data());
        EXPECT_EQ(far, near) << "limit " << limit << " p " << p;
      }
    }
  }
}

// --- one-pass row classification: SSE2 vs scalar ---------------------

TEST(RowClassifyTest, SimdMatchesScalarOnRandomRows) {
  // Intensities exactly at rho and at both band edges, their immediate
  // neighbours, and random values; every width 1..200, so most rows end
  // in a partial 16-cell step and a partial 64-bit word. Buffers are
  // exactly `width` long, so ASan sees any overrun.
  const ProximityModel model;
  const double step = model.maxUnitStep() * (1.0 + 1e-9) + 1e-9;
  RowThresholds t;
  t.rho = model.rho();
  t.bandLo = t.rho - step;
  t.bandHi = t.rho + step;
  const double inf = std::numeric_limits<double>::infinity();
  const double special[] = {t.rho,
                            t.bandLo,
                            t.bandHi,
                            std::nextafter(t.rho, -inf),
                            std::nextafter(t.rho, inf),
                            std::nextafter(t.bandLo, -inf),
                            std::nextafter(t.bandHi, -inf),
                            std::nextafter(t.bandHi, inf),
                            0.0,
                            1.0};
  std::mt19937 rng(20260501);
  std::uniform_int_distribution<int> cls(0, 2);
  std::uniform_int_distribution<int> pick(0, 19);
  std::uniform_real_distribution<double> any(0.0, 1.2);
  for (int width = 1; width <= 200; ++width) {
    for (int trial = 0; trial < 6; ++trial) {
      std::vector<std::uint8_t> classes(static_cast<std::size_t>(width));
      std::vector<double> inten(static_cast<std::size_t>(width));
      for (int x = 0; x < width; ++x) {
        classes[static_cast<std::size_t>(x)] =
            static_cast<std::uint8_t>(cls(rng));
        const int k = pick(rng);
        inten[static_cast<std::size_t>(x)] = k < 10 ? special[k] : any(rng);
      }
      const std::size_t words = static_cast<std::size_t>((width + 63) / 64);
      // Stale bits in the output must be overwritten, not OR-ed into.
      std::vector<std::uint64_t> simdMask(words, ~0ULL);
      std::vector<std::uint64_t> scalarMask(words, ~0ULL);
      const Violations simd =
          classifyRow(classes.data(), inten.data(), width, t, simdMask.data());
      const Violations scalar = classifyRowScalar(
          classes.data(), inten.data(), width, t, scalarMask.data());
      EXPECT_EQ(simd, scalar) << "width " << width;  // bitwise cost
      EXPECT_EQ(simdMask, scalarMask) << "width " << width;

      // The scalar reference itself against the definition.
      Violations ref;
      for (int x = 0; x < width; ++x) {
        const double i = inten[static_cast<std::size_t>(x)];
        const auto c =
            static_cast<PixelClass>(classes[static_cast<std::size_t>(x)]);
        const bool bit =
            (scalarMask[static_cast<std::size_t>(x >> 6)] >> (x & 63)) & 1u;
        if (c == PixelClass::kOn) {
          if (i < t.rho) {
            ++ref.failOn;
            ref.cost += t.rho - i;
          }
          EXPECT_EQ(bit, i < t.bandHi);
        } else if (c == PixelClass::kOff) {
          if (i >= t.rho) {
            ++ref.failOff;
            ref.cost += i - t.rho;
          }
          EXPECT_EQ(bit, i >= t.bandLo);
        } else {
          EXPECT_FALSE(bit);
        }
      }
      EXPECT_EQ(scalar, ref) << "width " << width;
      if (width % 64 != 0) {
        EXPECT_EQ(scalarMask.back() >> (width % 64), 0u) << "width " << width;
      }
    }
  }
}

}  // namespace
}  // namespace mbf
