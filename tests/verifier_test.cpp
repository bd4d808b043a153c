// Unit tests for the dose verifier: violation scans, cost, incremental
// updates and the cost-delta evaluation the refiner relies on.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>

#include "benchgen/ilt_synth.h"
#include "benchgen/opc_synth.h"
#include "fracture/fallback.h"
#include "fracture/verifier.h"

namespace mbf {
namespace {

Polygon square(int size) {
  return Polygon({{0, 0}, {size, 0}, {size, size}, {0, size}});
}

class VerifierTest : public ::testing::Test {
 protected:
  VerifierTest() : problem_(square(40), FractureParams{}) {}
  Problem problem_;
};

TEST_F(VerifierTest, NoShotsEverythingOnFails) {
  Verifier v(problem_);
  const Violations viol = v.violations();
  EXPECT_EQ(viol.failOn, problem_.numOnPixels());
  EXPECT_EQ(viol.failOff, 0);
  EXPECT_NEAR(viol.cost, 0.5 * problem_.numOnPixels(), 1e-6);
}

TEST_F(VerifierTest, ExactShotIsFeasible) {
  Verifier v(problem_);
  v.setShots(std::vector<Rect>{{0, 0, 40, 40}});
  const Violations viol = v.violations();
  EXPECT_EQ(viol.failOn, 0);
  EXPECT_EQ(viol.failOff, 0);
  EXPECT_DOUBLE_EQ(viol.cost, 0.0);
}

TEST_F(VerifierTest, OversizedShotFailsOff) {
  Verifier v(problem_);
  v.setShots(std::vector<Rect>{{-10, -10, 50, 50}});
  const Violations viol = v.violations();
  EXPECT_EQ(viol.failOn, 0);
  EXPECT_GT(viol.failOff, 0);
}

TEST_F(VerifierTest, UndersizedShotFailsOn) {
  Verifier v(problem_);
  v.setShots(std::vector<Rect>{{10, 10, 30, 30}});
  const Violations viol = v.violations();
  EXPECT_GT(viol.failOn, 0);
  EXPECT_EQ(viol.failOff, 0);
}

TEST_F(VerifierTest, AddRemoveKeepsStateConsistent) {
  Verifier v(problem_);
  v.addShot({0, 0, 40, 40});
  // An outlier shot near (but outside) the target floods Poff pixels.
  v.addShot({50, 50, 64, 64});
  EXPECT_GT(v.violations().failOff, 0);
  v.removeShot(1);
  EXPECT_EQ(v.violations().total(), 0);
  EXPECT_EQ(v.shots().size(), 1u);
}

TEST_F(VerifierTest, ReplaceShotMatchesRebuild) {
  Verifier incremental(problem_);
  incremental.setShots(std::vector<Rect>{{0, 0, 40, 40}, {5, 5, 20, 20}});
  incremental.replaceShot(1, {10, 10, 35, 35});

  Verifier rebuilt(problem_);
  rebuilt.setShots(std::vector<Rect>{{0, 0, 40, 40}, {10, 10, 35, 35}});

  const Violations a = incremental.violations();
  const Violations b = rebuilt.violations();
  EXPECT_EQ(a.failOn, b.failOn);
  EXPECT_EQ(a.failOff, b.failOff);
  EXPECT_NEAR(a.cost, b.cost, 1e-5);
}

TEST_F(VerifierTest, CostDeltaMatchesRecomputation) {
  Verifier v(problem_);
  v.setShots(std::vector<Rect>{{2, 2, 38, 38}});
  const double before = v.violations().cost;
  const Rect replacement{0, 2, 38, 38};  // move left edge out by 2
  const double predicted = v.costDeltaForReplace(0, replacement);
  v.replaceShot(0, replacement);
  const double after = v.violations().cost;
  EXPECT_NEAR(after - before, predicted, 1e-5);
}

TEST_F(VerifierTest, CostDeltaForNoChangeIsZero) {
  Verifier v(problem_);
  v.setShots(std::vector<Rect>{{0, 0, 40, 40}});
  EXPECT_NEAR(v.costDeltaForReplace(0, {0, 0, 40, 40}), 0.0, 1e-12);
}

TEST_F(VerifierTest, FailingOnMaskMatchesViolations) {
  Verifier v(problem_);
  v.setShots(std::vector<Rect>{{10, 10, 30, 30}});
  const Violations viol = v.violations();
  const MaskGrid mask = v.failingOnMask();
  EXPECT_EQ(mask.count([](std::uint8_t m) { return m != 0; }), viol.failOn);
}

TEST_F(VerifierTest, FailingOffNearCountsOnlyNearby) {
  Verifier v(problem_);
  // Oversized shot floods a ring of Poff pixels around the target.
  v.setShots(std::vector<Rect>{{-8, -8, 48, 48}});
  const double sigma = problem_.model().sigma();
  const std::int64_t near = v.failingOffNear({-8, -8, 48, 48}, sigma);
  EXPECT_GT(near, 0);
  // A rect far away sees none of them.
  EXPECT_EQ(v.failingOffNear({200, 200, 240, 240}, sigma), 0);
}

TEST_F(VerifierTest, EvaluateShotsConvenience) {
  const std::vector<Rect> shots{{0, 0, 40, 40}};
  EXPECT_EQ(evaluateShots(problem_, shots).total(), 0);
}

TEST_F(VerifierTest, WriteStatsFillsSolution) {
  Verifier v(problem_);
  v.setShots(std::vector<Rect>{{10, 10, 30, 30}});
  Solution sol;
  sol.shots = v.shots();
  v.writeStats(sol);
  EXPECT_GT(sol.failOn, 0);
  EXPECT_GT(sol.cost, 0.0);
  EXPECT_FALSE(sol.feasible());
}

// --- ledger consistency --------------------------------------------------

TEST_F(VerifierTest, LedgerMatchesScanAfterEveryMutationKind) {
  Verifier v(problem_);
  v.setShots(std::vector<Rect>{{0, 0, 40, 40}, {5, 5, 22, 22}});
  EXPECT_TRUE(v.ledgerMatchesScan());
  v.addShot({18, 3, 39, 20});
  EXPECT_TRUE(v.ledgerMatchesScan());
  v.replaceShot(1, {6, 5, 22, 22});
  EXPECT_TRUE(v.ledgerMatchesScan());
  v.removeShot(2);
  EXPECT_TRUE(v.ledgerMatchesScan());
  // The exact contract: ledger total equals a fresh scan bit for bit.
  EXPECT_EQ(v.violations(), v.scanViolations());
}

// --- cost-delta oracle regression ----------------------------------------
//
// costDeltaForReplace (cached and uncached) against the ground truth of
// actually performing the replacement and re-measuring violations over
// the union influence window. Exercises the refiner's +-1 single-edge
// hot path (the masked walk), multi-edge moves (the generic fallback),
// Lmin-sized shots and windows clamped at the grid boundary.

TEST_F(VerifierTest, CostDeltaMatchesWindowedOracleOverRandomMoves) {
  const int lmin = problem_.params().lmin;
  Verifier v(problem_);
  v.setShots(std::vector<Rect>{
      {0, 0, 40, 40},              // influence window clamps at the border
      {5, 5, 5 + lmin, 5 + lmin},  // minimum-size shot
      {18, 3, 39, 21},
      {-6, 12, 14, 30},  // sticks out past the grid edge
  });

  std::mt19937 rng(20150601);
  std::uniform_int_distribution<int> pickShot(
      0, static_cast<int>(v.shots().size()) - 1);
  std::uniform_int_distribution<int> pickEdge(0, 3);
  std::uniform_int_distribution<int> pickDelta(-2, 2);

  int tested = 0;
  for (int attempt = 0; attempt < 2000 && tested < 300; ++attempt) {
    const std::size_t i = static_cast<std::size_t>(pickShot(rng));
    const Rect old = v.shots()[i];
    Rect cand = old;
    // One moved edge is the refiner's candidate shape; two and four
    // moved edges force the generic (unmasked) evaluation path.
    const int movedEdges = 1 + (attempt % 3 == 2 ? 3 : attempt % 3);
    for (int e = 0; e < movedEdges; ++e) {
      const int d = pickDelta(rng);
      switch (pickEdge(rng)) {
        case 0: cand.x0 += d; break;
        case 1: cand.x1 += d; break;
        case 2: cand.y0 += d; break;
        default: cand.y1 += d; break;
      }
    }
    if (cand == old || cand.width() < lmin || cand.height() < lmin) continue;
    ++tested;

    const double uncached = v.costDeltaForReplace(i, cand);
    CandidateEvalCache cache;
    const double cached = v.costDeltaForReplace(i, cand, cache);
    // Bitwise: the cached path must round identically to the uncached one.
    EXPECT_EQ(uncached, cached) << old.str() << " -> " << cand.str();

    const Rect w = v.intensity().influenceWindow(old.unionWith(cand));
    const Violations before = v.violationsInWindow(w);
    v.replaceShot(i, cand);
    const Violations after = v.violationsInWindow(w);
    v.replaceShot(i, old);  // restore
    // The prediction is evaluated over the moved-edge strip's 3-sigma
    // influence window while the actual update spans the whole shot's;
    // the Gaussian tail beyond the horizon bounds the gap at ~1e-4
    // (DESIGN.md deviation 2), which is the accuracy contract here.
    EXPECT_NEAR(after.cost - before.cost, uncached, 2e-4)
        << old.str() << " -> " << cand.str();
  }
  EXPECT_GE(tested, 200);
}

TEST_F(VerifierTest, CostDeltaOffGridWindowIsZero) {
  Verifier v(problem_);
  // Second shot lies so far outside the grid that the union influence
  // window clamps to empty; the contract is exactly 0.0, not "small".
  v.setShots(std::vector<Rect>{{0, 0, 40, 40}, {300, 300, 340, 340}});
  CandidateEvalCache cache;
  EXPECT_EQ(v.costDeltaForReplace(1, {301, 300, 341, 340}), 0.0);
  EXPECT_EQ(v.costDeltaForReplace(1, {301, 300, 341, 340}, cache), 0.0);
}

/// The refiner's candidate set for shot `s`: its eight +-1 nm
/// single-edge moves.
std::vector<Rect> singleEdgeMoves(const Rect& s) {
  return {{s.x0 - 1, s.y0, s.x1, s.y1}, {s.x0 + 1, s.y0, s.x1, s.y1},
          {s.x0, s.y0, s.x1 - 1, s.y1}, {s.x0, s.y0, s.x1 + 1, s.y1},
          {s.x0, s.y0 - 1, s.x1, s.y1}, {s.x0, s.y0 + 1, s.x1, s.y1},
          {s.x0, s.y0, s.x1, s.y1 - 1}, {s.x0, s.y0, s.x1, s.y1 + 1}};
}

TEST_F(VerifierTest, SharedCacheCandidateSetMatchesUncachedBitwise) {
  Verifier v(problem_);
  v.setShots(std::vector<Rect>{{0, 0, 40, 40}, {8, 6, 30, 27}});

  // The refiner's exact access pattern: one cache reused across a shot's
  // whole +-1 single-edge candidate set.
  const Rect base = v.shots()[1];
  CandidateEvalCache cache;
  for (const Rect& cand : singleEdgeMoves(base)) {
    EXPECT_EQ(v.costDeltaForReplace(1, cand, cache),
              v.costDeltaForReplace(1, cand))
        << cand.str();
  }

  // Mutating the verifier bumps its generation; the stale cache must
  // re-prime instead of reusing dead profiles.
  v.replaceShot(1, {base.x0 + 1, base.y0, base.x1, base.y1});
  const Rect moved = v.shots()[1];
  const Rect cand{moved.x0, moved.y0 - 1, moved.x1, moved.y1};
  EXPECT_EQ(v.costDeltaForReplace(1, cand, cache),
            v.costDeltaForReplace(1, cand));
}

/// OPC and ILT suite clips 0-2. Their verifiers start from the partition
/// fallback's shots: deterministic, cheap, and shaped like the refiner's
/// starting point.
std::vector<Polygon> suiteClips() {
  std::vector<Polygon> clips;
  for (std::size_t i = 0; i < 3; ++i) {
    clips.push_back(makeOpcShape(opcSuiteConfigs()[i]));
    clips.push_back(makeIltShape(iltSuiteConfigs()[i]));
  }
  return clips;
}

TEST(VerifierSuiteTest, CachedCandidateDeltasMatchUncachedBitwise) {
  for (const Polygon& clip : suiteClips()) {
    const Problem problem(clip, FractureParams{});
    Verifier v(problem);
    v.setShots(fallbackFracture(problem).shots);
    ASSERT_FALSE(v.shots().empty());
    // One cache across every shot's candidate set.
    CandidateEvalCache cache;
    for (std::size_t i = 0; i < v.shots().size(); ++i) {
      for (const Rect& cand : singleEdgeMoves(v.shots()[i])) {
        const double cached = v.costDeltaForReplace(i, cand, cache);
        const double uncached = v.costDeltaForReplace(i, cand);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(cached),
                  std::bit_cast<std::uint64_t>(uncached))
            << "shot " << i << " -> " << cand.str();
      }
    }
  }
}

TEST(VerifierSuiteTest, LedgerMatchesScanOverAlternatingEdgeMoves) {
  for (const Polygon& clip : suiteClips()) {
    const Problem problem(clip, FractureParams{});
    Verifier v(problem);
    v.setShots(fallbackFracture(problem).shots);
    ASSERT_FALSE(v.shots().empty());
    // Shot 0's right edge steps +1, -1, +1, ...: each move dirties the
    // same row band, and the ledger refreshes it lazily on query.
    for (int k = 0; k < 64; ++k) {
      Rect r = v.shots()[0];
      r.x1 += (k % 2 == 0) ? 1 : -1;
      v.replaceShot(0, r);
      ASSERT_TRUE(v.violations() == v.scanViolations()) << "move " << k;
    }
    EXPECT_TRUE(v.ledgerMatchesScan());
  }
}

}  // namespace
}  // namespace mbf
