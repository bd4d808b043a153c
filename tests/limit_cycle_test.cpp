// The refiner's limit-cycle exit (fracture/refiner): refine() returns as
// soon as its loop state after a structural step or a feasible-merge
// restart repeats exactly, with the solution a run to Nmax returns.
// Built into the tsan-labelled binary, so both sanitizer presets replay
// the checkpoint bookkeeping.
#include <gtest/gtest.h>

#include <span>

#include "benchgen/opc_synth.h"
#include "io/atomic_file.h"
#include "io/poly_io.h"
#include "mdp/layout.h"

namespace mbf {
namespace {

TEST(RefinerTest, OpcClip5ReturnsAtItsLimitCycle) {
  // OPC suite clip 5 repeats its whole loop state from iteration 317
  // with period 24; without the exit it refines to Nmax = 1500.
  LayoutShape shape;
  shape.rings.push_back(makeOpcShape(opcSuiteConfigs()[5]));
  RefinerStats stats;
  const ShapeOutcome outcome =
      fractureShapeGuarded(shape, FractureParams{}, Method::kOurs, 0,
                           /*allowDegradation=*/true, &stats);
  ASSERT_TRUE(outcome.status.ok()) << outcome.status.str();
  EXPECT_LT(stats.iterations, 400);
  EXPECT_EQ(stats.limitCycleExits, 1);
  // The .shots digest of the run to Nmax, recorded before the exit.
  EXPECT_EQ(sha256Hex(formatBatchShots(
                std::span<const Solution>(&outcome.solution, 1))),
            "079508c79ba6675d8721a32aaf1321be2fa6dc4aba9adc7b6ab35e0b04905772");
}

}  // namespace
}  // namespace mbf
