// Full mask-data-prep pipeline on one clip, end to end:
//
//   GDSII in -> fracture (paper's method) -> merge-quality stats ->
//   EPE / dose-latitude review -> shot ordering for the writer ->
//   write-time & cost estimate -> GDSII + shot list out.
//
//   $ ./mdp_pipeline [seed]
//
// This is the "day in the life" demo of the library's non-core modules.
#include <cstdlib>
#include <iostream>

#include "analysis/epe.h"
#include "analysis/shot_stats.h"
#include "benchgen/ilt_synth.h"
#include "cost/write_time.h"
#include "fracture/model_based_fracturer.h"
#include "io/gdsii.h"
#include "io/poly_io.h"
#include "io/table.h"
#include "mdp/hierarchy.h"
#include "mdp/ordering.h"

int main(int argc, char** argv) {
  using namespace mbf;

  IltSynthConfig cfg;
  cfg.seed = argc > 1 ? unsigned(std::atoi(argv[1])) : 1005;
  cfg.numFeatures = 5;
  cfg.numDiagonals = 1;
  const Polygon target = makeIltShape(cfg);

  // 0. Round-trip the target through GDSII, as a real flow would receive
  // it from layout.
  {
    GdsLibrary lib;
    GdsPolygon gp;
    gp.polygon = target;
    gp.layer = 1;
    lib.structures = {GdsStructure{"CLIP", {gp}, {}, {}}};
    saveGds("clip_in.gds", lib);
  }
  GdsLibrary lib;
  std::vector<GdsPolygon> polys;
  Status status = parseGdsFile("clip_in.gds", lib);
  if (status.ok()) status = flattenGdsChecked(lib, "", polys);
  if (!status.ok()) {
    std::cerr << "GDSII round trip failed: " << status.str() << "\n";
    return 1;
  }
  if (polys.empty()) {
    std::cerr << "GDSII round trip lost the polygon\n";
    return 1;
  }
  std::cout << "1. loaded " << polys.size() << " polygon ("
            << polys[0].polygon.size() << " vertices) from GDSII\n";

  // 1. Fracture.
  const Problem problem(polys[0].polygon, FractureParams{});
  const Solution sol = ModelBasedFracturer{}.fracture(problem);
  std::cout << "2. fractured: " << sol.shotCount() << " shots, "
            << sol.failingPixels() << " failing px, "
            << Table::fmt(sol.runtimeSeconds, 2) << " s\n";

  // 2. Manufacturability stats.
  const ShotStats stats = computeShotStats(sol.shots);
  std::cout << "3. shot stats: min dim " << stats.minDimension
            << " nm, slivers " << stats.sliverCount << ", overlap "
            << Table::fmt(100.0 * stats.overlapFraction, 1) << "%\n";

  // 3. Print-fidelity review.
  const EpeReport epe = analyzeEpe(problem, sol.shots);
  std::cout << "4. EPE: mean |" << Table::fmt(epe.meanAbsEpe, 2)
            << "| nm, max |" << Table::fmt(epe.maxAbsEpe, 2) << "| nm, "
            << epe.outOfToleranceCount << "/" << epe.samples.size()
            << " samples out of tolerance, dose sens "
            << Table::fmt(epe.medianDoseSensitivity, 2) << " nm per 5%\n";

  // 4. Writer-friendly ordering.
  const double before = travelLength(sol.shots);
  const std::vector<std::size_t> order = orderShots(sol.shots);
  const std::vector<Rect> ordered = applyOrder(sol.shots, order);
  std::cout << "5. ordering: beam travel " << Table::fmt(before, 0)
            << " nm -> " << Table::fmt(travelLength(ordered), 0) << " nm\n";

  // 5. Economics.
  const WriteTimeModel wt;
  std::cout << "6. write time at full-mask scale (1e9 shots equivalent): "
            << Table::fmt(wt.writeTimeHours(1000000000LL), 1) << " h\n";

  // 6. Ship it.
  saveShots("clip_out.shots", ordered);
  std::cout << "7. wrote clip_in.gds + clip_out.shots\n";
  return sol.feasible() ? 0 : 1;
}
