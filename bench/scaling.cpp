// Runtime scaling of the full method vs shape complexity: feature count
// (boundary complexity at roughly constant area density) and feature
// size (grid area). Supports the paper's claim that per-shape runtime
// stays interactive (~1.4 s) as complexity grows.
#include <iostream>

#include "benchgen/ilt_synth.h"
#include "fracture/model_based_fracturer.h"
#include "io/table.h"

int main() {
  using namespace mbf;

  std::cout << "=== Scaling: runtime vs shape complexity ===\n\n";

  std::cout << "Sweep 1: number of union features (boundary complexity)\n";
  Table t1({"features", "verts", "Pon px", "shots", "fail px", "time s"});
  for (const int features : {2, 4, 6, 8, 12, 16}) {
    IltSynthConfig cfg;
    cfg.seed = 777;
    cfg.numFeatures = features;
    cfg.maxLength = 40 + 6 * features;
    const Polygon shape = makeIltShape(cfg);
    const Problem problem(shape, FractureParams{});
    const Solution sol = ModelBasedFracturer{}.fracture(problem);
    t1.addRow({Table::fmt(features), Table::fmt(std::int64_t(shape.size())),
               Table::fmt(problem.numOnPixels()), Table::fmt(sol.shotCount()),
               Table::fmt(sol.failingPixels()),
               Table::fmt(sol.runtimeSeconds, 2)});
  }
  t1.print(std::cout);

  std::cout << "\nSweep 2: feature size (grid area at fixed topology)\n";
  Table t2({"max feat nm", "grid px", "shots", "fail px", "time s"});
  for (const int size : {30, 45, 60, 90, 120}) {
    IltSynthConfig cfg;
    cfg.seed = 778;
    cfg.numFeatures = 5;
    cfg.minLength = size / 2;
    cfg.maxLength = size;
    const Polygon shape = makeIltShape(cfg);
    const Problem problem(shape, FractureParams{});
    const Solution sol = ModelBasedFracturer{}.fracture(problem);
    t2.addRow({Table::fmt(size),
               Table::fmt(std::int64_t(problem.gridWidth()) *
                          problem.gridHeight()),
               Table::fmt(sol.shotCount()), Table::fmt(sol.failingPixels()),
               Table::fmt(sol.runtimeSeconds, 2)});
  }
  t2.print(std::cout);
  return 0;
}
