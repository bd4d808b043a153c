// Hierarchical cell-fracture cache (DESIGN.md section 17): what does
// exploiting hierarchy buy over flattening? Three runs per layout:
//
//   flat       flatten the GDS and fracture every instance
//   hier cold  fracture each unique cell once, instantiate by
//              translation, populate the persistent cell cache
//   hier warm  same run against the populated cache: zero fractures,
//              pure replay + instantiation
//
// The cold speedup is the paper's hierarchy argument (work scales with
// unique cells, not instances); the warm column is the incremental
// mask-revision story the cache adds on top. The bench also asserts the
// flat and hierarchical shot totals agree, so the speedups are receipts
// for equivalent work, not shortcuts.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "benchgen/ilt_synth.h"
#include "io/gdsii.h"
#include "io/table.h"
#include "mdp/hierarchy.h"
#include "mdp/layout.h"

namespace {

double seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// `cells` unique ILT-like cells, each instanced in a grid x grid AREF;
/// regions are spaced so instances never interact.
mbf::GdsLibrary synthLib(int cells, int grid) {
  mbf::GdsLibrary lib;
  mbf::GdsStructure top{"TOP", {}, {}, {}};
  for (int c = 0; c < cells; ++c) {
    mbf::IltSynthConfig cfg;
    cfg.seed = 9000 + static_cast<unsigned>(c);
    mbf::GdsPolygon p;
    p.polygon = mbf::makeIltShape(cfg);
    mbf::GdsStructure cell{"CELL" + std::to_string(c), {p}, {}, {}};
    mbf::GdsAref aref;
    aref.structName = cell.name;
    aref.origin = {0, c * 1000000};
    aref.columns = grid;
    aref.rows = grid;
    aref.columnPitch = {4000, 0};
    aref.rowPitch = {0, 4000};
    top.arefs.push_back(aref);
    lib.structures.push_back(std::move(cell));
  }
  lib.structures.push_back(std::move(top));
  return lib;
}

}  // namespace

int main() {
  using namespace mbf;

  std::cout << "=== Hierarchy + cell cache: flat vs cold vs warm ===\n"
            << "(identical shot totals asserted; threads = 4)\n\n";

  const std::string cacheRoot = "bench_hier_cache_tmp";
  Table table({"cells", "instances", "flat s", "cold s", "warm s",
               "cold x", "warm x", "shots"});
  bool diverged = false;

  const int layouts[][2] = {{4, 4}, {8, 3}, {6, 6}};
  for (const auto& [cells, grid] : layouts) {
    const GdsLibrary lib = synthLib(cells, grid);
    BatchConfig config;
    config.threads = 4;

    std::vector<GdsPolygon> flatPolys;
    if (!flattenGdsChecked(lib, "TOP", flatPolys).ok()) return 1;
    std::vector<LayoutShape> flatShapes;
    for (GdsPolygon& p : flatPolys) {
      LayoutShape s;
      s.rings.push_back(std::move(p.polygon));
      flatShapes.push_back(std::move(s));
    }
    const auto t0 = std::chrono::steady_clock::now();
    const BatchResult flat = fractureLayout(flatShapes, config);
    const double flatSec = seconds(t0);

    const std::string cacheDir =
        cacheRoot + "/c" + std::to_string(cells) + "g" + std::to_string(grid);
    std::system(("rm -rf '" + cacheDir + "'").c_str());
    HierOptions options;
    options.topStruct = "TOP";
    options.cellCacheDir = cacheDir;

    HierarchicalResult cold;
    const auto t1 = std::chrono::steady_clock::now();
    if (!fractureGdsHierarchical(lib, config, options, cold).ok()) return 1;
    const double coldSec = seconds(t1);

    HierarchicalResult warm;
    const auto t2 = std::chrono::steady_clock::now();
    if (!fractureGdsHierarchical(lib, config, options, warm).ok()) return 1;
    const double warmSec = seconds(t2);

    if (cold.flatShotCount() != flat.totalShots ||
        warm.flatShotCount() != flat.totalShots ||
        warm.uniqueCellsFractured != 0) {
      std::cerr << "hier run diverged from flat (" << cold.flatShotCount()
                << " / " << warm.flatShotCount() << " vs " << flat.totalShots
                << ", warm fractured " << warm.uniqueCellsFractured << ")\n";
      diverged = true;
    }

    table.addRow({std::to_string(cells),
                  std::to_string(static_cast<long long>(
                      cold.instantiatedShapes())),
                  Table::fmt(flatSec, 3), Table::fmt(coldSec, 3),
                  Table::fmt(warmSec, 3),
                  Table::fmt(flatSec / coldSec, 1) + "x",
                  Table::fmt(flatSec / warmSec, 1) + "x",
                  std::to_string(static_cast<long long>(flat.totalShots))});
  }
  table.print(std::cout);
  std::system(("rm -rf '" + cacheRoot + "'").c_str());

  if (diverged) {
    std::cerr << "\nFAIL: hierarchical results diverged from flat\n";
    return 1;
  }
  std::cout << "\nflat == hier shot totals on every layout; warm runs "
               "fractured zero cells\n";
  return 0;
}
