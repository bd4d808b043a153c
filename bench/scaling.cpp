// Runtime scaling of the full method vs shape complexity: feature count
// (boundary complexity at roughly constant area density) and feature
// size (grid area). Supports the paper's claim that per-shape runtime
// stays interactive (~1.4 s) as complexity grows.
//
// `scaling --thread-sweep` instead measures the parallel layout engine:
// the OPC suite is fractured with 1/2/4/8 worker threads, the shot lists
// are checked byte-identical against the serial run, and one JSON object
// per thread count is printed (machine-readable speedup evidence).
#include <cstring>
#include <iostream>

#include "benchgen/ilt_synth.h"
#include "benchgen/opc_synth.h"
#include "fracture/model_based_fracturer.h"
#include "io/table.h"
#include "mdp/layout.h"
#include "support/telemetry.h"

namespace {

bool sameShots(const mbf::BatchResult& a, const mbf::BatchResult& b) {
  if (a.solutions.size() != b.solutions.size()) return false;
  for (std::size_t i = 0; i < a.solutions.size(); ++i) {
    if (a.solutions[i].shots != b.solutions[i].shots) return false;
  }
  return true;
}

int runThreadSweep() {
  using namespace mbf;

  // A layout of the ten deterministic OPC clips, replicated 3x so there
  // are enough independent jobs to feed eight workers.
  std::vector<LayoutShape> shapes;
  for (int rep = 0; rep < 3; ++rep) {
    for (const OpcSynthConfig& cfg : opcSuiteConfigs()) {
      OpcSynthConfig c = cfg;
      c.seed += static_cast<std::uint32_t>(1000 * rep);
      LayoutShape shape;
      shape.rings.push_back(makeOpcShape(c));
      shapes.push_back(std::move(shape));
    }
  }

  BatchResult serial;
  double serialWall = 0.0;
  bool allIdentical = true;
  JsonWriter w;
  w.beginArray();
  for (const int threads : {1, 2, 4, 8}) {
    BatchConfig config;
    config.threads = threads;
    config.params.numThreads = threads;
    const BatchResult result = fractureLayout(shapes, config);
    const bool identical = threads == 1 || sameShots(result, serial);
    if (threads == 1) {
      serial = result;
      serialWall = result.wallSeconds;
    }
    const RefinerStats& rs = result.refinerStats;
    w.beginObject();
    w.key("threads").value(threads);
    w.key("shapes").value(static_cast<std::uint64_t>(shapes.size()));
    w.key("shots").value(result.totalShots);
    w.key("fail_px").value(result.totalFailingPixels);
    w.key("wall_seconds").value(result.wallSeconds);
    w.key("shape_seconds_sum").value(result.shapeSecondsSum);
    w.key("speedup").value(
        result.wallSeconds > 0.0 ? serialWall / result.wallSeconds : 0.0);
    w.key("identical_to_serial").value(identical);
    w.key("stage_seconds").beginObject();
    w.key("setup").value(rs.setupSeconds);
    w.key("violation_scan").value(rs.violationSeconds);
    w.key("edge_move").value(rs.edgeMoveSeconds);
    w.key("bias").value(rs.biasSeconds);
    w.key("structural").value(rs.structuralSeconds);
    w.key("merge").value(rs.mergeSeconds);
    w.endObject();
    w.endObject();
    if (!identical) {
      allIdentical = false;
      std::cerr << "FAIL: " << threads
                << "-thread shot lists differ from serial\n";
      break;
    }
  }
  w.endArray();
  std::cout << w.str() << "\n";
  return allIdentical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mbf;

  if (argc > 1 && std::strcmp(argv[1], "--thread-sweep") == 0) {
    return runThreadSweep();
  }

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
