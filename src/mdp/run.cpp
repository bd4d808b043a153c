#include "mdp/run.h"

#include <filesystem>
#include <iostream>
#include <utility>

#include "analysis/shot_stats.h"
#include "audit/verify_run.h"
#include "io/atomic_file.h"
#include "io/gdsii.h"
#include "io/poly_io.h"
#include "io/svg.h"
#include "io/table.h"
#include "mdp/ordering.h"
#include "support/perf_counters.h"
#include "support/telemetry.h"

namespace mbf {
namespace {

/// What --selfcheck audits the written .shots against: each plan cell's
/// claims, read from the cell's first instance the way the manifest
/// lists them and the way --verify reads them back, expanded over the
/// plan.
std::vector<ShapeExpectation> runClaims(const HierPlan& plan,
                                        const BatchResult& result,
                                        bool ordered) {
  std::vector<CellClaims<ShapeExpectation>> cells;
  for (const RunManifestInfo::CellGroup& group : planCellGroups(plan)) {
    CellClaims<ShapeExpectation>& cell = cells.emplace_back();
    cell.instances = group.instances;
    for (std::int64_t i = group.firstResult;
         i < group.firstResult + group.shapes; ++i) {
      const Solution& sol = result.solutions[static_cast<std::size_t>(i)];
      const ShapeReport& rep = result.reports[static_cast<std::size_t>(i)];
      cell.shapes.push_back({sol.method, sol.failOn, sol.failOff, sol.cost,
                             sol.degraded, rep.status.ok() || sol.degraded,
                             !ordered});
    }
  }
  std::vector<std::string> issues;  // the plan's own cells always match
  return expandCellClaims(plan, cells, issues);
}

}  // namespace

int runLayout(const RunConfig& config) {
  const BatchConfig& batch = config.batch;
  const HierOptions& options = config.options;
  const std::string& inputPath = config.inputPath;
  const std::string& outputPath = config.outputPath;
  const std::string& journalPath = options.journalPath;

  // Advisory liveness locks (DESIGN.md section 19): while held, a
  // concurrent run's stale-temp sweep proves this process LIVE and
  // leaves its in-flight `.tmp.<pid>` files alone, even after pid
  // reuse. Best effort — on an unlockable filesystem concurrent sweeps
  // fall back to the conservative kill(pid, 0) probe.
  const std::string outDir = dirnameOf(outputPath);
  const std::string jrnDir = dirnameOf(journalPath);
  DirLivenessLock outputDirLock;
  DirLivenessLock journalDirLock;
  outputDirLock.acquire(outDir);
  if (!journalPath.empty() && jrnDir != outDir) journalDirLock.acquire(jrnDir);

  // --resume cleanup: an earlier writer of the output or journal may
  // have died inside atomicWriteFile, leaving `<name>.tmp.<pid>`
  // orphans. Sweep the ones whose writer is provably dead so retries of
  // a failing run do not accumulate temps (DESIGN.md section 18).
  int sweptTemps = 0;
  if (options.resume) {
    sweptTemps = sweepStaleTempFiles(outDir);
    if (jrnDir != outDir) sweptTemps += sweepStaleTempFiles(jrnDir);
    if (sweptTemps > 0) {
      std::cerr << "resume: removed " << sweptTemps
                << " stale temp file(s) left by dead writers\n";
    }
  }

  // Tracing on before any traced work starts. Spans never change what is
  // computed, so the output stays byte-identical either way.
  if (!config.traceJsonPath.empty()) TraceRecorder::instance().enable();

  // 1. Plan: a flat layout is a one-level plan with one anchored cell per
  // distinct shape; --hier plans the GDS structure tree.
  HierPlan plan;
  {
    std::string warning;
    const Status st = planLayoutFile(inputPath, batch, config.hier,
                                     options.topStruct, plan, &warning);
    if (!st.ok()) {
      std::cerr << "cannot read " << inputPath << ": " << st.str() << "\n";
      return 3;
    }
    if (!warning.empty()) {
      std::cerr << "warning: " << inputPath << ": " << warning << "\n";
    }
  }
  if (!config.hier) {
    std::cerr << "fracturing " << plan.instances.size() << " shape(s) ("
              << plan.cells.size() << " distinct) with method '"
              << toString(batch.method) << "'...\n";
  }

  // 2. Execute: in process, or supervised across forked worker
  // processes, which this process shards, watches, retries and isolates
  // while it journals and caches what they stream back; either way
  // journaled, cached and instantiated by the one plan executor.
  SupervisorConfig sup = config.supervisor;
  sup.workDir = outputPath + ".workers";
  sup.verbose = config.report;
  HierarchicalResult run;
  RunCounters counters;
  Status runStatus;
  {
    TraceScope span("driver");
    runStatus = fracturePlan(plan, batch, options, run, &counters,
                             config.isolate ? &sup : nullptr);
  }
  if (!runStatus.ok()) {
    // Degrade-don't-die: a downgraded journal leaves the run complete in
    // memory; ship the shots, drop the (unsealed) journal artifact, exit
    // 2 via the ladder below.
    if (!counters.journalDowngraded) {
      std::cerr << "fracture: " << runStatus.str() << "\n";
      return 3;
    }
    std::cerr << "journal: append failed mid-run; completing unjournaled: "
              << runStatus.str() << "\n";
  }
  // What the manifest will say about the run, filled in as it goes.
  RunManifestInfo info;
  info.inputPath = inputPath;
  info.outputPath = outputPath;
  info.haveRecovery = !journalPath.empty() || config.isolate;
  info.isolatedShapes = run.isolatedShapes;
  counters.staleTempsRemoved += sweptTemps;
  if (!run.isolatedShapes.empty()) {
    std::cerr << "supervisor: crash-isolated plan-shape ordinal(s):";
    for (const int ordinal : run.isolatedShapes) std::cerr << " " << ordinal;
    std::cerr << "\n";
  }
  if (run.cellCacheDisabled) {
    // Degrade-don't-die: the cache is an accelerator, never a
    // correctness dependency; a sick cache filesystem costs speed on the
    // NEXT run, not this run's shots.
    std::cerr << "cell-cache: disabled for the rest of the run after "
              << run.cellCacheIoErrors << " I/O error(s): "
              << run.cellCacheDisableCause << "\n";
  }
  if (config.hier) {
    std::cerr << "hier: top '" << run.topStruct << "', "
              << run.reachableCells << " reachable cell(s), "
              << run.cellCacheHits << " cache hit(s), "
              << run.uniqueCellsFractured << " fractured, "
              << run.instancesExpanded << " instance(s), "
              << run.instanceShapes.size() << " instantiated shape(s)\n";
  }
  std::vector<LayoutShape> shapes = std::move(run.instanceShapes);
  BatchResult result = std::move(run.batch);
  RunManifestInfo::HierInfo& hierInfo = info.hier;
  hierInfo.enabled = config.hier;
  // The flatten/expansion root, recorded even for flat .gds runs, so
  // --verify re-derives the layout from the same structure (an explicit
  // --top-cell may disambiguate roots the auto-detection would refuse).
  hierInfo.topCell = run.topStruct;
  hierInfo.cacheDir = options.cellCacheDir;
  hierInfo.reachableCells = run.reachableCells;
  hierInfo.uniqueCellsFractured = run.uniqueCellsFractured;
  hierInfo.uniqueShapesFractured = run.uniqueShapesFractured;
  hierInfo.cacheHits = run.cellCacheHits;
  hierInfo.cacheMisses = run.cellCacheMisses;
  hierInfo.cacheRejected = run.cellCacheRejected;
  hierInfo.instancesExpanded = run.instancesExpanded;
  hierInfo.cacheIoErrors = run.cellCacheIoErrors;
  hierInfo.cacheEvicted = run.cellCacheEvicted;
  hierInfo.cacheEvictionsSkippedLive = run.cellCacheEvictionsSkippedLive;
  hierInfo.cacheDisabled = run.cellCacheDisabled;

  if (config.order) {
    for (Solution& sol : result.solutions) {
      sol.shots = applyOrder(sol.shots, orderShots(sol.shots));
    }
  }

  const bool interrupted = result.interruptedShapes > 0;

  // Emit .shots atomically, keeping the hash for the manifest. The bytes
  // are identical with --selfcheck on or off: the audit reads back what
  // was written and never touches a passing run's output.
  std::string shotsSha256;
  bool selfcheckFailed = false;
  auto writeShotsFile = [&]() {
    TraceScope span("io.shots_write");
    const Status st = atomicWriteFile(
        outputPath, formatBatchShots(result.solutions), &shotsSha256);
    if (!st.ok()) {
      std::cerr << "cannot write " << outputPath << ": " << st.str() << "\n";
    }
    return st.ok();
  };
  if (!writeShotsFile()) return 3;

  if (config.selfcheck) {
    // In-process audit of the artifact just written, through the path
    // --verify takes — reading the file back, so a write-path defect is
    // caught too, not just a compute-path one — against the claims the
    // manifest will list.
    auto auditOnce = [&]() {
      AuditReport audit;
      const Status st =
          auditShotsFile(outputPath, shapes, batch.params,
                         runClaims(plan, result, config.order),
                         batch.threads, audit);
      if (!st.ok()) audit.findings.push_back({-1, st.str()});
      return audit;
    };

    AuditReport audit = auditOnce();
    if (audit.clean()) {
      std::cerr << "selfcheck: " << audit.shapesAudited
                << " shape(s) audited (" << audit.denseEvaluations
                << " distinct evaluated), 0 findings\n";
    } else {
      std::cerr << "selfcheck: " << audit.findings.size()
                << " finding(s):\n" << audit.str();
      // Repair ladder (repairPlanShapes): each failing plan-cell shape is
      // re-fractured once, fallback only, and installed, translated, into
      // every instance of its cell — which the content-keyed audit flags
      // together — so every instance of a cell keeps one set of claims.
      // Those shapes are tagged "repaired" in the manifest, and the
      // artifact is rewritten and re-audited. A shape still failing after
      // that is an integrity failure (exit 6).
      std::vector<int> flagged;
      for (const AuditFinding& f : audit.findings) {
        if (f.shapeIndex < 0 ||
            static_cast<std::size_t>(f.shapeIndex) >= shapes.size()) {
          selfcheckFailed = true;  // file-level finding: nothing to repair
          continue;
        }
        flagged.push_back(f.shapeIndex);
      }
      const PlanRepair repair = repairPlanShapes(plan, batch, flagged, result);
      info.repairedShapes = repair.instanceShapes;
      if (repair.cellShapes > 0) {
        if (!writeShotsFile()) return 3;
        AuditReport reaudit = auditOnce();
        if (reaudit.clean()) {
          std::cerr << "selfcheck: repaired " << repair.cellShapes
                    << " plan-cell shape(s) (" << info.repairedShapes.size()
                    << " instance(s)); audit now clean\n";
        } else {
          std::cerr << "selfcheck: still failing after repair:\n"
                    << reaudit.str();
          selfcheckFailed = true;
        }
      }
    }
  }

  if (config.report) {
    Table table({"shape", "rings", "shots", "fail px", "s", "status"});
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      const Solution& sol = result.solutions[i];
      const ShapeReport& rep = result.reports[i];
      std::string status = rep.degraded ? "degraded" : "ok";
      if (!rep.status.ok()) {
        status += " (" + std::string(toString(rep.status.code())) + ")";
      }
      table.addRow({std::to_string(i),
                    Table::fmt(std::int64_t(shapes[i].rings.size())),
                    Table::fmt(sol.shotCount()),
                    Table::fmt(sol.failingPixels()),
                    Table::fmt(sol.runtimeSeconds, 2), status});
    }
    table.print(std::cout);
    std::cout << "perf: " << summarize(result.refinerStats.perf) << "\n";
    if (result.degradedShapes > 0) {
      std::cout << "degraded shapes (" << result.degradedShapes << "):\n";
      for (std::size_t i = 0; i < result.reports.size(); ++i) {
        if (result.reports[i].degraded) {
          std::cout << "  shape " << i << ": "
                    << result.reports[i].status.str() << "\n";
        }
      }
    }
  }

  // Auxiliary outputs (--svg, --gds-out, --metrics-json, --trace-json):
  // each failure is diagnosed and the run exits 2 — a run must never
  // print success while silently dropping an artifact it was asked for.
  bool auxWriteFailed = false;

  // Every result artifact this run writes is recorded (path, bytes,
  // SHA-256) in the manifest, which is therefore written after them (only
  // the trace follows it); --verify re-hashes them all. The .shots entry
  // uses the write-time hash — the digest of the bytes handed to the
  // atomic writer, not a re-read.
  auto addArtifact = [&](const std::string& kind, const std::string& path,
                         std::string sha256) {
    std::error_code ec;
    const std::uintmax_t bytes = std::filesystem::file_size(path, ec);
    if (sha256.empty()) sha256File(path, sha256);
    info.artifacts.push_back({kind, path,
                              ec ? 0 : static_cast<std::int64_t>(bytes),
                              std::move(sha256)});
  };
  addArtifact("shots", outputPath, shotsSha256);
  if (!journalPath.empty() && !counters.journalDowngraded) {
    addArtifact("journal", journalPath, "");
  }

  if (!config.svgPath.empty()) {
    Rect view;
    for (const LayoutShape& s : shapes) {
      view = view.unionWith(s.rings.front().bbox());
    }
    SvgWriter svg(view.inflated(20));
    for (const LayoutShape& s : shapes) {
      for (const Polygon& ring : s.rings) {
        svg.addPolygon(ring, "#cfe3f7", "#1b5ea6", 0.3, 0.8);
      }
    }
    for (const Solution& sol : result.solutions) {
      for (const Rect& shot : sol.shots) {
        svg.addRect(shot, "#2ca02c", "#145214", 0.2, 0.2);
      }
    }
    const Status st = svg.save(config.svgPath);
    if (!st.ok()) {
      std::cerr << "cannot write SVG " << config.svgPath << ": " << st.str()
                << "\n";
      auxWriteFailed = true;
    } else {
      addArtifact("svg", config.svgPath, "");
    }
  }

  if (!config.gdsOutPath.empty()) {
    GdsLibrary outLib;
    GdsStructure top;
    top.name = "SHOTS";
    for (const Solution& sol : result.solutions) {
      for (const Rect& shot : sol.shots) {
        GdsPolygon gp;
        gp.polygon = Polygon({{shot.x0, shot.y0},
                              {shot.x1, shot.y0},
                              {shot.x1, shot.y1},
                              {shot.x0, shot.y1}});
        gp.layer = 100;
        top.polygons.push_back(std::move(gp));
      }
    }
    outLib.structures = {std::move(top)};
    if (!saveGds(config.gdsOutPath, outLib)) {
      std::cerr << "cannot write GDSII " << config.gdsOutPath << "\n";
      auxWriteFailed = true;
    } else {
      addArtifact("gds", config.gdsOutPath, "");
    }
  }

  if (!config.metricsJsonPath.empty()) {
    ShotStats shotStats;
    {
      TraceScope span("analysis.shot_stats");
      std::vector<Rect> allShots;
      for (const Solution& sol : result.solutions) {
        allShots.insert(allShots.end(), sol.shots.begin(), sol.shots.end());
      }
      shotStats = computeShotStats(allShots);
    }
    // The accounting scales with plan cells, not instances: the
    // fingerprint hashes each cell's geometry once plus the instance
    // table, and the claims are listed once per cell.
    std::string manifest;
    {
      TraceScope span("manifest.build");
      info.fingerprint = planFingerprint(plan, batch);
      info.cells = planCellGroups(plan);
      info.interrupted = interrupted;
      info.ordered = config.order;
      manifest = buildRunManifest(info, batch, result, counters, shotStats);
    }
    TraceScope span("manifest.write");
    std::string manifestHex;
    Status ms =
        atomicWriteFile(config.metricsJsonPath, manifest, &manifestHex);
    if (ms.ok()) ms = writeHashSidecar(config.metricsJsonPath, manifestHex);
    if (!ms.ok()) {
      std::cerr << "cannot write metrics JSON " << config.metricsJsonPath
                << ": " << ms.str() << "\n";
      auxWriteFailed = true;
    }
  }

  // The trace comes last, so it times the manifest too; it describes
  // the run rather than its result, and the manifest does not list it.
  if (!config.traceJsonPath.empty()) {
    const Status st = writeTraceJson(config.traceJsonPath,
                                     TraceRecorder::instance().snapshot());
    if (!st.ok()) {
      std::cerr << st.str() << "\n";
      auxWriteFailed = true;
    }
  }

  std::cout << "total: " << result.totalShots << " shots, "
            << result.totalFailingPixels << " failing px, "
            << result.degradedShapes << " degraded shape(s), "
            << (interrupted
                    ? std::to_string(result.interruptedShapes) +
                          " interrupted shape(s), "
                    : std::string{})
            << Table::fmt(result.wallSeconds, 2) << " s wall / "
            << Table::fmt(result.shapeSecondsSum, 2) << " s shape-sum ("
            << batch.threads << " thread(s))\n";
  if (info.haveRecovery) {
    std::cout << "recovery: " << counters.resumedShapes << " resumed, "
              << counters.freshShapes << " fresh"
              << (config.hier
                      ? " (" + std::to_string(counters.resumedCells) +
                            " resumed / " +
                            std::to_string(counters.freshCells) +
                            " fresh cell(s))"
                      : std::string{})
              << (counters.tornTail ? " (torn tail truncated)" : "")
              << ", " << counters.retriedRanges << " retried range(s), "
              << counters.crashedWorkers << " crashed worker(s) ("
              << counters.hungWorkers << " hung), " << counters.crashedShapes
              << " crash-isolated shape(s)"
              << (counters.staleTempsRemoved > 0
                      ? ", " + std::to_string(counters.staleTempsRemoved) +
                            " stale temp(s) swept"
                      : std::string{})
              << (counters.journalDowngraded ? " [journal downgraded]"
                                             : "")
              << "\n";
  }

  // A missing requested artifact outranks the quality ladder: the run
  // did not deliver what it printed it would.
  if (auxWriteFailed) return 2;
  // An artifact that failed its own audit even after repair outranks
  // everything below: the output cannot be trusted.
  if (selfcheckFailed) return 6;
  // The journal artifact was dropped mid-batch (degrade-don't-die):
  // the shots are good, but an artifact the run was asked for is
  // missing — same rank as a failed auxiliary output.
  if (counters.journalDowngraded) return 2;
  // Graceful drain: the run is partial by design; the manifest says
  // "interrupted" and a --resume finishes it.
  if (interrupted) return 5;

  if (!batch.allowDegradation) {
    // Strict mode: a shape that would have degraded is a failure.
    for (const ShapeReport& rep : result.reports) {
      if (!rep.status.ok()) {
        std::cerr << "strict: " << rep.status.str() << "\n";
        return 4;
      }
    }
    return result.totalFailingPixels == 0 ? 0 : 4;
  }
  // Crash-isolated shapes are more severe than an in-process
  // degradation: their primary result is unknowable, not just
  // infeasible. The partial-success code outranks plain degradation.
  if (info.haveRecovery && counters.crashedShapes > 0) return 5;
  if (result.degradedShapes > 0) return 1;
  return result.totalFailingPixels == 0 ? 0 : 4;
}

}  // namespace mbf
