#include "traced_run.h"

#include <chrono>
#include <filesystem>
#include <optional>
#include <set>
#include <sstream>
#include <utility>

#include "analysis/shot_stats.h"
#include "audit/independent_checker.h"
#include "fracture/coloring_fracturer.h"
#include "fracture/problem.h"
#include "fracture/refiner.h"
#include "io/atomic_file.h"
#include "io/gdsii.h"
#include "io/poly_io.h"
#include "mdp/checkpoint.h"
#include "mdp/hierarchy.h"
#include "mdp/layout.h"
#include "mdp/supervisor.h"
#include "parallel/parallel_for.h"
#include "stats.h"
#include "support/journal.h"
#include "support/telemetry.h"

namespace mbf::e2e {
namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

bool endsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// One shape of the stage pass and where the driver's result for it is.
struct UniqueShape {
  const LayoutShape* shape = nullptr;
  std::size_t resultIndex = 0;  ///< into the driver's BatchResult
  Point offset;                 ///< result shots = stage shots + offset
};

/// What the stage pass measured for one unique shape.
struct ShapeStage {
  double problemS = 0.0, stage1S = 0.0, refineS = 0.0;
  double mpixels = 0.0;
  std::int64_t corners = 0, initialShots = 0;
  RefinerStats stats;
  Solution solution;
};

/// Translation-invariant identity of a flat shape: its ring vertices
/// relative to the outer ring's bounding-box corner.
std::string geometryKey(const LayoutShape& shape) {
  const Rect box = shape.rings.front().bbox();
  std::string key;
  for (const Polygon& ring : shape.rings) {
    for (const Point& p : ring.vertices()) {
      key += std::to_string(p.x - box.x0) + ',' +
             std::to_string(p.y - box.y0) + ' ';
    }
    key += '|';
  }
  return key;
}

/// The stage pass on one shape, the same calls ModelBasedFracturer makes
/// after the per-shape driver's ring sanitation.
ShapeStage stageShape(const LayoutShape& shape, const FractureParams& params,
                      SpanLog& log, int parent, const std::string& workload,
                      int run) {
  ShapeStage out;
  std::vector<Polygon> rings;
  for (Polygon ring : shape.rings) {
    ring.normalize();
    if (ring.size() >= 3 && ring.area() != 0.0) rings.push_back(std::move(ring));
  }
  SpanScope shapeSpan(log, "shape", parent, workload, run);
  auto t0 = Clock::now();
  std::optional<SpanScope> span;
  span.emplace(log, "problem", shapeSpan.index(), workload, run);
  const Problem problem(std::move(rings), params);
  span.reset();
  out.problemS = since(t0);
  out.mpixels = static_cast<double>(problem.gridWidth()) *
                static_cast<double>(problem.gridHeight()) * 1e-6;

  t0 = Clock::now();
  span.emplace(log, "stage1", shapeSpan.index(), workload, run);
  ColoringArtifacts art = ColoringFracturer{}.fractureWithArtifacts(problem);
  span.reset();
  out.stage1S = since(t0);
  out.corners = static_cast<std::int64_t>(art.extraction.corners.size());
  out.initialShots = static_cast<std::int64_t>(art.shots.size());

  t0 = Clock::now();
  span.emplace(log, "refine", shapeSpan.index(), workload, run);
  Refiner refiner(problem);
  out.solution = refiner.refine(std::move(art.shots));
  span.reset();
  out.refineS = since(t0);
  out.solution.method = "ours";
  out.stats = refiner.stats();
  return out;
}

double fileBytes(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(n);
}

std::int64_t dirBytes(const std::string& dir) {
  std::error_code ec;
  std::int64_t total = 0;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec)) {
      total += static_cast<std::int64_t>(it->file_size(ec));
    }
  }
  return total;
}

}  // namespace

TracedRunResult tracedRun(const TracedRunConfig& cfg, SpanLog& log) {
  TracedRunResult out;
  const std::string& w = cfg.workload;
  const int id = cfg.run;
  const bool hier = w.rfind("chip_", 0) == 0;
  const bool isolate = w == "opc_rows_isolate";
  const bool journaled = w == "chip_hier_cold";
  const std::string outPath = cfg.runDir + "/out.shots";
  const std::string journalPath = cfg.runDir + "/o.jrn";
  auto fail = [&](const std::string& what) { out.failures.push_back(what); };

  // The configuration mbf_cli builds from the workload's flags:
  // --threads=T for in-process runs, defaults under --isolate.
  BatchConfig config;
  if (!isolate) {
    config.threads = cfg.threads;
    config.params.numThreads = cfg.threads;
  }

  SpanScope runSpan(log, "run", -1, w, id);
  const int root = runSpan.index();
  const auto cliStart = Clock::now();

  // 1. Input: parse, then flatten + group or plan the hierarchy.
  GdsLibrary lib;
  std::vector<Polygon> rings;
  {
    SpanScope s(log, "io.parse", root, w, id);
    const Status st = endsWith(cfg.inputPath, ".gds")
                          ? parseGdsFile(cfg.inputPath, lib)
                          : parsePolygonsFile(cfg.inputPath, rings);
    if (!st.ok()) fail("parse: " + st.str());
  }
  std::vector<LayoutShape> shapes;
  HierPlan plan;
  {
    SpanScope s(log, "io.plan", root, w, id);
    if (hier) {
      const Status st = planGdsHierarchy(lib, config, "", plan);
      if (!st.ok()) fail("plan: " + st.str());
    } else {
      if (!lib.structures.empty()) {
        std::vector<GdsPolygon> flat;
        const Status st = flattenGdsChecked(lib, "", flat);
        if (!st.ok()) fail("flatten: " + st.str());
        for (GdsPolygon& gp : flat) rings.push_back(std::move(gp.polygon));
      }
      shapes = groupRings(std::move(rings));
    }
  }
  if (!out.failures.empty()) return out;

  // 2. The fracture driver.
  BatchResult result;
  HierarchicalResult hres;
  RunCounters counters;
  bool haveCounters = false;
  {
    SpanScope s(log, "driver", root, w, id);
    if (hier) {
      HierOptions options;
      options.cellCacheDir = cfg.cellCacheDir;
      if (journaled) options.journalPath = journalPath;
      const Status st =
          fractureGdsHierarchical(lib, config, options, hres, &counters);
      if (!st.ok()) fail("hier driver: " + st.str());
      haveCounters = journaled;
      shapes = std::move(hres.instanceShapes);
      result = std::move(hres.batch);
    } else if (isolate) {
      SupervisorConfig sup;
      sup.cliPath = cfg.cliPath;
      sup.inputPath = cfg.inputPath;
      sup.workDir = outPath + ".workers";
      sup.numShapes = static_cast<int>(shapes.size());
      sup.jobs = cfg.threads;
      SupervisorResult sr = superviseFracture(sup);
      if (!sr.status.ok()) fail("supervisor: " + sr.status.str());
      if (!sr.abortCause.empty()) fail("supervisor aborted: " + sr.abortCause);
      if (!sr.isolatedShapes.empty()) fail("supervisor isolated shapes");
      result.solutions.resize(shapes.size());
      result.reports.resize(shapes.size());
      for (auto& [index, record] : sr.records) {
        result.solutions[static_cast<std::size_t>(index)] =
            std::move(record.solution);
        result.reports[static_cast<std::size_t>(index)] =
            std::move(record.report);
      }
      mergeBatchAggregates(result, {});
      counters = sr.counters;
      haveCounters = true;
      out.metrics["supervisor.retried_ranges"] = counters.retriedRanges;
    } else {
      result = fractureLayout(shapes, config);
    }
  }
  if (result.degradedShapes > 0 || result.interruptedShapes > 0) {
    fail(std::to_string(result.degradedShapes) + " degraded, " +
         std::to_string(result.interruptedShapes) + " interrupted shape(s)");
  }
  if (!out.failures.empty()) return out;
  out.shapes = static_cast<std::int64_t>(shapes.size());

  // 3. .shots write.
  std::int64_t shotsBytes = 0;
  {
    SpanScope s(log, "io.shots_write", root, w, id);
    std::ostringstream os;
    writeBatchShots(os, result.solutions);
    const std::string bytes = os.str();
    shotsBytes = static_cast<std::int64_t>(bytes.size());
    const Status st = atomicWriteFile(outPath, bytes, &out.shotsSha256);
    if (!st.ok()) fail("shots write: " + st.str());
  }

  // 4. Shot statistics over every shot of the layout.
  ShotStats shotStats;
  {
    SpanScope s(log, "analysis.shot_stats", root, w, id);
    std::vector<Rect> allShots;
    for (const Solution& sol : result.solutions) {
      allShots.insert(allShots.end(), sol.shots.begin(), sol.shots.end());
    }
    shotStats = computeShotStats(allShots);
  }

  // 5. Manifest: fingerprint + build, then the atomic write + sidecar.
  std::string manifest;
  {
    SpanScope s(log, "manifest.build", root, w, id);
    RunManifestInfo info;
    info.inputPath = cfg.inputPath;
    info.outputPath = outPath;
    info.fingerprint = journalMetaFor(shapes, config);
    info.haveRecovery = haveCounters;
    info.artifacts.push_back({"shots", outPath, shotsBytes, out.shotsSha256});
    if (journaled) {
      ArtifactEntry journal{"journal", journalPath,
                            static_cast<std::int64_t>(fileBytes(journalPath)),
                            ""};
      sha256File(journalPath, journal.sha256);
      info.artifacts.push_back(journal);
    }
    if (hier) {
      info.hier.enabled = true;
      info.hier.topCell = hres.topStruct;
      info.hier.cacheDir = cfg.cellCacheDir;
      info.hier.reachableCells = hres.reachableCells;
      info.hier.uniqueCellsFractured = hres.uniqueCellsFractured;
      info.hier.uniqueShapesFractured = hres.uniqueShapesFractured;
      info.hier.cacheHits = hres.cellCacheHits;
      info.hier.cacheMisses = hres.cellCacheMisses;
      info.hier.cacheRejected = hres.cellCacheRejected;
      info.hier.instancesExpanded = hres.instancesExpanded;
    }
    manifest = buildRunManifest(info, config, result, counters, shotStats);
  }
  {
    SpanScope s(log, "manifest.write", root, w, id);
    const std::string path = cfg.runDir + "/manifest.json";
    std::string hex;
    Status st = atomicWriteFile(path, manifest, &hex);
    if (st.ok()) st = writeHashSidecar(path, hex);
    if (!st.ok()) fail("manifest write: " + st.str());
  }
  out.cliPathSeconds = since(cliStart);

  // 6. Stage pass over the unique shapes on T threads. A hierarchical
  // run's unique shapes are its plan cells' shapes; the driver's result
  // for each is at the cell's first instance, translated by its offset.
  std::vector<UniqueShape> firstUse(plan.cells.size());
  std::vector<UniqueShape> unique;
  if (hier) {
    std::vector<bool> seen(plan.cells.size(), false);
    std::size_t base = 0;
    for (const HierPlan::Instance& inst : plan.instances) {
      const auto c = static_cast<std::size_t>(inst.cell);
      const HierPlan::Cell& cell = plan.cells[c];
      if (!seen[c]) {
        seen[c] = true;
        firstUse[c] = {nullptr, base, inst.offset};
        for (std::size_t j = 0; j < cell.shapes.size(); ++j) {
          unique.push_back({&cell.shapes[j], base + j, inst.offset});
        }
      }
      base += cell.shapes.size();
    }
  } else {
    std::set<std::string> seen;
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      if (seen.insert(geometryKey(shapes[i])).second) {
        unique.push_back({&shapes[i], i, {0, 0}});
      }
    }
  }

  std::vector<ShapeStage> stages(unique.size());
  double stageWall = 0.0;
  {
    SpanScope s(log, "stage", root, w, id);
    const int parent = s.index();
    const auto t0 = Clock::now();
    parallelFor(0, static_cast<int>(unique.size()), cfg.threads, 1,
                [&](int i) {
                  const auto u = static_cast<std::size_t>(i);
                  stages[u] = stageShape(*unique[u].shape, config.params, log,
                                         parent, w, id);
                });
    stageWall = since(t0);
  }
  for (std::size_t u = 0; u < unique.size(); ++u) {
    std::vector<Rect> expected =
        result.solutions[unique[u].resultIndex].shots;
    for (Rect& r : expected) {
      r = r.translated({-unique[u].offset.x, -unique[u].offset.y});
    }
    if (expected != stages[u].solution.shots) {
      fail("stage pass shots differ from the driver's for shape " +
           std::to_string(unique[u].resultIndex));
    }
  }

  // 7. Independent audit of the unique shapes' stage-pass shots.
  {
    std::vector<LayoutShape> auditShapes;
    std::vector<ShotSection> sections;
    std::vector<ShapeExpectation> expectations;
    for (std::size_t u = 0; u < unique.size(); ++u) {
      const Solution& sol = stages[u].solution;
      auditShapes.push_back(*unique[u].shape);
      sections.push_back({static_cast<int>(u), sol.shotCount(),
                          sol.failingPixels(), false, sol.shots});
      expectations.push_back(
          {sol.method, sol.failOn, sol.failOff, sol.cost, false, true, true});
    }
    SpanScope s(log, "audit", root, w, id);
    const AuditReport audit = auditShotSections(
        auditShapes, config.params, sections, expectations, cfg.threads);
    if (!audit.clean()) fail("audit: " + audit.str());
  }

  // 8. Journal round trip of the run's records: ShapeRecords for flat
  // runs, CellRecords (cell-local results) for hierarchical ones.
  std::vector<std::string> records;
  std::string meta;
  if (hier) {
    std::vector<std::string> keys;
    for (std::size_t c = 0; c < plan.cells.size(); ++c) {
      CellRecord rec;
      rec.cellIndex = static_cast<int>(c);
      rec.key = plan.cells[c].key;
      const UniqueShape& first = firstUse[c];
      for (std::size_t j = 0; j < plan.cells[c].shapes.size(); ++j) {
        Solution sol = result.solutions[first.resultIndex + j];
        for (Rect& r : sol.shots) {
          r = r.translated({-first.offset.x, -first.offset.y});
        }
        rec.solutions.push_back(std::move(sol));
        rec.reports.push_back(result.reports[first.resultIndex + j]);
      }
      records.push_back(encodeCellRecord(rec));
      keys.push_back(rec.key);
    }
    const int cells = static_cast<int>(plan.cells.size());
    meta = cellJournalMetaFor(plan.topStruct, keys, 0, cells);
  } else {
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      records.push_back(encodeShapeRecord(
          {static_cast<int>(i), result.solutions[i], result.reports[i]}));
    }
    meta = journalMetaFor(shapes, config);
  }
  const std::string benchJournal = cfg.runDir + "/bench.jrn";
  {
    SpanScope s(log, "journal.append", root, w, id);
    JournalWriter writer;
    Status st = writer.create(benchJournal, meta, JournalFsync::kNone);
    for (std::size_t i = 0; st.ok() && i < records.size(); ++i) {
      st = writer.append(records[i]);
    }
    if (st.ok()) st = writer.closeChecked();
    if (!st.ok()) fail("journal append: " + st.str());
  }
  {
    SpanScope s(log, "journal.replay", root, w, id);
    std::string replayedMeta;
    std::vector<std::string> replayed;
    const Status st = recoverJournal(benchJournal, replayedMeta, replayed);
    if (!st.ok() || replayedMeta != meta || replayed != records) {
      fail("journal replay differs from what was appended");
    }
  }

  // Per-layer metrics.
  const auto times = log.timesOf(w, id);
  const auto total = [&](const char* name) {
    const auto it = times.find(name);
    return it == times.end() ? 0.0 : it->second.total;
  };
  auto& m = out.metrics;
  m["io.parse_s"] = total("io.parse");
  m["io.plan_s"] = total("io.plan");
  m["driver.s"] = total("driver");
  m["io.shots_write_s"] = total("io.shots_write");
  m["io.shots_mb"] = static_cast<double>(shotsBytes) * 1e-6;
  m["analysis.shot_stats_s"] = total("analysis.shot_stats");
  m["manifest.build_s"] = total("manifest.build");
  m["manifest.write_s"] = total("manifest.write");
  m["manifest.mb"] = static_cast<double>(manifest.size()) * 1e-6;
  m["hier.reuse_ratio"] =
      static_cast<double>(shapes.size()) / static_cast<double>(unique.size());
  m["journal.append_s"] = total("journal.append");
  m["journal.replay_s"] = total("journal.replay");
  m["journal.mb"] = fileBytes(benchJournal) * 1e-6;
  m["audit.shape_ms"] =
      total("audit") * 1e3 / static_cast<double>(unique.size());

  RefinerStats refine;
  std::vector<double> shapeMs;
  double shapeSum = 0.0;
  for (const ShapeStage& st : stages) {
    m["problem.s"] += st.problemS;
    m["problem.mpixels"] += st.mpixels;
    m["stage1.s"] += st.stage1S;
    m["stage1.corners"] += static_cast<double>(st.corners);
    m["stage1.initial_shots"] += static_cast<double>(st.initialShots);
    m["refine.s"] += st.refineS;
    refine += st.stats;
    const double s = st.problemS + st.stage1S + st.refineS;
    shapeSum += s;
    shapeMs.push_back(s * 1e3);
  }
  m["refine.iterations"] = refine.iterations;
  m["refine.edge_move_s"] = refine.edgeMoveSeconds;
  m["refine.violation_s"] = refine.violationSeconds;
  m["kernel.profile_evals"] = static_cast<double>(refine.perf.profileEvals);
  m["kernel.profile_evals_per_s"] =
      static_cast<double>(refine.perf.profileEvals) / m["refine.s"];
  m["kernel.candidate_hit_rate"] =
      refine.perf.candidateEvals == 0
          ? 0.0
          : static_cast<double>(refine.perf.candidateCacheHits) /
                static_cast<double>(refine.perf.candidateEvals);
  m["shape.p50_ms"] = percentile(shapeMs, 50);
  m["shape.max_ms"] = percentile(shapeMs, 100);
  // p90 only with at least ten samples beyond it.
  if (shapeMs.size() >= 100) m["shape.p90_ms"] = percentile(shapeMs, 90);
  m["stage.parallel_eff"] = shapeSum / (stageWall * cfg.threads);

  if (hier) {
    const int lookups = hres.cellCacheHits + hres.cellCacheMisses +
                        hres.cellCacheRejected;
    m["cache.hit_rate"] =
        lookups == 0 ? 0.0 : static_cast<double>(hres.cellCacheHits) / lookups;
    m["cache.rejected"] = hres.cellCacheRejected;
    m["cache.mb"] = static_cast<double>(dirBytes(cfg.cellCacheDir)) * 1e-6;
    m["hier.cells_fractured"] = hres.uniqueCellsFractured;
    const int cells = static_cast<int>(plan.cells.size());
    if (w == "chip_hier_warm" &&
        (hres.uniqueCellsFractured != 0 || hres.cellCacheHits != cells)) {
      fail("warm run fractured " + std::to_string(hres.uniqueCellsFractured) +
           " cell(s) with " + std::to_string(hres.cellCacheHits) + "/" +
           std::to_string(cells) + " cache hits");
    }
    if (journaled && hres.cellCacheMisses != cells) {
      fail("cold run missed " + std::to_string(hres.cellCacheMisses) + "/" +
           std::to_string(cells) + " cells");
    }
  }
  return out;
}

}  // namespace mbf::e2e
