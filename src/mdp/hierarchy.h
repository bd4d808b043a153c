// The fracture driver: plan -> execute -> instantiate. A GDSII cell
// referenced N times is fractured ONCE and its shot list instantiated
// at every reference offset. This is the leverage that keeps full-mask
// MDP tractable ("a mask contains billions of polygons", paper section
// 2 -- but only thousands of unique cells), and with the persistent
// cell-fracture cache (mdp/cell_cache) it extends across runs: a warm
// re-run fractures only the cells whose geometry or parameters changed.
// A flat layout is the degenerate plan — a one-level hierarchy with one
// cell per distinct shape — so every run, flat or hierarchical,
// in-process or supervised, goes through the one executor
// (fracturePlan), journal format and cache, and fractures each distinct
// shape once.
//
// Correctness contract: fracturing is exactly covariant under
// whole-pixel (integer-nm) translation — pinned by the metamorphic
// test — so every plan cell is ANCHORED (its shapes moved so their
// union bbox min corner is (0, 0)) and a cell's cell-local solution
// translated to an instance offset is bitwise the solution a flat run
// would have produced there (DESIGN.md section 17).
// One structure walk reads a GDS library: the instance expansion (own
// polygons, then SREFs, then AREFs, row-major) that plans --hier runs
// also flattens (flattenGdsChecked), so the hierarchical shape list
// lines up one-to-one with the flattened one whenever instances don't
// interleave ring containment.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "io/gdsii.h"
#include "mdp/checkpoint.h"
#include "mdp/layout.h"
#include "mdp/supervisor.h"
#include "support/status.h"
#include "support/telemetry.h"

namespace mbf {

/// The deterministic skeleton of a run: unique cells — the PLAN CELL
/// INDEX every journal record and cache lookup refers to — plus every
/// instance placement. Two processes planning the same input under the
/// same config produce identical plans, which is what lets a resumed run
/// trust journaled indices; a forked --isolate worker inherits its
/// supervisor's plan outright. A flat layout is the degenerate case
/// (planFlatLayout): one one-shape cell per distinct shape.
///
/// The PLAN-SHAPE ORDINAL of a cell shape counts shapes over the cells
/// in plan order, then within the cell; it is the index fracturing
/// stamps on a shape's Status and hands the fault injector, so it is
/// the same in every process and under any cache or resume state. A
/// shape repeated across the cells one batch fractures runs once, under
/// the ordinal of its first slot there, and its repeats inherit that
/// outcome (see fracturePlan). For a flat plan the ordinal counts
/// distinct shapes in first-occurrence order (the layout index when no
/// shape repeats).
struct HierPlan {
  /// Top structure the plan was expanded (or flattened) from; empty for
  /// .poly input and auto-detected flat .gds roots.
  std::string topStruct;
  int reachableCells = 0;
  std::int64_t instancesExpanded = 0;

  struct Cell {
    /// Anchored: groupRings order, moved so that the union bbox min
    /// corner is (0, 0).
    std::vector<LayoutShape> shapes;
    std::string key;  ///< cellFractureKey under the config
  };
  /// One entry per CONTENT key, in first-visit order: DFS order for GDS
  /// plans, layout order for flat ones.
  std::vector<Cell> cells;

  struct Instance {
    int cell = -1;  ///< index into `cells`
    /// Where the anchored cell lands: the placement offset plus the
    /// cell's anchor (its bbox min corner in its own coordinates).
    Point offset;
  };
  /// Every placement carrying geometry, in DFS (flat-equivalent) order.
  std::vector<Instance> instances;
};

/// Plans a flat layout as a one-level hierarchy: one anchored cell per
/// distinct shape (the first occurrence of each cellFractureKey), and
/// one instance per shape at its bbox min corner, in layout order.
/// Takes the shapes by value so a caller done with them can move the
/// geometry in. Fails, naming the first such shape, when a shape's bbox
/// grown by Problem::gridPad leaves the 32-bit coordinate space: its
/// fracture grid could not be addressed.
Status planFlatLayout(std::vector<LayoutShape> shapes,
                      const BatchConfig& config, HierPlan& out);

/// The flat reading of a GDS library: planGdsHierarchy's expansion from
/// `topStruct` (empty = findGdsTopStructure) without the grid halo, each
/// placement's polygons copied, translated, in expansion order. Errors
/// are the expansion's, naming the same cell chains; references to
/// absent structures are skipped (subset extraction). On error `out` is
/// empty.
Status flattenGdsChecked(const GdsLibrary& lib, const std::string& topStruct,
                         std::vector<GdsPolygon>& out);

/// Expands and dedupes the hierarchy without fracturing anything.
/// Errors: unresolvable top, cycles, depth, placements whose geometry
/// grown by Problem::gridPad leaves int32, AREF caps — each naming the
/// cell chain.
Status planGdsHierarchy(const GdsLibrary& lib, const BatchConfig& config,
                        const std::string& topStruct, HierPlan& out);

/// Reads a layout file and plans it: a `.gds` with `hier` through
/// planGdsHierarchy; otherwise the `.poly` rings, or the `.gds`
/// flattened from `topCell` (empty = auto-detect), through groupRings
/// and planFlatLayout. A `.poly` parse is line-tolerant: when some
/// polygons survive a bad line, `warning` (if non-null) receives the
/// parse error and the plan is still built. A flat input without
/// polygons is an error.
Status planLayoutFile(const std::string& path, const BatchConfig& config,
                      bool hier, const std::string& topCell, HierPlan& out,
                      std::string* warning = nullptr);

/// Every instance's shapes in top coordinates, in instance order — the
/// layout a flat run over the same input sees, and the shape list
/// --verify audits a run's sections against.
std::vector<LayoutShape> planInstanceShapes(const HierPlan& plan);

/// The run manifest's config fingerprint (config.fingerprint), which
/// `mbf_cli --verify` recomputes from the plan it re-derives:
/// "mbf-plan v2 cells=C instances=I shapes=N fp=<sha256 hex>". The
/// digest covers each plan cell's hashShapes (mdp/cell_cache) once, in
/// plan order, then the instance table (cell index and offset) in
/// order, then resultConfigBytes (mdp/layout), all of which the
/// manifest records — never the cells' cache keys, which commit to
/// limits a verifier does not know. Its cost grows with unique-cell
/// vertices plus instances. A mismatch means the input or the
/// parameters changed since the run.
std::string planFingerprint(const HierPlan& plan, const BatchConfig& config);

/// One entry per plan cell, in plan order: where the cell's first
/// instance's first shape sits in the instantiated result, the cell's
/// shape count and how often the plan places it — the grouping the run
/// manifest lists its claims by.
std::vector<RunManifestInfo::CellGroup> planCellGroups(const HierPlan& plan);

/// What repairPlanShapes changed.
struct PlanRepair {
  /// Plan-cell shapes re-fractured, each once.
  int cellShapes = 0;
  /// Every result index that received a repair, ascending: each
  /// instance of a repaired cell shape, flagged or not.
  std::vector<int> instanceShapes;
};

/// The `--selfcheck` repair ladder over `batch`, the instantiated result
/// of `plan` (one entry per instance shape, in instance order). Each
/// plan-cell shape that a `flagged` result index instantiates is
/// re-fractured once, fallback only (deterministic and budget-free),
/// under the result index of its first flagged instance, and installed,
/// translated, into EVERY instance of its cell, each status re-stamped
/// with its own index: all instances of a cell keep one set of claims,
/// which is what lets the run manifest list them once per cell. Batch
/// totals follow the repaired solutions; the refiner stage counters
/// describe the original attempts and stay as recorded, and
/// shapeSecondsSum adds each repair's runtime once. Flagged indices
/// outside `batch` are ignored.
PlanRepair repairPlanShapes(const HierPlan& plan, const BatchConfig& config,
                            const std::vector<int>& flagged,
                            BatchResult& batch);

struct HierOptions {
  /// Top structure for fractureGdsHierarchical, and a run's --top-cell;
  /// empty auto-detects via findGdsTopStructure.
  std::string topStruct;
  /// Persistent cell-fracture cache directory; empty = no cache. The
  /// executor's own process does every lookup and store, supervised or
  /// not: --isolate workers only fracture.
  std::string cellCacheDir;
  /// Best-effort byte cap on the cache directory (0 = unlimited): after
  /// each store, least-recently-modified entries NOT touched by this
  /// run are evicted until under the cap (--cell-cache-quota-mb).
  std::int64_t cellCacheQuotaBytes = 0;
  /// Cell-level result journal (DESIGN.md section 19): every completed
  /// cell appends one CellRecord the moment its last shape finishes;
  /// `resume` replays intact records and fractures only the missing
  /// cells, converging byte-identically to an uninterrupted run. Empty
  /// = unjournaled.
  std::string journalPath;
  bool resume = false;
  JournalFsync fsync = JournalFsync::kNone;
};

struct HierarchicalResult {
  /// One entry per instantiated shape, in expansion (DFS) order,
  /// translated into top coordinates — the same list a flat run
  /// fractures, which is what lets --verify re-derive the layout.
  std::vector<LayoutShape> instanceShapes;
  /// Parallel to instanceShapes: per-instance solutions (shots in top
  /// coordinates) and reports, merged aggregates; shapeSecondsSum and
  /// refinerStats cover only the shapes fractured this run.
  BatchResult batch;

  /// The resolved top structure name.
  std::string topStruct;

  /// Cells reachable from the top (including polygon-less wrappers).
  int reachableCells = 0;
  /// Plan cells fractured to completion this run: cells every slot of
  /// which got a non-interrupted outcome (0 on a fully warm run).
  int uniqueCellsFractured = 0;
  /// Shapes fractured this run: the distinct shapes of the missing
  /// cells that got a non-interrupted outcome, in process or supervised
  /// (a drain leaves the unstarted ones to a --resume, which counts
  /// them there).
  int uniqueShapesFractured = 0;
  /// Persistent-cache outcome counts (without a cache dir every
  /// fractured cell is a miss).
  int cellCacheHits = 0;
  int cellCacheMisses = 0;
  int cellCacheRejected = 0;
  /// Quota-eviction candidates spared because a concurrently live
  /// process had noted the key (multi-process cache sharing).
  int cellCacheEvictionsSkippedLive = 0;
  /// Cache I/O failures and quota evictions this run (section 18: the
  /// cache degrades — a failure disables it with a counted warning and
  /// the run completes uncached).
  int cellCacheIoErrors = 0;
  int cellCacheEvicted = 0;
  bool cellCacheDisabled = false;
  /// First failure that disabled the cache, one line, for the warning.
  std::string cellCacheDisableCause;
  /// Cell placements materialised during expansion.
  std::int64_t instancesExpanded = 0;
  /// Supervised runs only: plan-shape ordinals of the distinct shapes
  /// crash-isolated by the supervisor, sorted.
  std::vector<int> isolatedShapes;

  std::int64_t instantiatedShapes() const {
    return static_cast<std::int64_t>(instanceShapes.size());
  }

  /// The flat-equivalent shot count a non-hierarchical flow would have
  /// produced (instancing repeats shots — the saving is in *fracture
  /// work*, not shot count). int64: shot counts at full-mask instance
  /// multiplicity overflow 32 bits.
  std::int64_t flatShotCount() const {
    std::int64_t n = 0;
    for (const Solution& sol : batch.solutions) {
      n += static_cast<std::int64_t>(sol.shots.size());
    }
    return n;
  }
};

/// The plan executor: replays the journal when resuming, serves cells
/// from the persistent cache when options.cellCacheDir is set, fills the
/// remaining cells, seals the journal, counts each fresh distinct shape
/// once, hole-fills and instantiates the plan. The fill's UNIT is a
/// distinct shape of the remaining cells: it is fractured once, under
/// the plan-shape ordinal of its first slot (per-shape budgets and the
/// degradation ladder apply), and one delivery gives each repeat that
/// outcome translated to its own position and appends a cell to the
/// journal the moment its last slot fills. Only what runs a unit
/// differs:
/// - in process (no `supervisor`), a thread of the work-stealing pool,
///   in one batch over all units; with G units and config.threads = T,
///   each unit's scans get max(1, T / G) threads (at least
///   params.numThreads), so a fill of fewer units than threads still
///   uses them all;
/// - with a `supervisor`, this process resolves Lth, empties
///   SupervisorConfig::workDir and superviseCells runs the units in
///   forked worker processes, serially per worker, each streaming its
///   outcomes to this process, which delivers them as they arrive.
///   Units no worker delivered are hole-filled (interrupted under a
///   drain, degraded otherwise) and their cells never journaled;
///   out.isolatedShapes names the crash-isolated ones, and a
///   supervisor-fatal condition is the returned Status.
/// Either way this process does every journal append and cache lookup
/// and store. Cache I/O failures never fail the run: the cache is
/// disabled with a counted warning (degrade, don't die — section 18). A
/// journal append failure downgrades the run to unjournaled completion:
/// `out` is complete, countersOut->journalDowngraded is set and the
/// append error is returned.
Status fracturePlan(const HierPlan& plan, const BatchConfig& config,
                    const HierOptions& options, HierarchicalResult& out,
                    RunCounters* countersOut = nullptr,
                    const SupervisorConfig* supervisor = nullptr);

/// Supervises a flat input the way mbf_cli --isolate does and returns
/// SupervisorResult::records: one ShapeRecord per layout shape, shots in
/// layout coordinates. It plans config.inputPath (planLayoutFile, default
/// BatchConfig) and runs fracturePlan on it with `config`, unjournaled
/// and uncached. A planning or supervisor-fatal failure is the result's
/// status. For callers that merge shapes themselves, such as bench/e2e's
/// traced run; mbf_cli runs fracturePlan with a SupervisorConfig.
SupervisorResult superviseFracture(const SupervisorConfig& config);

/// planGdsHierarchy from options.topStruct, then fracturePlan.
Status fractureGdsHierarchical(const GdsLibrary& lib,
                               const BatchConfig& config,
                               const HierOptions& options,
                               HierarchicalResult& out,
                               RunCounters* countersOut = nullptr);

}  // namespace mbf
