// Mask-data-prep layer: full layouts instead of single shapes. A mask
// layer arrives as a flat list of polygons ("a mask contains billions of
// polygons", paper section 2); rings nested inside another ring are that
// shape's holes; every shape fractures independently, so a layout
// parallelizes trivially across worker threads.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fracture/params.h"
#include "fracture/problem.h"
#include "fracture/refiner.h"
#include "fracture/solution.h"
#include "geometry/polygon.h"
#include "support/status.h"

namespace mbf {

/// One mask shape: outer boundary plus holes.
struct LayoutShape {
  std::vector<Polygon> rings;
};

/// Groups a flat ring list into shapes: a ring contained in exactly one
/// other ring becomes that ring's hole (nesting depth 1, the mask-layout
/// case; deeper nesting would be an island and is not supported).
std::vector<LayoutShape> groupRings(std::vector<Polygon> rings);

enum class Method {
  kOurs,    ///< the paper's method (coloring + refinement)
  kGsc,     ///< greedy set cover baseline
  kMp,      ///< matching pursuit baseline
  kProxy,   ///< PROTO-EDA proxy baseline
};

const char* toString(Method method);
/// Parses "ours" / "gsc" / "mp" / "proxy"; returns false on anything else.
bool parseMethod(const std::string& text, Method& out);

/// Fractures one shape with the chosen method. When `statsOut` is non-null
/// and the method is kOurs, the refinement-stage counters/timers of this
/// shape are written there.
Solution fractureShape(const LayoutShape& shape, const FractureParams& params,
                       Method method, RefinerStats* statsOut = nullptr);

/// Outcome of the fault-tolerant per-shape path (see DESIGN.md "Failure
/// model and degradation ladder"): the solution plus why (and whether)
/// the primary method was abandoned for the rect-partition fallback.
struct ShapeOutcome {
  Solution solution;
  /// kOk when the primary method succeeded (possibly with a note, e.g.
  /// dropped degenerate rings); otherwise the failure that triggered
  /// degradation — or, with allowDegradation == false, the failure that
  /// left `solution` empty.
  Status status;
  bool degraded = false;
  /// Set when the shape was never attempted because a graceful-drain
  /// interrupt (SIGTERM/SIGINT) was pending on entry: the solution is
  /// empty, status is kBudgetExceeded, and — unlike degradation — the
  /// shape is simply unfinished work a resumed run will redo.
  bool interrupted = false;
};

/// Fault-tolerant variant of fractureShape: sanitizes degenerate rings,
/// honours the FractureParams budgets (time, grid bytes) and the fault
/// injector, and — unless `allowDegradation` is false — converts every
/// failure (budget exhausted, solver failure, any exception) into a
/// rect-partition fallback solution tagged `degraded` instead of
/// throwing. Never throws except on allocation failure of its own
/// bookkeeping. `shapeIndex` is the shape's plan-shape ordinal (see
/// mdp/hierarchy's HierPlan), the same in every process whatever shard
/// it runs in; it is stamped on every Status and selects the fault
/// injector's armed faults.
/// A non-null `fallbackOnly` skips the primary method (and fault
/// injection) entirely and goes straight to the fallback ladder; the
/// status says "primary path skipped: " and that reason. The supervisor
/// uses it to re-fracture a crash-isolated culprit shape without
/// re-entering the code path that killed its worker (kCrashIsolated),
/// the --selfcheck repair ladder for a shape that failed its audit
/// (kAuditRepair).
ShapeOutcome fractureShapeGuarded(const LayoutShape& shape,
                                  const FractureParams& params, Method method,
                                  int shapeIndex, bool allowDegradation,
                                  RefinerStats* statsOut = nullptr,
                                  const char* fallbackOnly = nullptr);
inline constexpr char kCrashIsolated[] =
    "shape isolated after repeated worker crashes";
inline constexpr char kAuditRepair[] =
    "shape re-fractured after it failed the --selfcheck audit";

/// Per-shape entry of BatchResult::reports.
struct ShapeReport {
  Status status;
  bool degraded = false;
  bool interrupted = false;  ///< see ShapeOutcome::interrupted
};

struct BatchResult {
  std::vector<Solution> solutions;  ///< one per shape, input order
  /// One report per shape, input order: the Status explaining any
  /// degradation or (strict mode) failure; status.ok() for clean shapes.
  std::vector<ShapeReport> reports;
  int totalShots = 0;
  std::int64_t totalFailingPixels = 0;
  /// Shapes that fell back to rect-partition fracturing (== number of
  /// reports with degraded == true).
  int degradedShapes = 0;
  /// Shapes skipped by a graceful-drain interrupt (== number of reports
  /// with interrupted == true); > 0 marks the batch as partial.
  int interruptedShapes = 0;
  double wallSeconds = 0.0;
  /// Sum of the fracture runtimes of the shapes this run fractured, each
  /// once (~= wallSeconds on one thread; the ratio is the end-to-end
  /// parallel speedup otherwise). Instances, journal replays and cache
  /// hits add nothing.
  double shapeSecondsSum = 0.0;
  /// Refinement counters and per-stage timers aggregated over the shapes
  /// this run fractured, in plan order (method kOurs only; zero
  /// otherwise).
  RefinerStats refinerStats;
};

struct BatchConfig {
  FractureParams params;
  Method method = Method::kOurs;
  /// Worker threads fracturing shapes concurrently: 0 = hardware
  /// concurrency, 1 = serial. Independent of params.numThreads (the
  /// in-problem scan parallelism); both share the global pool.
  int threads = 1;
  /// When true (the default), a shape whose primary fracture fails is
  /// re-fractured with the rect-partition baseline and tagged degraded;
  /// when false (--strict), such a shape keeps an empty solution and its
  /// error status, and the batch still completes.
  bool allowDegradation = true;
};

/// The bytes of everything in `config` a fracture's result depends on,
/// hashed by cell keys and the plan fingerprint: each forEachResultField
/// field's object bytes in declaration order, then the method and the
/// degradation mode.
std::string resultConfigBytes(const BatchConfig& config);

/// Recomputes BatchResult's aggregate fields (totalShots,
/// totalFailingPixels, shapeSecondsSum, degradedShapes, refinerStats)
/// from its solutions/reports in input order. `shapeStats` pairs with
/// solutions; pass an empty vector when no per-shape stats exist.
/// Instantiation merges through it, so every run merges identically —
/// the resume byte-identity contract depends on it.
void mergeBatchAggregates(BatchResult& result,
                          const std::vector<RefinerStats>& shapeStats);

/// Parallel layout fracturing: runs `shapes` as a flat plan through the
/// in-process plan executor (mdp/hierarchy: planFlatLayout +
/// fracturePlan), unjournaled and uncached. Every distinct shape is one
/// job on the work-stealing pool with private Problem/Verifier state; a
/// shape's grid covers its polygon inflated by the gamma + 3*sigma halo,
/// so jobs touch disjoint state and run concurrently without
/// synchronisation, and results are merged in input order after the
/// join, making the result byte-identical for any thread count
/// (verified in tests). Throws std::invalid_argument when planning
/// refuses the layout (a shape's grid would leave int32).
BatchResult fractureLayout(const std::vector<LayoutShape>& shapes,
                           const BatchConfig& config);

}  // namespace mbf
