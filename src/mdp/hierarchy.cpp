#include "mdp/hierarchy.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "io/atomic_file.h"
#include "io/poly_io.h"
#include "mdp/cell_cache.h"
#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"
#include "support/sysio.h"

namespace mbf {
namespace {

/// 64-bit composed placement offset: intermediate SREF/AREF sums
/// overflow int32 long before the final placement does.
struct Offset64 {
  std::int64_t x = 0;
  std::int64_t y = 0;
};

/// One placement of a cell that carries geometry, in DFS order.
struct CellInstance {
  const GdsStructure* cell = nullptr;
  Point offset;  ///< validated to keep the cell's geometry in int32
};

struct Expansion {
  std::string top;
  std::vector<CellInstance> instances;
  std::unordered_set<const GdsStructure*> reachable;
  std::int64_t visits = 0;  ///< cell placements materialised
};

std::string chainString(const std::vector<const GdsStructure*>& path,
                        const std::string& repeat = {}) {
  std::string s;
  for (const GdsStructure* node : path) {
    if (!s.empty()) s += " -> ";
    s += node->name;
  }
  if (!repeat.empty()) {
    if (!s.empty()) s += " -> ";
    s += repeat;
  }
  return s;
}

/// Union bbox of a structure's OWN polygons (children are range-checked
/// at their own visits).
Rect ownBbox(const GdsStructure& s) {
  Rect box = s.polygons.front().polygon.bbox();
  for (std::size_t i = 1; i < s.polygons.size(); ++i) {
    const Rect b = s.polygons[i].polygon.bbox();
    box.x0 = std::min(box.x0, b.x0);
    box.y0 = std::min(box.y0, b.y0);
    box.x1 = std::max(box.x1, b.x1);
    box.y1 = std::max(box.y1, b.y1);
  }
  return box;
}

/// The GDS structure walk: own polygons, then SREFs, then AREFs
/// row-major. `pad` is Problem::gridPad for a plan, where every
/// instantiated shape's grid, not just its geometry, must fit in int32,
/// and 0 for flattenGdsChecked.
Status expandInto(const GdsLibrary& lib, const GdsStructure& s,
                  Offset64 offset, int pad,
                  std::vector<const GdsStructure*>& path,
                  std::unordered_map<const GdsStructure*, Rect>& bboxes,
                  Expansion& out) {
  for (const GdsStructure* onPath : path) {
    if (onPath == &s) {
      return Status(StatusCode::kInvalidArgument,
                    "reference cycle in GDS hierarchy: " +
                        chainString(path, s.name));
    }
  }
  if (static_cast<int>(path.size()) >= kGdsMaxDepth) {
    return Status(StatusCode::kInvalidArgument,
                  "GDS hierarchy deeper than " +
                      std::to_string(kGdsMaxDepth) + " levels at cell chain " +
                      chainString(path, s.name));
  }
  path.push_back(&s);
  out.reachable.insert(&s);
  ++out.visits;

  if (!s.polygons.empty()) {
    auto it = bboxes.find(&s);
    if (it == bboxes.end()) it = bboxes.emplace(&s, ownBbox(s)).first;
    const Rect& box = it->second;
    if (!Problem::gridFits(offset.x + box.x0, offset.y + box.y0,
                           offset.x + box.x1, offset.y + box.y1, pad)) {
      Status status(StatusCode::kInvalidArgument,
                    "placement of cell '" + s.name + "' at offset (" +
                        std::to_string(offset.x) + ", " +
                        std::to_string(offset.y) +
                        ") leaves the 32-bit coordinate space" +
                        (pad > 0 ? " with its " + std::to_string(pad) +
                                       " nm grid halo"
                                 : std::string()) +
                        " (chain " + chainString(path) + ")");
      path.pop_back();
      return status;
    }
    out.instances.push_back(
        CellInstance{&s,
                     Point{static_cast<std::int32_t>(offset.x),
                           static_cast<std::int32_t>(offset.y)}});
  }

  for (const GdsSref& ref : s.srefs) {
    const GdsStructure* child = lib.findStructure(ref.structName);
    if (!child) continue;  // subset extraction: missing cells are skipped
    const Offset64 at{offset.x + ref.offset.x, offset.y + ref.offset.y};
    Status status = expandInto(lib, *child, at, pad, path, bboxes, out);
    if (!status.ok()) {
      path.pop_back();
      return status;
    }
  }
  for (const GdsAref& ref : s.arefs) {
    const GdsStructure* child = lib.findStructure(ref.structName);
    if (!child) continue;
    if (static_cast<std::int64_t>(ref.rows) * ref.columns > (1 << 22)) {
      Status status(StatusCode::kInvalidArgument,
                    "AREF of cell '" + ref.structName + "' declares " +
                        std::to_string(ref.columns) + " x " +
                        std::to_string(ref.rows) +
                        " instances (cap 2^22) in cell '" + s.name + "'");
      path.pop_back();
      return status;
    }
    for (int r = 0; r < ref.rows; ++r) {
      for (int c = 0; c < ref.columns; ++c) {
        // int64 throughout: c,r reach 65534 and the pitches are int32,
        // so the products alone can exceed int32 by a factor of 2^16.
        const Offset64 at{
            offset.x + ref.origin.x +
                static_cast<std::int64_t>(c) * ref.columnPitch.x +
                static_cast<std::int64_t>(r) * ref.rowPitch.x,
            offset.y + ref.origin.y +
                static_cast<std::int64_t>(c) * ref.columnPitch.y +
                static_cast<std::int64_t>(r) * ref.rowPitch.y};
        Status status = expandInto(lib, *child, at, pad, path, bboxes, out);
        if (!status.ok()) {
          path.pop_back();
          return status;
        }
      }
    }
  }
  path.pop_back();
  return {};
}

Status expandGds(const GdsLibrary& lib, const std::string& topStruct,
                 int pad, Expansion& out) {
  std::string topName = topStruct;
  if (topName.empty()) {
    Status status = findGdsTopStructure(lib, topName);
    if (!status.ok()) return status;
  }
  const GdsStructure* top = lib.findStructure(topName);
  if (!top) {
    return Status(StatusCode::kInvalidArgument,
                  "top structure '" + topName + "' not found in library");
  }
  out.top = topName;
  std::vector<const GdsStructure*> path;
  std::unordered_map<const GdsStructure*, Rect> bboxes;
  return expandInto(lib, *top, {0, 0}, pad, path, bboxes, out);
}

LayoutShape translatedShape(const LayoutShape& shape, Point offset) {
  LayoutShape t = shape;
  for (Polygon& ring : t.rings) ring.translate(offset);
  return t;
}

/// Moves a cell's shapes so that their union bbox min corner is (0, 0)
/// and returns that corner: the ANCHOR its instances add to their
/// offsets. Cells equal up to translation thus get equal content keys.
/// A cell without rings stays where it is.
Point anchorShapes(std::vector<LayoutShape>& shapes) {
  std::optional<Rect> box;
  for (const LayoutShape& shape : shapes) {
    for (const Polygon& ring : shape.rings) {
      box = box ? box->unionWith(ring.bbox()) : ring.bbox();
    }
  }
  if (!box) return {0, 0};
  const Point anchor{box->x0, box->y0};
  for (LayoutShape& shape : shapes) {
    for (Polygon& ring : shape.rings) {
      std::vector<Point> v = ring.vertices();
      for (Point& p : v) p = {p.x - anchor.x, p.y - anchor.y};
      ring = Polygon(std::move(v));
    }
  }
  return anchor;
}

/// Plans one cell: anchors its shapes, keys them and either finds the
/// plan cell with that content or appends a new one. Returns the
/// instance of that cell placed at offset (0, 0): its offset is the
/// anchor.
HierPlan::Instance internCell(std::vector<LayoutShape> shapes,
                              const BatchConfig& config,
                              std::unordered_map<std::string, int>& keyToCell,
                              HierPlan& plan) {
  const Point anchor = anchorShapes(shapes);
  std::string key = cellFractureKey(shapes, config);
  const auto known = keyToCell.find(key);
  if (known != keyToCell.end()) return {known->second, anchor};
  const int index = static_cast<int>(plan.cells.size());
  keyToCell.emplace(key, index);
  plan.cells.push_back(HierPlan::Cell{std::move(shapes), std::move(key)});
  return {index, anchor};
}

/// Where a plan cell holds one shape.
struct ShapeSlot {
  int cell = 0;
  int shape = 0;  ///< cell-local shape index
  Point anchor;   ///< the shape's bbox min corner, cell-local
};

/// The distinct shapes of `cells` (plan cell indices, in plan order),
/// each keyed like a one-shape flat cell: anchored at its bbox min
/// corner, then cellFractureKey. One group per distinct shape, in order
/// of first slot; the first slot is the one fractured, and the others
/// repeat its outcome.
std::vector<std::vector<ShapeSlot>> distinctShapes(
    const HierPlan& plan, const std::vector<int>& cells,
    const BatchConfig& config) {
  std::vector<std::vector<ShapeSlot>> groups;
  std::unordered_map<std::string, std::size_t> keyToGroup;
  for (const int cellIdx : cells) {
    const std::vector<LayoutShape>& shapes =
        plan.cells[static_cast<std::size_t>(cellIdx)].shapes;
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      std::vector<LayoutShape> anchored{shapes[i]};
      const ShapeSlot slot{cellIdx, static_cast<int>(i),
                           anchorShapes(anchored)};
      const auto [it, fresh] = keyToGroup.emplace(
          cellFractureKey(anchored, config), groups.size());
      if (fresh) groups.emplace_back();
      groups[it->second].push_back(slot);
    }
  }
  return groups;
}

/// The fracture seconds of each distinct shape, counted once: the sum of
/// every group's first-slot runtime (repeats carry a copy of it).
double firstSlotSeconds(const std::vector<std::vector<ShapeSlot>>& groups,
                        const std::vector<CellRecord>& records) {
  double seconds = 0.0;
  for (const std::vector<ShapeSlot>& group : groups) {
    const ShapeSlot& first = group.front();
    seconds += records[static_cast<std::size_t>(first.cell)]
                   .solutions[static_cast<std::size_t>(first.shape)]
                   .runtimeSeconds;
  }
  return seconds;
}

/// A journaled CellRecord is only installed if it provably describes
/// the plan cell it claims: in-range index, the cell's content key, and
/// one solution per cell shape.
Status validateCellRecord(const HierPlan& plan, const CellRecord& record) {
  if (record.cellIndex < 0 ||
      record.cellIndex >= static_cast<int>(plan.cells.size())) {
    return Status(StatusCode::kInvalidArgument,
                  "journal cell record for cell " +
                      std::to_string(record.cellIndex) +
                      " is outside this plan's " +
                      std::to_string(plan.cells.size()) + " unique cells");
  }
  const HierPlan::Cell& cell =
      plan.cells[static_cast<std::size_t>(record.cellIndex)];
  if (record.key != cell.key) {
    return Status(StatusCode::kInvalidArgument,
                  "journal cell record for cell " +
                      std::to_string(record.cellIndex) +
                      " carries key " + record.key +
                      " but the plan expects " + cell.key);
  }
  if (record.solutions.size() != cell.shapes.size()) {
    return Status(StatusCode::kInvalidArgument,
                  "journal cell record for cell " +
                      std::to_string(record.cellIndex) + " has " +
                      std::to_string(record.solutions.size()) +
                      " solutions but the cell has " +
                      std::to_string(cell.shapes.size()) + " shapes");
  }
  return {};
}

/// Per-cell progress of one run over a plan: one CellRecord per plan
/// cell, its index and key filled from the plan, its cell-local results
/// filled by the journal, the cache or this run's fill.
struct PlanProgress {
  std::vector<CellRecord> records;
  std::vector<char> done;

  explicit PlanProgress(const HierPlan& plan)
      : records(plan.cells.size()), done(plan.cells.size(), 0) {
    for (std::size_t c = 0; c < plan.cells.size(); ++c) {
      records[c].cellIndex = static_cast<int>(c);
      records[c].key = plan.cells[c].key;
    }
  }

  /// Installs a validated record (its index and key are the plan's).
  void install(CellRecord&& record) {
    const auto c = static_cast<std::size_t>(record.cellIndex);
    records[c] = std::move(record);
    done[c] = 1;
  }
};

/// The cell journal of one run: the single open -> replay -> append
/// (downgrade on failure) -> seal sequence of the executor, in process
/// or supervised. With an empty path every call is a no-op.
class PlanJournal {
 public:
  /// Creates the journal or, resuming, opens it and installs every
  /// replayed record into `progress`. Records address cells by plan
  /// index; duplicates keep the first copy — both are results of the
  /// same deterministic computation. CRC framing already passed; a
  /// record that then fails decoding or plan validation is not ours and
  /// fails the resume.
  Status open(const HierPlan& plan, const HierOptions& options,
              PlanProgress& progress, RunCounters& counters) {
    path_ = options.journalPath;
    if (path_.empty()) return {};
    std::vector<std::string> keys;
    keys.reserve(plan.cells.size());
    for (const HierPlan::Cell& cell : plan.cells) keys.push_back(cell.key);
    const std::string meta = cellJournalMetaFor(
        plan.topStruct, keys, 0, static_cast<int>(plan.cells.size()));
    std::vector<std::string> replayed;
    Status status;
    if (options.resume) {
      JournalRecoveryStats rstats;
      status = writer_.openForAppend(path_, meta, options.fsync, replayed,
                                     &rstats);
      counters.tornTail = rstats.tornTail;
    } else {
      status = writer_.create(path_, meta, options.fsync);
    }
    if (!status.ok()) return status;
    for (const std::string& bytes : replayed) {
      CellRecord record;
      Status dec = decodeCellRecord(bytes, record);
      if (!dec.ok()) return dec;
      Status valid = validateCellRecord(plan, record);
      if (!valid.ok()) return valid;
      const auto c = static_cast<std::size_t>(record.cellIndex);
      if (progress.done[c] != 0) continue;
      progress.install(std::move(record));
      ++counters.resumedCells;
      counters.resumedShapes += static_cast<int>(plan.cells[c].shapes.size());
    }
    return {};
  }

  /// Appends one finished cell; thread-safe. The first failure
  /// downgrades the run to unjournaled completion: the results still
  /// ship, later appends are skipped and the seal is withheld.
  void append(const CellRecord& record) {
    if (path_.empty() || broken_.load(std::memory_order_relaxed)) return;
    const Status appended = writer_.append(encodeCellRecord(record));
    if (!appended.ok()) fail(appended);
  }

  /// Closes the journal. A complete, fully appended journal is sealed
  /// with its SHA-256 sidecar so --verify can prove the bytes are the
  /// ones written; an incomplete (drained) or downgraded one drops any
  /// stale seal so nothing trusts it as a finished run. A failed
  /// ::close() under kEachRecord can mean the last records never became
  /// durable, so it downgrades like an append error. Returns the
  /// downgrade cause (with counters.journalDowngraded set) or a sealing
  /// failure.
  Status seal(bool complete, RunCounters& counters) {
    if (path_.empty()) return {};
    const Status closed = writer_.closeChecked();
    if (!closed.ok()) fail(closed);
    counters.journalDowngraded = !appendError_.ok();
    if (appendError_.ok() && complete) {
      std::string hexDigest;
      Status sealed = sha256File(path_, hexDigest);
      if (sealed.ok()) sealed = writeHashSidecar(path_, hexDigest);
      return sealed;
    }
    sysio::unlink(sidecarPathFor(path_).c_str());
    return appendError_;
  }

 private:
  void fail(const Status& error) {
    broken_.store(true, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(errorMutex_);
    if (appendError_.ok()) appendError_ = error;
  }

  std::string path_;
  JournalWriter writer_;
  std::atomic<bool> broken_{false};
  std::mutex errorMutex_;
  Status appendError_;
};

/// Expands the plan: translates each instance's cell-local solutions
/// into top coordinates in DFS order — the order a flat run sees —
/// re-stamping non-ok statuses with the global instance shape index,
/// then recomputes the batch aggregates. shapeSecondsSum and
/// refinerStats are the caller's: they describe what THIS run
/// fractured, not how often it is instantiated.
void instantiatePlan(const HierPlan& plan,
                     const std::vector<CellRecord>& records,
                     HierarchicalResult& out) {
  out.instanceShapes = planInstanceShapes(plan);
  for (const HierPlan::Instance& inst : plan.instances) {
    const CellRecord& record = records[static_cast<std::size_t>(inst.cell)];
    for (std::size_t i = 0; i < record.solutions.size(); ++i) {
      Solution sol = record.solutions[i];
      for (Rect& shot : sol.shots) shot = shot.translated(inst.offset);
      ShapeReport report = record.reports[i];
      if (!report.status.ok()) {
        report.status.withShape(static_cast<int>(out.batch.solutions.size()));
      }
      out.batch.solutions.push_back(std::move(sol));
      out.batch.reports.push_back(std::move(report));
    }
  }
  mergeBatchAggregates(out.batch, {});
}

double secondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

Status flattenGdsChecked(const GdsLibrary& lib, const std::string& topStruct,
                         std::vector<GdsPolygon>& out) {
  out.clear();
  Expansion expansion;
  Status status = expandGds(lib, topStruct, 0, expansion);
  if (!status.ok()) return status;
  for (const CellInstance& inst : expansion.instances) {
    for (const GdsPolygon& gp : inst.cell->polygons) {
      out.push_back(gp);
      out.back().polygon.translate(inst.offset);
    }
  }
  return {};
}

Status planFlatLayout(std::vector<LayoutShape> shapes,
                      const BatchConfig& config, HierPlan& out) {
  out = HierPlan{};
  const int pad = Problem::gridPad(config.params);
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    if (shapes[i].rings.empty()) continue;
    Rect box = shapes[i].rings.front().bbox();
    for (const Polygon& ring : shapes[i].rings) {
      box = box.unionWith(ring.bbox());
    }
    if (!Problem::gridFits(box.x0, box.y0, box.x1, box.y1, pad)) {
      return Status(StatusCode::kInvalidArgument,
                    "shape " + std::to_string(i) + " (bbox " + box.str() +
                        ") leaves the 32-bit coordinate space with its " +
                        std::to_string(pad) + " nm grid halo");
    }
  }
  const int n = static_cast<int>(shapes.size());
  out.reachableCells = n;
  out.instancesExpanded = n;
  out.instances.reserve(shapes.size());
  // One anchored cell per distinct shape, in first-occurrence order; every
  // shape is an instance of its cell, in layout order.
  std::unordered_map<std::string, int> keyToCell;
  for (LayoutShape& shape : shapes) {
    out.instances.push_back(
        internCell({std::move(shape)}, config, keyToCell, out));
  }
  return {};
}

Status planGdsHierarchy(const GdsLibrary& lib, const BatchConfig& config,
                        const std::string& topStruct, HierPlan& out) {
  out = HierPlan{};
  Expansion expansion;
  Status status =
      expandGds(lib, topStruct, Problem::gridPad(config.params), expansion);
  if (!status.ok()) return status;
  out.topStruct = expansion.top;
  out.reachableCells = static_cast<int>(expansion.reachable.size());
  out.instancesExpanded = expansion.visits;

  // One plan cell per CONTENT key, in first-visit order: two GDS cells
  // whose geometry is equal up to translation (under identical
  // parameters) share one fracture, one cache slot and one plan index.
  std::unordered_map<const GdsStructure*, HierPlan::Instance> cellToEntry;
  std::unordered_map<std::string, int> keyToCell;
  for (const CellInstance& inst : expansion.instances) {
    auto it = cellToEntry.find(inst.cell);
    if (it == cellToEntry.end()) {
      std::vector<Polygon> rings;
      rings.reserve(inst.cell->polygons.size());
      for (const GdsPolygon& gp : inst.cell->polygons) {
        rings.push_back(gp.polygon);
      }
      it = cellToEntry
               .emplace(inst.cell, internCell(groupRings(std::move(rings)),
                                              config, keyToCell, out))
               .first;
    }
    // In int32: the anchored geometry at this offset is the placed
    // geometry, which expansion range-checked.
    out.instances.push_back(HierPlan::Instance{
        it->second.cell, inst.offset + it->second.offset});
  }
  return {};
}

Status planLayoutFile(const std::string& path, const BatchConfig& config,
                      bool hier, const std::string& topCell, HierPlan& out,
                      std::string* warning) {
  out = HierPlan{};
  const bool gds = path.size() > 4 && path.substr(path.size() - 4) == ".gds";
  GdsLibrary lib;
  std::vector<Polygon> rings;
  {
    TraceScope span("io.parse");
    if (gds) {
      const Status st = parseGdsFile(path, lib);
      if (!st.ok()) return st;
    } else {
      PolyReadStats stats;
      const Status st = parsePolygonsFile(path, rings, &stats);
      if (!st.ok()) {
        if (rings.empty()) return st;
        if (warning != nullptr) {
          *warning = st.str() + " (" + std::to_string(stats.badLines) +
                     " bad line(s), " + std::to_string(stats.skippedRings) +
                     " skipped ring(s))";
        }
      }
    }
  }
  TraceScope span("io.plan");
  if (gds) {
    if (hier) return planGdsHierarchy(lib, config, topCell, out);
    // Checked flatten: a cycle, depth overflow or out-of-range placement
    // is a hard input error, never silently fewer shots.
    std::vector<GdsPolygon> flat;
    const Status st = flattenGdsChecked(lib, topCell, flat);
    if (!st.ok()) return st;
    rings.reserve(flat.size());
    for (GdsPolygon& gp : flat) rings.push_back(std::move(gp.polygon));
  }
  if (rings.empty()) {
    return Status(StatusCode::kInvalidArgument,
                  "no polygons in input '" + path + "'");
  }
  const Status planned =
      planFlatLayout(groupRings(std::move(rings)), config, out);
  out.topStruct = topCell;
  return planned;
}

std::vector<LayoutShape> planInstanceShapes(const HierPlan& plan) {
  std::vector<LayoutShape> shapes;
  for (const HierPlan::Instance& inst : plan.instances) {
    for (const LayoutShape& shape :
         plan.cells[static_cast<std::size_t>(inst.cell)].shapes) {
      shapes.push_back(translatedShape(shape, inst.offset));
    }
  }
  return shapes;
}

std::string planFingerprint(const HierPlan& plan, const BatchConfig& config) {
  Sha256 h;
  // Each cell's anchored geometry once, then the instance table, in
  // order, serialized a block at a time.
  const auto cells = static_cast<std::int64_t>(plan.cells.size());
  h.update(&cells, sizeof cells);
  for (const HierPlan::Cell& cell : plan.cells) hashShapes(h, cell.shapes);
  const auto instances = static_cast<std::int64_t>(plan.instances.size());
  h.update(&instances, sizeof instances);
  std::int64_t shapes = 0;
  std::array<std::int32_t, 3 * 1024> block;
  std::size_t used = 0;
  for (const HierPlan::Instance& inst : plan.instances) {
    shapes += static_cast<std::int64_t>(
        plan.cells[static_cast<std::size_t>(inst.cell)].shapes.size());
    block[used++] = inst.cell;
    block[used++] = inst.offset.x;
    block[used++] = inst.offset.y;
    if (used == block.size()) {
      h.update(block.data(), used * sizeof(std::int32_t));
      used = 0;
    }
  }
  h.update(block.data(), used * sizeof(std::int32_t));
  // What the result depends on; the limits and thread counts stay out —
  // a run verifies the same at any thread count.
  const std::string bytes = resultConfigBytes(config);
  h.update(bytes.data(), bytes.size());
  return "mbf-plan v2 cells=" + std::to_string(plan.cells.size()) +
         " instances=" + std::to_string(plan.instances.size()) +
         " shapes=" + std::to_string(shapes) + " fp=" + h.hexDigest();
}

std::vector<RunManifestInfo::CellGroup> planCellGroups(const HierPlan& plan) {
  std::vector<RunManifestInfo::CellGroup> groups(plan.cells.size());
  for (std::size_t c = 0; c < plan.cells.size(); ++c) {
    groups[c].shapes = static_cast<int>(plan.cells[c].shapes.size());
  }
  std::int64_t at = 0;
  for (const HierPlan::Instance& inst : plan.instances) {
    RunManifestInfo::CellGroup& group =
        groups[static_cast<std::size_t>(inst.cell)];
    if (group.instances++ == 0) group.firstResult = at;
    at += group.shapes;
  }
  return groups;
}

PlanRepair repairPlanShapes(const HierPlan& plan, const BatchConfig& config,
                            const std::vector<int>& flagged,
                            BatchResult& batch) {
  std::vector<std::int64_t> instanceStart;  // first result index
  instanceStart.reserve(plan.instances.size());
  std::int64_t next = 0;
  for (const HierPlan::Instance& inst : plan.instances) {
    instanceStart.push_back(next);
    next += static_cast<std::int64_t>(
        plan.cells[static_cast<std::size_t>(inst.cell)].shapes.size());
  }
  // (plan cell, cell-local shape) -> its repair.
  std::map<std::pair<int, int>, ShapeOutcome> repairs;
  for (const int index : flagged) {
    if (index < 0 || index >= next ||
        static_cast<std::size_t>(index) >= batch.solutions.size()) {
      continue;
    }
    const auto k = static_cast<std::size_t>(
        std::upper_bound(instanceStart.begin(), instanceStart.end(), index) -
        instanceStart.begin() - 1);
    const int cell = plan.instances[k].cell;
    const int local = index - static_cast<int>(instanceStart[k]);
    if (repairs.count({cell, local}) != 0) continue;
    repairs.emplace(
        std::pair{cell, local},
        fractureShapeGuarded(plan.cells[static_cast<std::size_t>(cell)]
                                 .shapes[static_cast<std::size_t>(local)],
                             config.params, config.method, index,
                             /*allowDegradation=*/true, nullptr,
                             kAuditRepair));
  }

  PlanRepair repair;
  if (repairs.empty()) return repair;
  repair.cellShapes = static_cast<int>(repairs.size());
  for (std::size_t k = 0; k < plan.instances.size(); ++k) {
    const HierPlan::Instance& inst = plan.instances[k];
    for (auto it = repairs.lower_bound({inst.cell, 0});
         it != repairs.end() && it->first.first == inst.cell; ++it) {
      const ShapeOutcome& outcome = it->second;
      const auto s =
          static_cast<std::size_t>(instanceStart[k] + it->first.second);
      Solution sol = outcome.solution;
      for (Rect& shot : sol.shots) shot = shot.translated(inst.offset);
      batch.solutions[s] = std::move(sol);
      ShapeReport report{outcome.status, outcome.degraded,
                         outcome.interrupted};
      if (report.status.shapeIndex() >= 0) {
        report.status.withShape(static_cast<int>(s));
      }
      batch.reports[s] = std::move(report);
      repair.instanceShapes.push_back(static_cast<int>(s));
    }
  }
  // The totals follow the repaired solutions; the refiner counters keep
  // the run's, and so do the fracture seconds, plus each repair once.
  const RefinerStats savedStats = batch.refinerStats;
  double seconds = batch.shapeSecondsSum;
  for (const auto& [slot, outcome] : repairs) {
    seconds += outcome.solution.runtimeSeconds;
  }
  mergeBatchAggregates(batch, {});
  batch.refinerStats = savedStats;
  batch.shapeSecondsSum = seconds;
  return repair;
}

SupervisorResult superviseFracture(const SupervisorConfig& config) {
  SupervisorResult result;
  const BatchConfig batch;
  HierPlan plan;
  HierarchicalResult run;
  result.status = planLayoutFile(config.inputPath, batch, false, "", plan);
  if (result.status.ok()) {
    result.status = fracturePlan(plan, batch, HierOptions{}, run,
                                 &result.counters, &config);
  }
  if (!result.status.ok()) return result;
  result.isolatedShapes = std::move(run.isolatedShapes);
  result.interrupted = run.batch.interruptedShapes > 0;
  // The instantiated plan is the layout, shape for shape.
  for (std::size_t i = 0; i < run.batch.solutions.size(); ++i) {
    const int index = static_cast<int>(i);
    result.records[index] = ShapeRecord{index,
                                        std::move(run.batch.solutions[i]),
                                        std::move(run.batch.reports[i])};
  }
  return result;
}

Status fracturePlan(const HierPlan& plan, const BatchConfig& config,
                    const HierOptions& options, HierarchicalResult& out,
                    RunCounters* countersOut,
                    const SupervisorConfig* supervisor) {
  const auto start = std::chrono::steady_clock::now();
  out = HierarchicalResult{};
  out.topStruct = plan.topStruct;
  out.reachableCells = plan.reachableCells;
  out.instancesExpanded = plan.instancesExpanded;
  RunCounters counters;

  // Journal first, so a resumed run knows which cells are finished work.
  PlanProgress progress(plan);
  PlanJournal journal;
  Status status = journal.open(plan, options, progress, counters);
  if (!status.ok()) return status;

  // Persistent-cache lookups (hits fill their cell directly). A
  // journaled cache hit is appended like a fractured cell: the journal
  // must be self-contained — a resume replays it without consulting the
  // cache.
  CellFractureCache cache(options.cellCacheDir);
  const bool useCache = !options.cellCacheDir.empty();
  if (useCache) {
    // Degrade, don't die: an uncreatable cache directory (read-only
    // filer, quota) costs cross-run reuse, never the run itself. Every
    // lookup below reads as a miss and every cell fractures fresh.
    Status prep = cache.prepare();
    if (!prep.ok()) cache.disable(prep);
    cache.setQuotaBytes(options.cellCacheQuotaBytes);
  }
  std::vector<int> missCells;
  for (std::size_t c = 0; c < plan.cells.size(); ++c) {
    if (progress.done[c] != 0) continue;
    if (useCache &&
        cache.load(progress.records[c]) == CellFractureCache::Lookup::kHit) {
      journal.append(progress.records[c]);
      continue;
    }
    missCells.push_back(static_cast<int>(c));
  }

  // Fill the missing cells. The unit of work is a distinct shape of
  // them (distinctShapes): its first slot is fractured once, under its
  // plan-shape ordinal, and deliver() gives every slot of the group
  // that outcome with its shots moved by the anchor difference — exactly
  // what fracturing it in place gives, since fracture is covariant
  // under integer translation. A cell's CellRecord is appended the
  // moment its LAST slot fills; interrupted cells are never journaled —
  // a later resume re-fractures them instead of replaying unfinished
  // work. Only what runs a group differs: a pool thread, or a forked
  // worker whose outcome deliver() installs as it arrives.
  const std::vector<std::vector<ShapeSlot>> groups =
      distinctShapes(plan, missCells, config);
  std::vector<int> firstOrdinal(plan.cells.size(), 0);
  for (std::size_t c = 1; c < plan.cells.size(); ++c) {
    firstOrdinal[c] = firstOrdinal[c - 1] +
                      static_cast<int>(plan.cells[c - 1].shapes.size());
  }
  auto ordinalOf = [&](const ShapeSlot& slot) {
    return firstOrdinal[static_cast<std::size_t>(slot.cell)] + slot.shape;
  };
  auto shapeOf = [&](const ShapeSlot& slot) -> const LayoutShape& {
    return plan.cells[static_cast<std::size_t>(slot.cell)]
        .shapes[static_cast<std::size_t>(slot.shape)];
  };
  std::vector<std::atomic<int>> cellRemaining(plan.cells.size());
  std::vector<std::atomic<bool>> cellInterrupted(plan.cells.size());
  for (const int cellIdx : missCells) {
    const auto c = static_cast<std::size_t>(cellIdx);
    const std::size_t n = plan.cells[c].shapes.size();
    progress.records[c].solutions.resize(n);
    progress.records[c].reports.resize(n);
    cellRemaining[c].store(static_cast<int>(n), std::memory_order_relaxed);
    cellInterrupted[c].store(false, std::memory_order_relaxed);
  }
  std::vector<RefinerStats> shapeStats(groups.size());
  // 1 once a group's outcome is installed, 2 when that outcome is a
  // finished (non-interrupted) fracture.
  std::vector<char> delivered(groups.size(), 0);
  // Group k's outcome into every slot of the group. Groups write only
  // their own slots, so any thread count or worker schedule computes
  // identical records.
  auto deliver = [&](std::size_t k, const Solution& solution,
                     const ShapeReport& outcome, const RefinerStats& stats) {
    const ShapeSlot& first = groups[k].front();
    for (const ShapeSlot& slot : groups[k]) {
      const auto c = static_cast<std::size_t>(slot.cell);
      const auto local = static_cast<std::size_t>(slot.shape);
      if (outcome.interrupted) {
        cellInterrupted[c].store(true, std::memory_order_relaxed);
      }
      CellRecord& record = progress.records[c];
      Solution& sol = record.solutions[local];
      sol = solution;
      const Point delta = slot.anchor - first.anchor;
      for (Rect& shot : sol.shots) shot = shot.translated(delta);
      ShapeReport& report = record.reports[local];
      report = outcome;
      // A stamped status names the slot it describes.
      if (report.status.shapeIndex() >= 0) {
        report.status.withShape(ordinalOf(slot));
      }
      // acq_rel: the thread filling the cell's last slot observes every
      // sibling slot written before their decrements.
      if (cellRemaining[c].fetch_sub(1, std::memory_order_acq_rel) == 1 &&
          !cellInterrupted[c].load(std::memory_order_relaxed)) {
        journal.append(record);
      }
    }
    shapeStats[k] = stats;
    delivered[k] = outcome.interrupted ? 1 : 2;
  };

  bool interrupted = false;
  if (supervisor == nullptr) {
    // In process, as ONE batch on the work-stealing pool: T threads
    // fracture T distinct shapes at once. A fill of G < T distinct shapes
    // hands each shape's row-parallel scans T / G threads (never fewer
    // than params.numThreads), so one large shape does not leave T - 1
    // cores idle, while a fill of many shapes pays no scheduling inside a
    // shape. Results do not depend on either count.
    const int threads = ThreadPool::resolveThreads(config.threads);
    FractureParams shapeParams = config.params;
    shapeParams.numThreads =
        std::max(ThreadPool::resolveThreads(config.params.numThreads),
                 threads / std::max(1, static_cast<int>(groups.size())));
    parallelFor(0, static_cast<int>(groups.size()), threads, 1, [&](int k) {
      const ShapeSlot& first = groups[static_cast<std::size_t>(k)].front();
      RefinerStats stats;
      ShapeOutcome outcome = fractureShapeGuarded(
          shapeOf(first), shapeParams, config.method, ordinalOf(first),
          config.allowDegradation, &stats);
      deliver(static_cast<std::size_t>(k), outcome.solution,
              {std::move(outcome.status), outcome.degraded,
               outcome.interrupted},
              stats);
    });
  } else if (!groups.empty()) {
    // Supervised: superviseCells shards the units across workers forked
    // from this process. A worker fractures its units serially and
    // streams each outcome as a ShapeRecord (stamped with the unit's
    // ordinal) followed by the unit's RefinerStats bytes; this process
    // delivers it as it arrives, single-threaded. The work directory
    // holds only this fill's worker logs.
    std::error_code ignored;
    std::filesystem::remove_all(supervisor->workDir, ignored);
    // Lth before the first fork: every worker inherits the memo, so the
    // contour walk runs once per run.
    (void)config.params.resolvedLth(config.params.makeModel());
    FractureParams serial = config.params;
    serial.numThreads = 1;
    static_assert(std::is_trivially_copyable_v<RefinerStats>);
    SupervisorConfig units = *supervisor;
    units.numShapes = static_cast<int>(groups.size());
    units.fill = [&](int unit, bool fallbackOnly) {
      const ShapeSlot& first = groups[static_cast<std::size_t>(unit)].front();
      RefinerStats stats;
      ShapeOutcome outcome = fractureShapeGuarded(
          shapeOf(first), serial, config.method, ordinalOf(first),
          config.allowDegradation, &stats,
          fallbackOnly ? kCrashIsolated : nullptr);
      std::string bytes;
      if (outcome.interrupted) return bytes;
      bytes = encodeShapeRecord(
          {ordinalOf(first), std::move(outcome.solution),
           {std::move(outcome.status), outcome.degraded, false}});
      bytes.append(reinterpret_cast<const char*>(&stats), sizeof stats);
      return bytes;
    };
    units.deliver = [&](int unit, std::string_view bytes) {
      const auto k = static_cast<std::size_t>(unit);
      ShapeRecord record;
      RefinerStats stats;
      if (bytes.size() < sizeof stats ||
          !decodeShapeRecord(bytes.substr(0, bytes.size() - sizeof stats),
                             record)
               .ok() ||
          record.shapeIndex != ordinalOf(groups[k].front())) {
        return false;
      }
      std::memcpy(&stats, bytes.data() + bytes.size() - sizeof stats,
                  sizeof stats);
      deliver(k, record.solution, record.report, stats);
      return true;
    };
    SupervisorResult sres = superviseCells(units);
    if (!sres.status.ok()) return sres.status;
    counters.retriedRanges = sres.counters.retriedRanges;
    counters.crashedWorkers = sres.counters.crashedWorkers;
    counters.hungWorkers = sres.counters.hungWorkers;
    counters.crashedShapes = sres.counters.crashedShapes;
    interrupted = sres.interrupted;
    for (const int unit : sres.isolatedShapes) {
      out.isolatedShapes.push_back(
          ordinalOf(groups[static_cast<std::size_t>(unit)].front()));
    }
  }

  // Hole-fill the slots of groups no worker delivered (a graceful drain,
  // or a unit that crashed even fallback-only), so every INSTANCE still
  // gets a record; their cells are never journaled.
  bool complete = true;
  for (std::size_t k = 0; k < groups.size(); ++k) {
    if (delivered[k] != 0) continue;
    complete = false;
    for (const ShapeSlot& slot : groups[k]) {
      const auto local = static_cast<std::size_t>(slot.shape);
      CellRecord& record =
          progress.records[static_cast<std::size_t>(slot.cell)];
      Solution& sol = record.solutions[local];
      ShapeReport& report = record.reports[local];
      sol = Solution{};
      sol.method = "empty";
      if (interrupted) {
        report = {Status(StatusCode::kBudgetExceeded,
                         "interrupted before any worker fractured this "
                         "shape (graceful drain); resume the run to finish "
                         "it"),
                  false, true};
      } else {
        sol.degraded = true;
        report = {Status(StatusCode::kInternal,
                         "no worker delivered this shape"),
                  true, false};
      }
    }
  }
  for (const int cellIdx : missCells) {
    if (cellInterrupted[static_cast<std::size_t>(cellIdx)].load(
            std::memory_order_relaxed)) {
      interrupted = true;
    }
  }

  status = journal.seal(complete && !interrupted, counters);
  if (!status.ok() && !counters.journalDowngraded) return status;

  // What THIS run fractured, each distinct shape once: instances, replayed
  // and cached cells add nothing, and neither do the shapes and cells a
  // drain left unfinished — the --resume that finishes them counts them.
  out.uniqueShapesFractured = static_cast<int>(
      std::count(delivered.begin(), delivered.end(), char{2}));
  out.uniqueCellsFractured = static_cast<int>(
      std::count_if(missCells.begin(), missCells.end(), [&](int cellIdx) {
        const auto c = static_cast<std::size_t>(cellIdx);
        return cellRemaining[c].load(std::memory_order_relaxed) == 0 &&
               !cellInterrupted[c].load(std::memory_order_relaxed);
      }));
  counters.freshCells = out.uniqueCellsFractured;
  counters.freshShapes = out.uniqueShapesFractured;
  if (countersOut != nullptr) *countersOut = counters;

  // Store freshly fractured cells — but only CLEAN ones. A degraded or
  // interrupted result is wall-clock dependent (time budgets) or
  // unfinished; replaying it from the cache would freeze an accident of
  // this run's scheduling into every future run. A store failure
  // disables the cache (inside store()) and is NOT a run failure: the
  // results being stored are already in memory and ship below.
  if (useCache) {
    for (const int cellIdx : missCells) {
      const CellRecord& record =
          progress.records[static_cast<std::size_t>(cellIdx)];
      bool clean = true;
      for (const ShapeReport& report : record.reports) {
        if (!report.status.ok() || report.degraded || report.interrupted) {
          clean = false;
          break;
        }
      }
      if (!clean) continue;
      (void)cache.store(record);
      if (cache.disabled()) break;  // further stores are no-ops anyway
    }
    out.cellCacheHits = cache.stats().hits;
    out.cellCacheMisses = cache.stats().misses;
    out.cellCacheRejected = cache.stats().rejected;
    out.cellCacheIoErrors = cache.stats().ioErrors;
    out.cellCacheEvicted = cache.stats().evicted;
    out.cellCacheEvictionsSkippedLive = cache.stats().evictionsSkippedLive;
    out.cellCacheDisabled = cache.disabled();
    if (cache.disabled()) {
      out.cellCacheDisableCause = cache.disableCause().str();
    }
  } else {
    // Uncached, every fractured cell is a miss.
    out.cellCacheMisses = static_cast<int>(missCells.size());
  }

  instantiatePlan(plan, progress.records, out);
  out.batch.shapeSecondsSum = firstSlotSeconds(groups, progress.records);
  for (const RefinerStats& stats : shapeStats) out.batch.refinerStats += stats;
  out.batch.wallSeconds = secondsSince(start);
  return status;
}

Status fractureGdsHierarchical(const GdsLibrary& lib,
                               const BatchConfig& config,
                               const HierOptions& options,
                               HierarchicalResult& out,
                               RunCounters* countersOut) {
  HierPlan plan;
  const Status status =
      planGdsHierarchy(lib, config, options.topStruct, plan);
  if (!status.ok()) {
    out = HierarchicalResult{};
    return status;
  }
  return fracturePlan(plan, config, options, out, countersOut);
}

}  // namespace mbf
