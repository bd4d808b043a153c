// Hierarchical production path (DESIGN.md section 17): one fracture per
// unique REACHABLE cell, instantiation by translation, top-structure
// auto-detection, cycle/depth/overflow and grid-halo diagnostics, and the
// persistent content-addressed cell-fracture cache (warm-run bitwise
// identity, key invalidation, entry format, tamper rejection).
#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "benchgen/ilt_synth.h"
#include "fracture/verifier.h"
#include "io/atomic_file.h"
#include "io/poly_io.h"
#include "mdp/cell_cache.h"
#include "mdp/hierarchy.h"
#include "support/fault_injector.h"
#include "support/interrupt.h"

namespace mbf {
namespace {

GdsPolygon lPoly() {
  GdsPolygon p;
  p.polygon =
      Polygon({{0, 0}, {80, 0}, {80, 30}, {30, 30}, {30, 80}, {0, 80}});
  return p;
}

GdsLibrary arrayLib(int instances) {
  GdsLibrary lib;
  GdsStructure cell{"CELL", {lPoly()}, {}, {}};
  GdsStructure top{"TOP", {}, {}, {}};
  for (int i = 0; i < instances; ++i) {
    top.srefs.push_back({"CELL", {i * 200, 0}});
  }
  lib.structures = {top, cell};
  return lib;
}

/// The instantiated shape list of the library's plan, unfractured.
Status instanceShapes(const GdsLibrary& lib, std::vector<LayoutShape>& out) {
  HierPlan plan;
  const Status st = planGdsHierarchy(lib, BatchConfig{}, "", plan);
  out = planInstanceShapes(plan);
  return st;
}

HierarchicalResult mustFracture(const GdsLibrary& lib,
                                const BatchConfig& config = {},
                                const HierOptions& options = {}) {
  HierarchicalResult r;
  const Status st = fractureGdsHierarchical(lib, config, options, r);
  EXPECT_TRUE(st.ok()) << st.str();
  return r;
}

TEST(HierarchyTest, OneFracturePerUniqueCell) {
  const HierarchicalResult r = mustFracture(arrayLib(5));
  // CELL fractured once; TOP has no own polygons but is reachable.
  EXPECT_EQ(r.uniqueShapesFractured, 1);
  EXPECT_EQ(r.uniqueCellsFractured, 1);
  EXPECT_EQ(r.instantiatedShapes(), 5);
  EXPECT_EQ(r.reachableCells, 2);
  EXPECT_EQ(r.instancesExpanded, 6);  // TOP + 5 CELL placements
  // Every instance carries the same number of shots.
  EXPECT_EQ(r.flatShotCount() % 5, 0);
  EXPECT_GE(r.flatShotCount(), 5 * 2);  // an L needs >= 2 shots
}

TEST(HierarchyTest, InstanceShotsMatchFlatFracture) {
  const HierarchicalResult r = mustFracture(arrayLib(3));
  ASSERT_EQ(r.batch.solutions.size(), 3u);

  // Reference: fracture the cell directly.
  LayoutShape shape;
  shape.rings.push_back(lPoly().polygon);
  const Solution direct = fractureShape(shape, FractureParams{}, Method::kOurs);

  ASSERT_EQ(r.flatShotCount(), 3 * direct.shotCount());
  // First instance is at offset 0: its shots equal the direct solution's.
  auto key = [](const Rect& a, const Rect& b) {
    return std::tie(a.x0, a.y0, a.x1, a.y1) <
           std::tie(b.x0, b.y0, b.x1, b.y1);
  };
  std::vector<Rect> first = r.batch.solutions[0].shots;
  std::vector<Rect> expect = direct.shots;
  std::sort(first.begin(), first.end(), key);
  std::sort(expect.begin(), expect.end(), key);
  EXPECT_EQ(first, expect);
}

TEST(HierarchyTest, TranslatedInstanceIsFeasible) {
  const HierarchicalResult r = mustFracture(arrayLib(2));
  ASSERT_EQ(r.batch.solutions.size(), 2u);
  // Verify the second instance's shots against a translated problem.
  Polygon shifted = lPoly().polygon;
  shifted.translate({200, 0});
  Problem problem(shifted, FractureParams{});
  const Violations v = evaluateShots(problem, r.batch.solutions[1].shots);
  EXPECT_EQ(v.total(), 0);
}

TEST(HierarchyTest, MixedOwnPolygonsAndRefs) {
  GdsLibrary lib;
  GdsStructure cell{"CELL", {lPoly()}, {}, {}};
  GdsPolygon own;
  own.polygon = Polygon({{500, 0}, {560, 0}, {560, 60}, {500, 60}});
  GdsStructure top{"TOP", {own}, {{"CELL", {0, 300}}}, {}};
  lib.structures = {top, cell};
  const HierarchicalResult r = mustFracture(lib);
  EXPECT_EQ(r.uniqueShapesFractured, 2);  // TOP's square + CELL's L
  EXPECT_EQ(r.instantiatedShapes(), 2);
  // Shot for the square at its own coordinates, L shots shifted by 300.
  bool sawSquare = false;
  bool sawShifted = false;
  for (const Solution& sol : r.batch.solutions) {
    for (const Rect& s : sol.shots) {
      if (s.intersects({500, 0, 560, 60})) sawSquare = true;
      if (s.y0 >= 290) sawShifted = true;
    }
  }
  EXPECT_TRUE(sawSquare);
  EXPECT_TRUE(sawShifted);
}

TEST(HierarchyTest, EmptyLibraryIsAnError) {
  HierarchicalResult r;
  const Status st =
      fractureGdsHierarchical(GdsLibrary{}, BatchConfig{}, HierOptions{}, r);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

// Regression (top-structure detection): real GDS files usually list the
// top cell LAST; the resolved top must be the unreferenced structure,
// not structures.front().
TEST(HierarchyTest, TopAutoDetectedWhenListedLast) {
  GdsLibrary lib = arrayLib(4);
  std::swap(lib.structures[0], lib.structures[1]);  // CELL first, TOP last
  const HierarchicalResult r = mustFracture(lib);
  EXPECT_EQ(r.topStruct, "TOP");
  EXPECT_EQ(r.instantiatedShapes(), 4);
}

TEST(HierarchyTest, MultipleRootsNeedExplicitTop) {
  GdsLibrary lib = arrayLib(2);
  GdsStructure orphan{"ORPHAN", {lPoly()}, {}, {}};
  lib.structures.push_back(orphan);
  HierarchicalResult r;
  const Status st =
      fractureGdsHierarchical(lib, BatchConfig{}, HierOptions{}, r);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("TOP"), std::string::npos) << st.message();
  EXPECT_NE(st.message().find("ORPHAN"), std::string::npos) << st.message();
}

// Regression (unreachable cells): a cell no reference chain from the
// top reaches must not be fractured or counted — the old demo path
// fractured every library structure.
TEST(HierarchyTest, UnreachableCellNotFracturedOrCounted) {
  GdsLibrary lib = arrayLib(3);
  GdsPolygon big;
  big.polygon = Polygon({{0, 0}, {900, 0}, {900, 900}, {0, 900}});
  GdsStructure orphan{"ORPHAN", {big, big, big}, {}, {}};
  lib.structures.push_back(orphan);
  HierOptions options;
  options.topStruct = "TOP";
  const HierarchicalResult r = mustFracture(lib, BatchConfig{}, options);
  EXPECT_EQ(r.uniqueShapesFractured, 1);  // CELL only, never ORPHAN
  EXPECT_EQ(r.reachableCells, 2);
  EXPECT_EQ(r.instantiatedShapes(), 3);
}

// Regression (silent truncation): depth 8+ used to silently drop
// geometry; a 12-deep chain must now flatten completely...
TEST(HierarchyTest, DeepChainIsComplete) {
  GdsLibrary lib;
  const int depth = 12;
  for (int i = 0; i < depth; ++i) {
    GdsStructure s;
    s.name = "LEVEL" + std::to_string(i);
    if (i + 1 < depth) {
      s.srefs.push_back({"LEVEL" + std::to_string(i + 1), {10, 0}});
    } else {
      s.polygons.push_back(lPoly());
    }
    lib.structures.push_back(std::move(s));
  }
  std::vector<LayoutShape> shapes;
  const Status st = instanceShapes(lib, shapes);
  ASSERT_TRUE(st.ok()) << st.str();
  ASSERT_EQ(shapes.size(), 1u);
  // The leaf's L, translated by 11 hops of 10 nm.
  EXPECT_EQ(shapes[0].rings.front().bbox(),
            Rect(110, 0, 110 + 80, 80));
}

// ... while a chain past kGdsMaxDepth is a named error, not truncation.
TEST(HierarchyTest, OverDeepChainIsAnError) {
  GdsLibrary lib;
  const int depth = kGdsMaxDepth + 2;
  for (int i = 0; i < depth; ++i) {
    GdsStructure s;
    s.name = "LEVEL" + std::to_string(i);
    if (i + 1 < depth) {
      s.srefs.push_back({"LEVEL" + std::to_string(i + 1), {10, 0}});
    } else {
      s.polygons.push_back(lPoly());
    }
    lib.structures.push_back(std::move(s));
  }
  std::vector<LayoutShape> shapes;
  const Status st = instanceShapes(lib, shapes);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("deeper than"), std::string::npos)
      << st.message();
}

TEST(HierarchyTest, CycleIsAnErrorNamingTheChain) {
  GdsLibrary lib;
  GdsStructure a{"A", {lPoly()}, {{"B", {10, 0}}}, {}};
  GdsStructure b{"B", {lPoly()}, {{"A", {10, 0}}}, {}};
  lib.structures = {a, b};
  HierarchicalResult r;
  HierOptions options;
  options.topStruct = "A";
  const Status st = fractureGdsHierarchical(lib, BatchConfig{}, options, r);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("cycle"), std::string::npos) << st.message();
  EXPECT_NE(st.message().find("A -> B -> A"), std::string::npos)
      << st.message();
}

// Regression (int32 overflow): c * columnPitch overflows 32-bit long
// before the final placement does; the expansion must compute in int64.
TEST(HierarchyTest, ArefPlacementUsesInt64Arithmetic) {
  GdsLibrary lib;
  GdsStructure cell{"CELL", {lPoly()}, {}, {}};
  GdsAref aref;
  aref.structName = "CELL";
  aref.origin = {-2000000000, 0};
  aref.columns = 3;
  aref.rows = 1;
  aref.columnPitch = {1200000000, 0};  // c=2 -> 2.4e9, wraps in int32
  GdsStructure top{"TOP", {}, {}, {aref}};
  lib.structures = {top, cell};
  std::vector<LayoutShape> shapes;
  const Status st = instanceShapes(lib, shapes);
  ASSERT_TRUE(st.ok()) << st.str();
  ASSERT_EQ(shapes.size(), 3u);
  EXPECT_EQ(shapes[0].rings.front().bbox().x0, -2000000000);
  EXPECT_EQ(shapes[1].rings.front().bbox().x0, -800000000);
  EXPECT_EQ(shapes[2].rings.front().bbox().x0, 400000000);
}

TEST(HierarchyTest, OutOfRangePlacementIsRejected) {
  GdsLibrary lib;
  GdsStructure cell{"CELL", {lPoly()}, {}, {}};
  GdsStructure top{"TOP", {}, {{"CELL", {2147483600, 0}}}, {}};
  lib.structures = {top, cell};
  std::vector<LayoutShape> shapes;
  const Status st = instanceShapes(lib, shapes);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("32-bit"), std::string::npos) << st.message();
}

// A shape's fracture grid spans its bbox plus Problem::gridPad on every
// side. Planning refuses a shape whose grid would leave int32: such a
// grid once wrapped, and a 60 x 60 square near -2^31 fractured to four
// shots instead of one.
LayoutShape squareAt(Point at) {
  LayoutShape shape;
  shape.rings.push_back(Polygon({{at.x, at.y},
                                 {at.x + 60, at.y},
                                 {at.x + 60, at.y + 60},
                                 {at.x, at.y + 60}}));
  return shape;
}

/// x0 of the lowest and highest 60 x 60 squares whose grid fits int32.
int lowestSquare() {
  return std::numeric_limits<std::int32_t>::min() +
         Problem::gridPad(FractureParams{});
}
int highestSquare() {
  return std::numeric_limits<std::int32_t>::max() -
         Problem::gridPad(FractureParams{}) - 60;
}

TEST(PlanningTest, FlatShapeWhoseGridLeavesInt32IsRejected) {
  for (const Point at :
       {Point{lowestSquare() - 1, 0}, Point{0, highestSquare() + 1}}) {
    HierPlan plan;
    const Status st =
        planFlatLayout({squareAt({0, 0}), squareAt(at)}, BatchConfig{}, plan);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(st.message().find("shape 1 "), std::string::npos)
        << st.message();
    EXPECT_NE(st.message().find("32-bit"), std::string::npos);
  }
  for (const Point at :
       {Point{lowestSquare(), 0}, Point{0, highestSquare()}}) {
    HierPlan plan;
    EXPECT_TRUE(planFlatLayout({squareAt(at)}, BatchConfig{}, plan).ok());
  }
}

TEST(PlanningTest, HierPlacementWhoseGridLeavesInt32IsRejected) {
  for (const bool inside : {true, false}) {
    GdsLibrary lib;
    GdsPolygon square;
    square.polygon = squareAt({0, 0}).rings.front();
    GdsStructure cell{"CELL", {square}, {}, {}};
    const int x = highestSquare() + (inside ? 0 : 1);
    GdsStructure top{"TOP", {}, {{"CELL", {x, 0}}}, {}};
    lib.structures = {top, cell};
    HierPlan plan;
    const Status st = planGdsHierarchy(lib, BatchConfig{}, "", plan);
    if (inside) {
      EXPECT_TRUE(st.ok()) << st.str();
    } else {
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
      EXPECT_NE(st.message().find("'CELL'"), std::string::npos)
          << st.message();
      EXPECT_NE(st.message().find("grid halo"), std::string::npos);
    }
  }
}

TEST(PlanningTest, SquareAtTheGridLimitFracturesLikeAtTheOrigin) {
  const BatchResult origin = fractureLayout({squareAt({0, 0})}, BatchConfig{});
  ASSERT_EQ(origin.solutions.size(), 1u);
  for (const Point at : {Point{lowestSquare(), lowestSquare()},
                         Point{highestSquare(), highestSquare()}}) {
    const BatchResult far = fractureLayout({squareAt(at)}, BatchConfig{});
    std::vector<Rect> expected = origin.solutions[0].shots;
    for (Rect& r : expected) r = r.translated(at);
    EXPECT_EQ(far.solutions[0].shots, expected) << at.x;
    EXPECT_EQ(far.solutions[0].failOn, origin.solutions[0].failOn);
    EXPECT_EQ(far.solutions[0].failOff, origin.solutions[0].failOff);
    EXPECT_FALSE(far.reports[0].degraded);
  }
}

/// Union bbox min corner of a cell's shapes.
Point minCorner(const std::vector<LayoutShape>& shapes) {
  Rect box = shapes.front().rings.front().bbox();
  for (const LayoutShape& shape : shapes) {
    for (const Polygon& ring : shape.rings) box = box.unionWith(ring.bbox());
  }
  return box.bl();
}

bool sameGeometry(const LayoutShape& a, const LayoutShape& b) {
  if (a.rings.size() != b.rings.size()) return false;
  for (std::size_t r = 0; r < a.rings.size(); ++r) {
    if (a.rings[r].vertices() != b.rings[r].vertices()) return false;
  }
  return true;
}

LayoutShape movedBy(LayoutShape shape, Point d) {
  for (Polygon& ring : shape.rings) ring.translate(d);
  return shape;
}

TEST(PlanningTest, FlatRepeatsShareOneAnchoredCellPerContent) {
  // Three contents — a square, an L and a curvilinear ILT clip — placed
  // six times by translation, a repeat before the last new content.
  LayoutShape ilt;
  IltSynthConfig cfg;
  cfg.seed = 7;
  ilt.rings.push_back(makeIltShape(cfg));
  LayoutShape l;
  l.rings.push_back(lPoly().polygon);
  const std::vector<LayoutShape> layout = {
      squareAt({100, 40}),          movedBy(l, {-500, 700}),
      squareAt({-3000, 12}),        movedBy(ilt, {4000, -900}),
      movedBy(l, {900, -20}),       movedBy(ilt, {-7001, 2503})};
  const int wantCell[] = {0, 1, 0, 2, 1, 2};

  HierPlan plan;
  ASSERT_TRUE(planFlatLayout(layout, BatchConfig{}, plan).ok());
  ASSERT_EQ(plan.cells.size(), 3u);
  ASSERT_EQ(plan.instances.size(), layout.size());
  for (const HierPlan::Cell& cell : plan.cells) {
    ASSERT_EQ(cell.shapes.size(), 1u);
    EXPECT_EQ(minCorner(cell.shapes), Point(0, 0));
  }
  const std::vector<LayoutShape> placed = planInstanceShapes(plan);
  ASSERT_EQ(placed.size(), layout.size());
  for (std::size_t i = 0; i < layout.size(); ++i) {
    EXPECT_EQ(plan.instances[i].cell, wantCell[i]) << "shape " << i;
    EXPECT_EQ(plan.instances[i].offset, minCorner({layout[i]}))
        << "shape " << i;
    EXPECT_TRUE(sameGeometry(placed[i], layout[i])) << "shape " << i;
  }

  // The deduped run writes the bytes of fracturing every shape alone,
  // where it lies.
  BatchConfig config;
  config.threads = 2;
  const BatchResult run = fractureLayout(layout, config);
  std::vector<Solution> alone;
  for (const LayoutShape& shape : layout) {
    alone.push_back(fractureShape(shape, config.params, config.method));
  }
  EXPECT_EQ(formatBatchShots(run.solutions), formatBatchShots(alone));
}

TEST(PlanningTest, GdsCellsEqualUpToTranslationShareOneCell) {
  // A and B draw the same L at different positions in their own
  // coordinates; each is placed twice.
  GdsPolygon inA = lPoly();
  inA.polygon.translate({20, 10});
  GdsPolygon inB = lPoly();
  inB.polygon.translate({1000, -30});
  GdsStructure a{"A", {inA}, {}, {}};
  GdsStructure b{"B", {inB}, {}, {}};
  GdsStructure top{"TOP",
                   {},
                   {{"A", {0, 0}},
                    {"B", {5000, 0}},
                    {"A", {0, 4000}},
                    {"B", {-7000, 300}}},
                   {}};
  GdsLibrary lib;
  lib.structures = {top, a, b};

  HierPlan plan;
  ASSERT_TRUE(planGdsHierarchy(lib, BatchConfig{}, "", plan).ok());
  ASSERT_EQ(plan.cells.size(), 1u);
  EXPECT_EQ(minCorner(plan.cells[0].shapes), Point(0, 0));
  // Offset = placement + the cell's anchor in its own coordinates.
  const Point want[] = {{20, 10}, {6000, -30}, {20, 4010}, {-6000, 270}};
  ASSERT_EQ(plan.instances.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(plan.instances[i].cell, 0);
    EXPECT_EQ(plan.instances[i].offset, want[i]) << "instance " << i;
  }

  // The placed geometry is the flattened layout, and every instance gets
  // the cell's shots at its own position.
  std::vector<GdsPolygon> flat;
  ASSERT_TRUE(flattenGdsChecked(lib, "", flat).ok());
  const std::vector<LayoutShape> placed = planInstanceShapes(plan);
  ASSERT_EQ(placed.size(), flat.size());
  for (std::size_t i = 0; i < flat.size(); ++i) {
    ASSERT_EQ(placed[i].rings.size(), 1u);
    EXPECT_EQ(placed[i].rings[0].vertices(), flat[i].polygon.vertices())
        << "instance " << i;
  }
  HierarchicalResult run;
  ASSERT_TRUE(fracturePlan(plan, BatchConfig{}, HierOptions{}, run).ok());
  EXPECT_EQ(run.uniqueShapesFractured, 1);
  LayoutShape l;
  l.rings.push_back(lPoly().polygon);
  const Solution atOrigin =
      fractureShape(l, FractureParams{}, Method::kOurs);
  ASSERT_EQ(run.batch.solutions.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    std::vector<Rect> expected = atOrigin.shots;
    for (Rect& r : expected) r = r.translated(want[i]);
    EXPECT_EQ(run.batch.solutions[i].shots, expected) << "instance " << i;
  }
}

// --------------------------------------------------------------------
// Persistent cell-fracture cache
// --------------------------------------------------------------------

std::vector<LayoutShape> cellShapes() {
  LayoutShape shape;
  shape.rings.push_back(lPoly().polygon);
  return {shape};
}

TEST(CellCacheTest, KeyInvalidatesOnEveryResultRelevantField) {
  const std::vector<LayoutShape> shapes = cellShapes();
  const BatchConfig base;
  const std::string baseKey = cellFractureKey(shapes, base);
  ASSERT_EQ(baseKey.size(), 64u);

  std::vector<std::pair<std::string, BatchConfig>> variants;
  auto add = [&](const std::string& name, auto&& mutate) {
    BatchConfig c = base;
    mutate(c);
    variants.emplace_back(name, std::move(c));
  };
  add("gamma", [](BatchConfig& c) { c.params.gamma = 3.0; });
  add("sigma", [](BatchConfig& c) { c.params.sigma = 7.0; });
  add("rho", [](BatchConfig& c) { c.params.rho = 0.4; });
  add("lmin", [](BatchConfig& c) { c.params.lmin = 14; });
  add("eta", [](BatchConfig& c) { c.params.backscatterEta = 0.1; });
  add("sigma_back", [](BatchConfig& c) { c.params.backscatterSigma = 30.0; });
  add("lth", [](BatchConfig& c) { c.params.lth = 25.0; });
  add("overlap", [](BatchConfig& c) { c.params.overlapFraction = 0.7; });
  add("coloring_order", [](BatchConfig& c) {
    c.params.coloringOrder = ColoringOrder::kDsatur;
  });
  add("nmax", [](BatchConfig& c) { c.params.nmax = 99; });
  add("nh", [](BatchConfig& c) { c.params.nh = 5; });
  add("stagnation", [](BatchConfig& c) { c.params.stagnationEps = 1e-5; });
  add("blocking", [](BatchConfig& c) { c.params.blockingSigmas = 1.5; });
  add("merge_inside",
      [](BatchConfig& c) { c.params.mergeInsideFraction = 0.8; });
  add("bias", [](BatchConfig& c) { c.params.enableBias = false; });
  add("add_remove", [](BatchConfig& c) { c.params.enableAddRemove = false; });
  add("merge", [](BatchConfig& c) { c.params.enableMerge = false; });
  add("budget_ms", [](BatchConfig& c) { c.params.shapeTimeBudgetMs = 5.0; });
  add("grid_bytes", [](BatchConfig& c) { c.params.maxGridBytes = 1 << 20; });
  add("method", [](BatchConfig& c) { c.method = Method::kGsc; });
  add("strict", [](BatchConfig& c) { c.allowDegradation = false; });

  for (const auto& [name, config] : variants) {
    EXPECT_NE(cellFractureKey(shapes, config), baseKey)
        << "field '" << name << "' did not invalidate the key";
  }

  // Thread counts are byte-identity knobs, not result knobs: same key.
  BatchConfig threaded = base;
  threaded.threads = 8;
  threaded.params.numThreads = 8;
  EXPECT_EQ(cellFractureKey(shapes, threaded), baseKey);

  // Geometry participates.
  std::vector<LayoutShape> moved = shapes;
  moved[0].rings[0].translate({1, 0});
  EXPECT_NE(cellFractureKey(moved, base), baseKey);
}

struct TempCacheDir {
  std::string path;
  explicit TempCacheDir(const std::string& name)
      : path("cell_cache_tmp_" + name) {
    std::system(("rm -rf '" + path + "'").c_str());
  }
  ~TempCacheDir() { std::system(("rm -rf '" + path + "'").c_str()); }
};

/// The cell's fracture under `config` as a plan would hold it: plan
/// index 0, the content key, one solution and report per shape.
CellRecord fracturedCell(const std::vector<LayoutShape>& shapes,
                         const BatchConfig& config) {
  const BatchResult batch = fractureLayout(shapes, config);
  return CellRecord{0, cellFractureKey(shapes, config), batch.solutions,
                    batch.reports};
}

/// `cell` as the cache stores it: no plan index, no wall clock.
CellRecord canonical(CellRecord cell) {
  cell.cellIndex = -1;
  for (Solution& s : cell.solutions) s.runtimeSeconds = 0.0;
  return cell;
}

/// A record asking the cache for `key`.
CellRecord lookupFor(const std::string& key) {
  CellRecord record;
  record.cellIndex = 3;
  record.key = key;
  return record;
}

void writeBytes(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(CellCacheTest, StoreLoadRoundTripIsBitExact) {
  TempCacheDir dir("roundtrip");
  CellFractureCache cache(dir.path + "/nested/deeper");
  ASSERT_TRUE(cache.prepare().ok());

  const CellRecord cell = fracturedCell(cellShapes(), BatchConfig{});
  ASSERT_TRUE(cache.store(cell).ok());

  CellRecord back = lookupFor(cell.key);
  ASSERT_EQ(cache.load(back), CellFractureCache::Lookup::kHit);
  // The caller's plan index and key stay; the results are bitwise equal
  // except runtimeSeconds, the one wall-clock field: the cache stores
  // it canonicalized to zero so entry bytes are a pure function of the
  // key (concurrent writers publish bit-identical payloads).
  EXPECT_EQ(back.cellIndex, 3);
  EXPECT_EQ(back.key, cell.key);
  EXPECT_EQ(back.solutions, canonical(cell).solutions);
  ASSERT_EQ(back.reports.size(), cell.reports.size());
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().stored, 1);

  CellRecord missOut = lookupFor(std::string(64, 'a'));
  EXPECT_EQ(cache.load(missOut), CellFractureCache::Lookup::kMiss);
  EXPECT_TRUE(missOut.solutions.empty());
}

TEST(CellCacheTest, EntryIsDigestLinePlusCanonicalCellRecord) {
  TempCacheDir dir("format");
  CellFractureCache cache(dir.path);
  ASSERT_TRUE(cache.prepare().ok());

  CellRecord cell = fracturedCell(cellShapes(), BatchConfig{});
  cell.cellIndex = 7;
  for (Solution& s : cell.solutions) s.runtimeSeconds = 0.125;
  ASSERT_TRUE(cache.store(cell).ok());

  std::string bytes;
  ASSERT_TRUE(readFileToString(cache.pathFor(cell.key), bytes).ok());
  const std::string payload = encodeCellRecord(canonical(cell));
  EXPECT_EQ(bytes, "mbf-cell-cache v4 " + sha256Hex(payload) + "\n" + payload);

  // One file per entry: besides this process's liveness lock, the
  // directory holds the entry alone.
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(".mbf-live.", 0) != 0) names.push_back(name);
  }
  EXPECT_EQ(names, std::vector<std::string>{cell.key + ".cell"});
}

TEST(CellCacheTest, TamperedEntryIsRejectedNeverReused) {
  TempCacheDir dir("tamper");
  CellFractureCache cache(dir.path);
  ASSERT_TRUE(cache.prepare().ok());

  const CellRecord cell = fracturedCell(cellShapes(), BatchConfig{});
  ASSERT_TRUE(cache.store(cell).ok());
  const std::string path = cache.pathFor(cell.key);
  std::string intact;
  ASSERT_TRUE(readFileToString(path, intact).ok());
  const std::size_t headerEnd = intact.find('\n') + 1;
  ASSERT_LT(headerEnd, intact.size());

  std::vector<std::pair<std::string, std::string>> damaged;
  auto flipped = [&](std::size_t at) {
    std::string bytes = intact;
    bytes[at] = static_cast<char>(bytes[at] ^ 0x01);
    return bytes;
  };
  damaged.emplace_back("header digest", flipped(headerEnd - 10));
  damaged.emplace_back("payload",
                       flipped(headerEnd + (intact.size() - headerEnd) / 2));
  damaged.emplace_back("truncated payload",
                       intact.substr(0, intact.size() - 1));
  damaged.emplace_back("truncated header", intact.substr(0, headerEnd / 2));
  for (const auto& [what, bytes] : damaged) {
    writeBytes(path, bytes);
    CellRecord out = lookupFor(cell.key);
    EXPECT_EQ(cache.load(out), CellFractureCache::Lookup::kRejected) << what;
    EXPECT_TRUE(out.solutions.empty()) << what;
  }
  EXPECT_EQ(cache.stats().rejected, static_cast<int>(damaged.size()));
  EXPECT_EQ(cache.stats().hits, 0);

  // An intact entry copied to another key's path verifies its digest
  // but names the wrong key: rejected too.
  const std::string wrongKey(64, 'b');
  writeBytes(cache.pathFor(wrongKey), intact);
  CellRecord aliased = lookupFor(wrongKey);
  EXPECT_EQ(cache.load(aliased), CellFractureCache::Lookup::kRejected);

  // The caller's response to a rejection — re-fracture and store —
  // repairs the entry.
  ASSERT_TRUE(cache.store(cell).ok());
  CellRecord repaired = lookupFor(cell.key);
  EXPECT_EQ(cache.load(repaired), CellFractureCache::Lookup::kHit);
}

TEST(CellCacheTest, StoreOverExistingEntryIsBenignLastWriterWins) {
  TempCacheDir dir("lastwriter");
  const CellRecord cell = fracturedCell(cellShapes(), BatchConfig{});

  // Two cache objects on one directory stand in for two processes that
  // both missed and both fractured the same cell: the key addresses the
  // content, so both renames publish bit-identical bytes and the loser
  // of the race replaces a file with itself.
  CellFractureCache first(dir.path);
  ASSERT_TRUE(first.prepare().ok());
  ASSERT_TRUE(first.store(cell).ok());
  std::string bytesAfterFirst;
  ASSERT_TRUE(readFileToString(first.pathFor(cell.key), bytesAfterFirst).ok());

  // The second "process" fractured the same cell at a different wall
  // clock and plan index — what two independent fractures legitimately
  // differ in. Canonicalization must erase both from the stored bytes.
  CellRecord later = cell;
  later.cellIndex = 5;
  for (Solution& s : later.solutions) s.runtimeSeconds += 17.25;
  CellFractureCache second(dir.path);
  ASSERT_TRUE(second.prepare().ok());
  ASSERT_TRUE(second.store(later).ok());
  std::string bytesAfterSecond;
  ASSERT_TRUE(
      readFileToString(second.pathFor(cell.key), bytesAfterSecond).ok());
  EXPECT_EQ(bytesAfterSecond, bytesAfterFirst);

  CellRecord back = lookupFor(cell.key);
  ASSERT_EQ(first.load(back), CellFractureCache::Lookup::kHit);
  EXPECT_EQ(back.solutions, canonical(cell).solutions);
}

TEST(CellCacheTest, QuotaEvictionSkipsKeysNotedByLiveProcess) {
  TempCacheDir dir("quotalive");
  const CellRecord cell = fracturedCell(cellShapes(), BatchConfig{});
  auto keyed = [&](char digit) {
    CellRecord r = cell;
    r.key = std::string(64, digit);
    return r;
  };
  const CellRecord k1 = keyed('1');
  const CellRecord k2 = keyed('2');
  const CellRecord k3 = keyed('3');

  // Run A stores k1 and exits (its liveness lock is released).
  std::string k1Path;
  {
    CellFractureCache a(dir.path);
    ASSERT_TRUE(a.prepare().ok());
    ASSERT_TRUE(a.store(k1).ok());
    k1Path = a.pathFor(k1.key);
  }

  // A concurrent run under a fake pid holds its liveness lock and has
  // noted k1 (it loaded or stored that entry). flock binds to the open
  // file description, so holding it on a private descriptor makes
  // probes from this same process read "live".
  const std::string ghostLock = dir.path + "/.mbf-live.4000001.lck";
  const int ghostFd = ::open(ghostLock.c_str(), O_WRONLY | O_CREAT, 0644);
  ASSERT_GE(ghostFd, 0);
  ASSERT_EQ(::flock(ghostFd, LOCK_EX | LOCK_NB), 0);
  const std::string line = k1.key + "\n";
  ASSERT_EQ(::write(ghostFd, line.data(), line.size()),
            static_cast<ssize_t>(line.size()));

  // Run B stores k2 under a 1-byte quota: the sweep wants k1 (oldest,
  // not B's own) but must spare it — the live process may reload it.
  CellFractureCache b(dir.path);
  ASSERT_TRUE(b.prepare().ok());
  b.setQuotaBytes(1);
  ASSERT_TRUE(b.store(k2).ok());
  struct stat st{};
  EXPECT_EQ(::stat(k1Path.c_str(), &st), 0) << "live-noted entry evicted";
  EXPECT_GE(b.stats().evictionsSkippedLive, 1);
  EXPECT_EQ(b.stats().evicted, 0);

  // The ghost process dies (lock released): the next sweep evicts k1.
  ASSERT_EQ(::close(ghostFd), 0);
  ASSERT_TRUE(b.store(k3).ok());
  EXPECT_NE(::stat(k1Path.c_str(), &st), 0)
      << "entry of a dead process must become evictable";
  EXPECT_GE(b.stats().evicted, 1);
}

TEST(CellCacheTest, WarmHierRunIsBitIdenticalWithZeroFractures) {
  TempCacheDir dir("warm");
  GdsLibrary lib = arrayLib(4);
  // A second unique cell so the warm run proves multi-entry reuse.
  GdsPolygon sq;
  sq.polygon = Polygon({{0, 0}, {50, 0}, {50, 50}, {0, 50}});
  lib.structures.push_back(GdsStructure{"SQ", {sq}, {}, {}});
  lib.structures[0].srefs.push_back({"SQ", {-300, 0}});

  BatchConfig config;
  HierOptions options;
  options.topStruct = "TOP";
  options.cellCacheDir = dir.path;

  HierarchicalResult cold;
  ASSERT_TRUE(fractureGdsHierarchical(lib, config, options, cold).ok());
  EXPECT_EQ(cold.cellCacheHits, 0);
  EXPECT_EQ(cold.cellCacheMisses, 2);
  EXPECT_EQ(cold.uniqueCellsFractured, 2);
  EXPECT_EQ(cold.uniqueShapesFractured, 2);

  HierarchicalResult warm;
  ASSERT_TRUE(fractureGdsHierarchical(lib, config, options, warm).ok());
  EXPECT_EQ(warm.cellCacheHits, 2);
  EXPECT_EQ(warm.cellCacheMisses, 0);
  EXPECT_EQ(warm.uniqueCellsFractured, 0);   // zero fractures performed
  EXPECT_EQ(warm.uniqueShapesFractured, 0);
  // Bitwise identity except runtimeSeconds (stored canonicalized to
  // zero — no fracture happened in the warm run, so a replayed runtime
  // would be fiction): warm solutions are replayed bytes, not
  // recomputations.
  std::vector<Solution> coldCanonical = cold.batch.solutions;
  for (Solution& s : coldCanonical) s.runtimeSeconds = 0.0;
  EXPECT_EQ(warm.batch.solutions, coldCanonical);
  EXPECT_EQ(warm.flatShotCount(), cold.flatShotCount());

  // Changing any parameter misses (and re-populates under the new key).
  BatchConfig changed = config;
  changed.params.gamma = 3.0;
  HierarchicalResult invalidated;
  ASSERT_TRUE(
      fractureGdsHierarchical(lib, changed, options, invalidated).ok());
  EXPECT_EQ(invalidated.cellCacheHits, 0);
  EXPECT_EQ(invalidated.uniqueCellsFractured, 2);
}

/// A and B are different cells; each holds one distinct shape and the
/// same L at a different spot of its own coordinates: 4 cell shapes, 3
/// distinct, and 6 instance shapes (A placed twice).
GdsLibrary sharedShapeLib() {
  GdsPolygon square;
  square.polygon = Polygon({{200, 10}, {260, 10}, {260, 70}, {200, 70}});
  GdsPolygon bar;
  bar.polygon = Polygon({{0, 0}, {140, 0}, {140, 40}, {0, 40}});
  GdsPolygon lInB = lPoly();
  lInB.polygon.translate({170, 60});
  GdsStructure a{"A", {lPoly(), square}, {}, {}};
  GdsStructure b{"B", {bar, lInB}, {}, {}};
  GdsStructure top{
      "TOP", {}, {{"A", {0, 0}}, {"B", {1000, 500}}, {"A", {-800, 900}}}, {}};
  GdsLibrary lib;
  lib.structures = {top, a, b};
  return lib;
}

TEST(HierarchyTest, ShapeSharedByTwoCellsIsFracturedOnce) {
  const GdsLibrary lib = sharedShapeLib();
  TempCacheDir dir("shared_shape");
  std::filesystem::create_directories(dir.path);
  BatchConfig config;
  config.threads = 4;
  HierOptions options;
  options.journalPath = dir.path + "/run.jrn";
  HierarchicalResult hier;
  RunCounters counters;
  ASSERT_TRUE(
      fractureGdsHierarchical(lib, config, options, hier, &counters).ok());
  EXPECT_EQ(hier.uniqueCellsFractured, 2);
  EXPECT_EQ(hier.uniqueShapesFractured, 3);
  EXPECT_EQ(counters.freshCells, 2);
  EXPECT_EQ(counters.freshShapes, 3);
  const std::string bytes = formatBatchShots(hier.batch.solutions);

  // The flat run of the same layout, and the bytes of fracturing each
  // cell shape in place (recorded before shapes were shared).
  std::vector<LayoutShape> shapes;
  ASSERT_TRUE(instanceShapes(lib, shapes).ok());
  ASSERT_EQ(shapes.size(), 6u);
  EXPECT_EQ(bytes, formatBatchShots(fractureLayout(shapes, config).solutions));
  EXPECT_EQ(sha256Hex(bytes),
            "30aec9aa0fa5f81478366a770c14459c94e825d8c626ae25e0fa76fa77c31e0e");

  // Both cell records reached the journal: a resume fractures nothing.
  options.resume = true;
  HierarchicalResult resumed;
  RunCounters resumedCounters;
  ASSERT_TRUE(
      fractureGdsHierarchical(lib, config, options, resumed, &resumedCounters)
          .ok());
  EXPECT_EQ(resumedCounters.resumedCells, 2);
  EXPECT_EQ(resumed.uniqueShapesFractured, 0);
  EXPECT_EQ(formatBatchShots(resumed.batch.solutions), bytes);
}

TEST(HierarchyTest, DrainBeforeAnyShapeCountsNothingFresh) {
  // A SIGTERM that lands before the fill starts leaves every distinct
  // shape unstarted: no shape and no cell is fresh, so the --resume that
  // fractures them is the run that counts them. The drain flag cannot be
  // cleared, so the drained run happens in a child process, serially (a
  // re-executed child has no pool threads), and reports its counts on
  // stderr.
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  auto drainedRun = [] {
    installInterruptHandlers();
    std::raise(SIGTERM);
    BatchConfig config;
    HierPlan plan;
    HierarchicalResult out;
    RunCounters counters;
    Status st = planGdsHierarchy(sharedShapeLib(), config, "", plan);
    if (st.ok()) st = fracturePlan(plan, config, {}, out, &counters);
    std::fprintf(stderr,
                 "ok=%d interrupted=%d unique_shapes=%d unique_cells=%d "
                 "fresh_shapes=%d fresh_cells=%d\n",
                 st.ok() ? 1 : 0, out.batch.interruptedShapes,
                 out.uniqueShapesFractured, out.uniqueCellsFractured,
                 counters.freshShapes, counters.freshCells);
    std::fflush(stderr);
    std::_Exit(0);
  };
  EXPECT_EXIT(drainedRun(), ::testing::ExitedWithCode(0),
              "ok=1 interrupted=6 unique_shapes=0 unique_cells=0 "
              "fresh_shapes=0 fresh_cells=0");
}

/// groupRings as it was first written, testing every ring's bbox against
/// every other ring's: the oracle of the indexed version.
std::vector<LayoutShape> groupRingsQuadratic(std::vector<Polygon> rings) {
  const std::size_t n = rings.size();
  std::vector<int> parent(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      if (!rings[j].bbox().contains(rings[i].bbox())) continue;
      if (rings[j].contains(toVec2(rings[i][0]) + Vec2{0.25, 0.25})) {
        parent[i] = static_cast<int>(j);
        break;
      }
    }
  }
  std::vector<LayoutShape> shapes;
  std::vector<int> shapeOf(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    if (parent[i] < 0) {
      shapeOf[i] = static_cast<int>(shapes.size());
      shapes.emplace_back();
      shapes.back().rings.push_back(rings[i]);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const int p = parent[i];
    if (p >= 0 && shapeOf[static_cast<std::size_t>(p)] >= 0) {
      shapes[static_cast<std::size_t>(shapeOf[static_cast<std::size_t>(p)])]
          .rings.push_back(rings[i]);
    }
  }
  return shapes;
}

Polygon rectRing(int x0, int y0, int x1, int y1) {
  return Polygon({{x0, y0}, {x1, y0}, {x1, y1}, {x0, y1}});
}

TEST(GroupRingsTest, IndexedContainmentMatchesTheQuadraticOracle) {
  // Random nested layouts: frames with holes, holes holding islands, L
  // rings whose bbox contains a ring their polygon does not, columns and
  // rows of boxes sharing one x (or y) range, duplicate rings, and rings
  // touching at shared coordinates — in shuffled order, so the lowest
  // index container is rarely the first one found.
  std::mt19937 rng(20261020);
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<Polygon> rings;
    auto coord = [&](int lo, int hi) {
      return std::uniform_int_distribution<int>(lo, hi)(rng);
    };
    const int groups = coord(1, 40);
    for (int g = 0; g < groups; ++g) {
      const int x = coord(-5000, 5000);
      const int y = coord(-5000, 5000);
      switch (coord(0, 4)) {
        case 0: {  // frame, hole, island, nested to a random depth
          int size = coord(60, 400);
          for (int depth = coord(1, 4), k = 0; k < depth && size > 8; ++k) {
            const int at = k * 4;
            rings.push_back(rectRing(x + at, y + at, x + size - at,
                                     y + size - at));
            size -= 4;
          }
          break;
        }
        case 1:  // an L whose bbox holds a square its polygon misses
          rings.push_back(Polygon({{x, y}, {x + 90, y}, {x + 90, y + 30},
                                   {x + 30, y + 30}, {x + 30, y + 90},
                                   {x, y + 90}}));
          rings.push_back(rectRing(x + 50, y + 50, x + 80, y + 80));
          break;
        case 2:  // a column sharing one x range
          for (int k = coord(2, 12); k > 0; --k) {
            rings.push_back(rectRing(x, y + 50 * k, x + 40, y + 50 * k + 40));
          }
          break;
        case 3:  // a row sharing one y range, touching neighbours
          for (int k = coord(2, 12); k > 0; --k) {
            rings.push_back(rectRing(x + 40 * k, y, x + 40 * k + 40, y + 40));
          }
          break;
        default:  // duplicates
          rings.push_back(rectRing(x, y, x + 30, y + 30));
          rings.push_back(rectRing(x, y, x + 30, y + 30));
          break;
      }
    }
    std::shuffle(rings.begin(), rings.end(), rng);
    const std::vector<LayoutShape> got = groupRings(rings);
    const std::vector<LayoutShape> want = groupRingsQuadratic(rings);
    ASSERT_EQ(got.size(), want.size()) << "trial " << trial;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].rings.size(), want[i].rings.size())
          << "trial " << trial << " shape " << i;
      for (std::size_t r = 0; r < got[i].rings.size(); ++r) {
        EXPECT_EQ(got[i].rings[r].vertices(), want[i].rings[r].vertices())
            << "trial " << trial << " shape " << i << " ring " << r;
      }
    }
  }
}

TEST(PlanFingerprintTest, CoversGeometryInstancesAndResultParameters) {
  BatchConfig config;
  HierPlan plan;
  ASSERT_TRUE(planGdsHierarchy(arrayLib(4), config, "", plan).ok());
  const std::string base = planFingerprint(plan, config);
  EXPECT_EQ(base.rfind("mbf-plan v2 cells=1 instances=4 shapes=4 fp=", 0),
            0u)
      << base;

  // Execution knobs a verifier does not know leave it unchanged, even
  // though they re-key every cell.
  BatchConfig knobs = config;
  knobs.threads = 8;
  knobs.params.numThreads = 8;
  knobs.params.shapeTimeBudgetMs = 100000;
  knobs.params.maxGridBytes = 1 << 30;
  FaultInjector injector;
  injector.armShape(0, FaultKind::kThrow);
  knobs.params.faultInjector = &injector;
  HierPlan knobPlan;
  ASSERT_TRUE(planGdsHierarchy(arrayLib(4), knobs, "", knobPlan).ok());
  EXPECT_NE(knobPlan.cells[0].key, plan.cells[0].key);
  EXPECT_EQ(planFingerprint(knobPlan, knobs), base);

  // Result-relevant parameters, the instance table and the cell
  // geometry each change it.
  BatchConfig gamma = config;
  gamma.params.gamma = 1.5;
  EXPECT_NE(planFingerprint(plan, gamma), base);
  BatchConfig method = config;
  method.method = Method::kGsc;
  EXPECT_NE(planFingerprint(plan, method), base);
  HierPlan moved = plan;
  moved.instances[2].offset = moved.instances[2].offset + Point{1, 0};
  EXPECT_NE(planFingerprint(moved, config), base);
  HierPlan reshaped = plan;
  reshaped.cells[0].shapes[0].rings[0].translate({0, 1});
  EXPECT_NE(planFingerprint(reshaped, config), base);
  HierPlan more;
  ASSERT_TRUE(planGdsHierarchy(arrayLib(5), config, "", more).ok());
  EXPECT_NE(planFingerprint(more, config), base);
}

TEST(PlanFingerprintTest, CellGroupsLocateEachCellsFirstInstance) {
  // Cell 0 holds one shape and cell 1 two; instances interleave.
  HierPlan plan;
  plan.cells.resize(2);
  plan.cells[0].shapes.resize(1);
  plan.cells[1].shapes.resize(2);
  plan.instances = {{1, {0, 0}}, {0, {10, 0}}, {1, {20, 0}}, {0, {30, 0}},
                    {0, {40, 0}}};
  const std::vector<RunManifestInfo::CellGroup> groups = planCellGroups(plan);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].firstResult, 2);
  EXPECT_EQ(groups[0].shapes, 1);
  EXPECT_EQ(groups[0].instances, 3);
  EXPECT_EQ(groups[1].firstResult, 0);
  EXPECT_EQ(groups[1].shapes, 2);
  EXPECT_EQ(groups[1].instances, 2);
}

}  // namespace
}  // namespace mbf
