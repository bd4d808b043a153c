// Tests for the fault-tolerant pipeline (DESIGN.md "Failure model and
// degradation ladder"): the Status error model, per-shape budgets, the
// deterministic FaultInjector, exception isolation in the parallel
// layer, and graceful degradation to rect-partition fracturing. The
// degenerate-geometry cases assert the contract "clean Status or
// degraded-but-usable, never a crash".
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fracture/fallback.h"
#include "fracture/problem.h"
#include "fracture/verifier.h"
#include "io/gdsii.h"
#include "io/poly_io.h"
#include "mdp/layout.h"
#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"
#include "support/deadline.h"
#include "support/fault_injector.h"
#include "support/status.h"

namespace mbf {
namespace {

LayoutShape rectShape(int w, int h, Point at = {0, 0}) {
  LayoutShape s;
  s.rings.push_back(Polygon({{at.x, at.y},
                             {at.x + w, at.y},
                             {at.x + w, at.y + h},
                             {at.x, at.y + h}}));
  return s;
}

// --- Status / Diagnostics ----------------------------------------------

TEST(StatusTest, DefaultConstructedIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.shapeIndex(), -1);
  EXPECT_EQ(st.byteOffset(), -1);
  EXPECT_EQ(st.str(), "OK");
}

TEST(StatusTest, CarriesCodeMessageAndContext) {
  Status st(StatusCode::kParseError, "bad record");
  st.withShape(4).withOffset(128);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_EQ(st.shapeIndex(), 4);
  EXPECT_EQ(st.byteOffset(), 128);
  const std::string text = st.str();
  EXPECT_NE(text.find("PARSE_ERROR"), std::string::npos);
  EXPECT_NE(text.find("bad record"), std::string::npos);
  EXPECT_NE(text.find("[shape 4]"), std::string::npos);
  EXPECT_NE(text.find("[offset 128]"), std::string::npos);
  EXPECT_NE(text.find("robustness_test.cpp"), std::string::npos);
}

TEST(StatusTest, DiagnosticsTracksWorstCode) {
  Diagnostics diag;
  EXPECT_TRUE(diag.empty());
  EXPECT_EQ(diag.worst(), StatusCode::kOk);
  diag.add(Status(StatusCode::kParseError, "a"));
  diag.add(Status(StatusCode::kInternal, "b"));
  diag.add(Status(StatusCode::kIoError, "c"));
  EXPECT_EQ(diag.size(), 3u);
  EXPECT_EQ(diag.worst(), StatusCode::kInternal);
}

TEST(StatusTest, BudgetErrorCarriesStatus) {
  const BudgetExceededError e(
      Status(StatusCode::kBudgetExceeded, "out of time").withShape(3));
  EXPECT_EQ(e.status().code(), StatusCode::kBudgetExceeded);
  EXPECT_EQ(e.status().shapeIndex(), 3);
  EXPECT_NE(std::string(e.what()).find("out of time"), std::string::npos);
}

// --- Deadline / FaultInjector ------------------------------------------

TEST(DeadlineTest, DefaultAndNonPositiveAreUnlimited) {
  EXPECT_TRUE(Deadline().unlimited());
  EXPECT_FALSE(Deadline().exceeded());
  EXPECT_TRUE(Deadline::afterMs(0.0).unlimited());
  EXPECT_TRUE(Deadline::afterMs(-5.0).unlimited());
}

TEST(DeadlineTest, ExpiredIsImmediatelyExceeded) {
  const Deadline d = Deadline::expired();
  EXPECT_FALSE(d.unlimited());
  EXPECT_TRUE(d.exceeded());
}

TEST(DeadlineTest, FarFutureDeadlineNotExceeded) {
  EXPECT_FALSE(Deadline::afterMs(60000.0).exceeded());
}

TEST(FaultInjectorTest, ExplicitArmTakesPrecedenceOverRandom) {
  FaultInjector fi(42);
  fi.armRandom(1000, FaultKind::kTimeout);  // every shape
  fi.armShape(7, FaultKind::kThrow);
  EXPECT_EQ(fi.faultFor(7), FaultKind::kThrow);
  EXPECT_EQ(fi.faultFor(3), FaultKind::kTimeout);
  const FaultInjector none;
  EXPECT_EQ(none.faultFor(0), FaultKind::kNone);
}

TEST(FaultInjectorTest, RandomArmIsDeterministicAndSeedDriven) {
  FaultInjector a(7);
  FaultInjector b(7);
  a.armRandom(250, FaultKind::kOom);
  b.armRandom(250, FaultKind::kOom);
  int hits = 0;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.faultFor(i), b.faultFor(i)) << i;
    if (a.faultFor(i) == FaultKind::kOom) ++hits;
  }
  // ~250/1000 expected; wide tolerance, the point is determinism.
  EXPECT_GT(hits, 150);
  EXPECT_LT(hits, 350);
}

TEST(FaultInjectorTest, ParseRoundTripsEveryKind) {
  for (const FaultKind k : {FaultKind::kThrow, FaultKind::kOom,
                            FaultKind::kTimeout, FaultKind::kCrash,
                            FaultKind::kHang}) {
    FaultKind parsed = FaultKind::kNone;
    ASSERT_TRUE(parseFaultKind(toString(k), parsed)) << toString(k);
    EXPECT_EQ(parsed, k);
  }
  FaultKind dummy = FaultKind::kNone;
  EXPECT_FALSE(parseFaultKind("none", dummy));
  EXPECT_FALSE(parseFaultKind("segv", dummy));
  EXPECT_FALSE(parseFaultKind("", dummy));
}

TEST(FaultInjectorTest, EveryNthIsDeterministicAndPhased) {
  FaultInjector fi;
  fi.armEveryNth(5, FaultKind::kCrash);
  for (int i = 0; i < 25; ++i) {
    EXPECT_EQ(fi.faultFor(i),
              i % 5 == 0 ? FaultKind::kCrash : FaultKind::kNone)
        << i;
  }
  FaultInjector phased;
  phased.armEveryNth(4, FaultKind::kHang, 2);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(phased.faultFor(i),
              i % 4 == 2 ? FaultKind::kHang : FaultKind::kNone)
        << i;
  }
}

TEST(FaultInjectorTest, ExplicitArmOverridesEveryNth) {
  FaultInjector fi(11);
  fi.armRandom(1000, FaultKind::kTimeout);  // every shape, lowest tier
  fi.armEveryNth(2, FaultKind::kHang);      // every even shape, middle tier
  fi.armShape(4, FaultKind::kThrow);        // highest tier
  EXPECT_EQ(fi.faultFor(4), FaultKind::kThrow);
  EXPECT_EQ(fi.faultFor(6), FaultKind::kHang);
  EXPECT_EQ(fi.faultFor(3), FaultKind::kTimeout);
}

// --- parallel layer: exception isolation -------------------------------

TEST(ParallelForIsolation, AllIndicesRunAndLowestFailureRethrown) {
  for (const int threads : {1, 4}) {
    std::vector<int> done(100, 0);
    bool threw = false;
    try {
      parallelFor(0, 100, threads, 1, [&](int i) {
        if (i == 37 || i == 62) {
          throw std::runtime_error("boom " + std::to_string(i));
        }
        done[static_cast<std::size_t>(i)] = 1;
      });
    } catch (const std::runtime_error& e) {
      threw = true;
      EXPECT_STREQ(e.what(), "boom 37");  // lowest failing index
    }
    EXPECT_TRUE(threw) << threads;
    int sum = 0;
    for (const int v : done) sum += v;
    EXPECT_EQ(sum, 98) << threads;  // the other 98 indices all ran
  }
  // The pool survives for later work.
  std::atomic<int> count{0};
  parallelFor(0, 50, 4, 1, [&](int) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolIsolation, ThrowingTaskDoesNotKillWorkers) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.submit([] { throw std::runtime_error("task boom"); });
  const int kTasks = 20;
  for (int i = 0; i < kTasks; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (count.load() < kTasks &&
         std::chrono::steady_clock::now() < deadline) {
    if (!pool.tryRunOne()) std::this_thread::yield();
  }
  EXPECT_EQ(count.load(), kTasks);
}

// --- degenerate geometry: never a crash --------------------------------

TEST(DegenerateGeometryTest, RingWithTooFewPointsDegradesCleanly) {
  LayoutShape s;
  s.rings.push_back(Polygon({{0, 0}, {50, 0}}));
  const ShapeOutcome out =
      fractureShapeGuarded(s, FractureParams{}, Method::kOurs, 0, true);
  EXPECT_TRUE(out.degraded);
  EXPECT_EQ(out.status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(out.solution.shots.empty());
  EXPECT_TRUE(out.solution.degraded);
}

TEST(DegenerateGeometryTest, CollinearZeroAreaRingDegradesCleanly) {
  LayoutShape s;
  s.rings.push_back(Polygon({{0, 0}, {100, 0}, {50, 0}}));
  const ShapeOutcome out =
      fractureShapeGuarded(s, FractureParams{}, Method::kOurs, 2, true);
  EXPECT_TRUE(out.degraded);
  EXPECT_EQ(out.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(out.status.shapeIndex(), 2);
  EXPECT_TRUE(out.solution.shots.empty());
}

TEST(DegenerateGeometryTest, AllDuplicateVertexRingDegradesCleanly) {
  LayoutShape s;
  s.rings.push_back(
      Polygon({{5, 5}, {5, 5}, {5, 5}, {5, 5}, {5, 5}, {5, 5}}));
  const ShapeOutcome out =
      fractureShapeGuarded(s, FractureParams{}, Method::kOurs, 0, true);
  EXPECT_TRUE(out.degraded);
  EXPECT_EQ(out.status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(out.solution.shots.empty());
}

TEST(DegenerateGeometryTest, DuplicateConsecutiveVerticesFractureNormally) {
  LayoutShape clean = rectShape(80, 50);
  LayoutShape doubled;
  doubled.rings.push_back(Polygon(
      {{0, 0}, {0, 0}, {80, 0}, {80, 50}, {80, 50}, {80, 50}, {0, 50}}));
  const ShapeOutcome a =
      fractureShapeGuarded(clean, FractureParams{}, Method::kOurs, 0, true);
  const ShapeOutcome b =
      fractureShapeGuarded(doubled, FractureParams{}, Method::kOurs, 0, true);
  EXPECT_FALSE(a.degraded);
  EXPECT_FALSE(b.degraded);
  EXPECT_TRUE(b.status.ok());
  EXPECT_EQ(a.solution.shots, b.solution.shots);
  EXPECT_TRUE(b.solution.feasible());
}

TEST(DegenerateGeometryTest, SelfIntersectingRingDegradesWithoutCrash) {
  // Edge (100,80)->(50,-30) crosses edge (0,0)->(100,0): a bowtie-like
  // defect with nonzero signed area, so it survives sanitation and must
  // take the forced-fallback route.
  LayoutShape s;
  s.rings.push_back(Polygon({{0, 0}, {100, 0}, {100, 80}, {50, -30}}));
  const ShapeOutcome out =
      fractureShapeGuarded(s, FractureParams{}, Method::kOurs, 0, true);
  EXPECT_TRUE(out.degraded);
  EXPECT_EQ(out.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(out.solution.method, "rect_partition");
  EXPECT_FALSE(out.solution.shots.empty());
}

TEST(DegenerateGeometryTest, StrictModeFailsInsteadOfDegrading) {
  LayoutShape s;
  s.rings.push_back(Polygon({{0, 0}, {100, 0}, {100, 80}, {50, -30}}));
  const ShapeOutcome out =
      fractureShapeGuarded(s, FractureParams{}, Method::kOurs, 0, false);
  EXPECT_FALSE(out.degraded);
  EXPECT_FALSE(out.status.ok());
  EXPECT_TRUE(out.solution.shots.empty());
}

// --- budgets ------------------------------------------------------------

TEST(BudgetTest, TinyTimeBudgetDegradesWithBudgetStatus) {
  FractureParams params;
  params.shapeTimeBudgetMs = 1e-6;  // expires before the first checkpoint
  const ShapeOutcome out =
      fractureShapeGuarded(rectShape(120, 80), params, Method::kOurs, 1, true);
  EXPECT_TRUE(out.degraded);
  EXPECT_EQ(out.status.code(), StatusCode::kBudgetExceeded);
  EXPECT_EQ(out.status.shapeIndex(), 1);
  EXPECT_EQ(out.solution.method, "rect_partition");
  EXPECT_TRUE(out.solution.feasible());
}

TEST(BudgetTest, GridByteCapDegradesWithResourceStatus) {
  FractureParams params;
  params.maxGridBytes = 1000;  // far below any real shape grid
  const ShapeOutcome out =
      fractureShapeGuarded(rectShape(200, 150), params, Method::kOurs, 5, true);
  EXPECT_TRUE(out.degraded);
  EXPECT_EQ(out.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(out.status.shapeIndex(), 5);
  EXPECT_EQ(out.solution.method, "rect_partition");
  EXPECT_TRUE(out.solution.feasible());
}

TEST(BudgetTest, UnlimitedBudgetsLeaveResultUntouched) {
  FractureParams params;  // all budgets off
  const Solution direct =
      fractureShape(rectShape(90, 60), params, Method::kOurs);
  const ShapeOutcome guarded =
      fractureShapeGuarded(rectShape(90, 60), params, Method::kOurs, 0, true);
  EXPECT_FALSE(guarded.degraded);
  EXPECT_TRUE(guarded.status.ok());
  EXPECT_EQ(guarded.solution.shots, direct.shots);
}

// --- fallback budget checkpoints -----------------------------------------

TEST(FallbackTest, ExpiredDeadlineRaisesBudgetErrorDirectly) {
  // The degradation ladder itself honours an armed budget: a direct
  // caller with an expired deadline gets BudgetExceededError from the
  // fallback's own checkpoints instead of a silent overrun.
  Problem problem(rectShape(120, 80).rings, FractureParams{});
  ExecContext ctx;
  ctx.deadline = Deadline::expired();
  ctx.shapeIndex = 7;
  problem.setExecContext(&ctx);
  try {
    fallbackFracture(problem);
    FAIL() << "expected BudgetExceededError";
  } catch (const BudgetExceededError& e) {
    EXPECT_EQ(e.status().code(), StatusCode::kBudgetExceeded);
    EXPECT_EQ(e.status().shapeIndex(), 7);
  }
}

TEST(FallbackTest, UnlimitedDeadlineLeavesFallbackUnchanged) {
  Problem plain(rectShape(120, 80).rings, FractureParams{});
  const Solution base = fallbackFracture(plain);

  Problem budgeted(rectShape(120, 80).rings, FractureParams{});
  ExecContext ctx;  // default: unlimited deadline
  budgeted.setExecContext(&ctx);
  const Solution guarded = fallbackFracture(budgeted);
  EXPECT_EQ(guarded.shots, base.shots);
  EXPECT_EQ(guarded.cost, base.cost);
}

TEST(FaultInjectionTest, TimeoutFaultDegradesGuardedShapeToUsableFallback) {
  // kTimeout arms an already-expired deadline on the primary path; the
  // driver must strip the budget before degrading, so the fallback
  // completes and yields a feasible rect-partition solution.
  FaultInjector injector;
  injector.armShape(0, FaultKind::kTimeout);
  FractureParams params;
  params.faultInjector = &injector;
  const ShapeOutcome out =
      fractureShapeGuarded(rectShape(100, 70), params, Method::kOurs, 0, true);
  EXPECT_TRUE(out.degraded);
  EXPECT_EQ(out.status.code(), StatusCode::kBudgetExceeded);
  EXPECT_EQ(out.status.shapeIndex(), 0);
  EXPECT_EQ(out.solution.method, "rect_partition");
  EXPECT_TRUE(out.solution.feasible());
}

// --- fallback fracturer --------------------------------------------------

TEST(FallbackTest, GridRunPartitionCoversMaskExactly) {
  // L-shaped mask: full 6x2 base, 3-wide left column above.
  MaskGrid mask(6, 5, 0);
  for (int y = 0; y < 5; ++y) {
    for (int x = 0; x < 6; ++x) {
      if (y < 2 || x < 3) mask.at(x, y) = 1;
    }
  }
  const Point origin{10, 20};
  const std::vector<Rect> rects = gridRunPartition(mask, origin);
  ASSERT_FALSE(rects.empty());
  std::int64_t covered = 0;
  for (std::size_t i = 0; i < rects.size(); ++i) {
    covered += rects[i].area();
    for (std::size_t j = i + 1; j < rects.size(); ++j) {
      EXPECT_FALSE(rects[i].intersects(rects[j]))
          << rects[i].str() << " vs " << rects[j].str();
    }
    for (int y = rects[i].y0; y < rects[i].y1; ++y) {
      for (int x = rects[i].x0; x < rects[i].x1; ++x) {
        EXPECT_EQ(mask.at(x - origin.x, y - origin.y), 1);
      }
    }
  }
  EXPECT_EQ(covered, mask.count([](std::uint8_t v) { return v != 0; }));
}

TEST(FallbackTest, RectangleFallbackIsFeasible) {
  FractureParams params;
  const Problem problem(
      std::vector<Polygon>{Polygon({{0, 0}, {80, 0}, {80, 50}, {0, 50}})},
      params);
  const Solution sol = fallbackFracture(problem);
  EXPECT_EQ(sol.method, "rect_partition");
  EXPECT_FALSE(sol.shots.empty());
  EXPECT_TRUE(sol.feasible());
}

TEST(FallbackTest, LShapeFallbackProducesBoundedResult) {
  FractureParams params;
  const Problem problem(
      std::vector<Polygon>{Polygon(
          {{0, 0}, {100, 0}, {100, 40}, {40, 40}, {40, 100}, {0, 100}})},
      params);
  const Solution sol = fallbackFracture(problem);
  EXPECT_EQ(sol.method, "rect_partition");
  EXPECT_FALSE(sol.shots.empty());
  // The reflex corner can be inherently hard for a uniform-dose cover;
  // the contract is a bounded, near-feasible result, not perfection.
  EXPECT_LT(sol.failingPixels(), 50);
}

// --- the acceptance scenario --------------------------------------------

TEST(FaultInjectionTest, ThreeOfTwentyDegradeRestByteIdentical) {
  std::vector<LayoutShape> shapes;
  shapes.reserve(20);
  for (int i = 0; i < 20; ++i) {
    shapes.push_back(rectShape(60 + 7 * i, 40 + 5 * i));
  }

  BatchConfig base;
  base.threads = 1;
  const BatchResult clean = fractureLayout(shapes, base);
  ASSERT_EQ(clean.solutions.size(), 20u);
  EXPECT_EQ(clean.degradedShapes, 0);
  for (const ShapeReport& rep : clean.reports) {
    EXPECT_TRUE(rep.status.ok());
  }

  FaultInjector injector;
  injector.armShape(3, FaultKind::kThrow);
  injector.armShape(9, FaultKind::kOom);
  injector.armShape(15, FaultKind::kTimeout);

  for (const int threads : {1, 4}) {
    BatchConfig cfg;
    cfg.threads = threads;
    cfg.params.faultInjector = &injector;
    const BatchResult faulted = fractureLayout(shapes, cfg);
    ASSERT_EQ(faulted.solutions.size(), 20u);
    EXPECT_EQ(faulted.degradedShapes, 3) << threads;

    for (int i = 0; i < 20; ++i) {
      const std::size_t s = static_cast<std::size_t>(i);
      const Solution& sol = faulted.solutions[s];
      if (i == 3 || i == 9 || i == 15) {
        EXPECT_TRUE(faulted.reports[s].degraded) << i;
        EXPECT_TRUE(sol.degraded) << i;
        EXPECT_EQ(sol.method, "rect_partition") << i;
        EXPECT_FALSE(faulted.reports[s].status.ok()) << i;
        EXPECT_EQ(faulted.reports[s].status.shapeIndex(), i);
        // The degraded solution must still satisfy Eq. 4.
        const Problem problem(shapes[s].rings, cfg.params);
        EXPECT_EQ(evaluateShots(problem, sol.shots).total(), 0) << i;
      } else {
        EXPECT_FALSE(faulted.reports[s].degraded) << i;
        EXPECT_TRUE(faulted.reports[s].status.ok()) << i;
        // Unfaulted shapes are byte-identical to the fault-free run.
        EXPECT_EQ(sol.shots, clean.solutions[s].shots) << i;
        EXPECT_EQ(sol.failOn, clean.solutions[s].failOn) << i;
        EXPECT_EQ(sol.failOff, clean.solutions[s].failOff) << i;
        EXPECT_EQ(sol.cost, clean.solutions[s].cost) << i;
      }
    }
    EXPECT_EQ(faulted.reports[3].status.code(), StatusCode::kExecFault);
    EXPECT_EQ(faulted.reports[9].status.code(),
              StatusCode::kResourceExhausted);
    EXPECT_EQ(faulted.reports[15].status.code(),
              StatusCode::kBudgetExceeded);
  }
}

TEST(FaultInjectionTest, StrictBatchKeepsErrorsWithoutDegrading) {
  std::vector<LayoutShape> shapes;
  for (int i = 0; i < 5; ++i) shapes.push_back(rectShape(60 + 10 * i, 45));
  FaultInjector injector;
  injector.armShape(2, FaultKind::kThrow);

  BatchConfig cfg;
  cfg.threads = 1;
  cfg.allowDegradation = false;
  cfg.params.faultInjector = &injector;
  const BatchResult result = fractureLayout(shapes, cfg);
  EXPECT_EQ(result.degradedShapes, 0);
  EXPECT_FALSE(result.reports[2].status.ok());
  EXPECT_TRUE(result.solutions[2].shots.empty());
  for (const int i : {0, 1, 3, 4}) {
    EXPECT_TRUE(result.reports[static_cast<std::size_t>(i)].status.ok()) << i;
    EXPECT_FALSE(
        result.solutions[static_cast<std::size_t>(i)].shots.empty())
        << i;
  }
}

// --- Status-based I/O ----------------------------------------------------

TEST(GdsStatusTest, RecordLengthSmallerThanHeaderIsParseError) {
  std::stringstream ss;
  ss.write("\x00\x02\x00\x02", 4);  // len = 2 < 4
  GdsLibrary lib;
  const Status st = parseGds(ss, lib);
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_EQ(st.byteOffset(), 0);
}

TEST(GdsStatusTest, UnitsPayloadMismatchNamesRecordAndOffset) {
  std::stringstream ss;
  ss.write("\x00\x06\x00\x02\x02\x58", 6);  // HEADER, version 600
  // UNITS with an 8-byte payload (needs 16).
  ss.write("\x00\x0c\x03\x05", 4);
  ss.write("\x00\x00\x00\x00\x00\x00\x00\x00", 8);
  GdsLibrary lib;
  const Status st = parseGds(ss, lib);
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_EQ(st.byteOffset(), 6);
  EXPECT_NE(st.message().find("UNITS"), std::string::npos);
}

TEST(GdsStatusTest, PayloadBeyondStreamEndIsTruncated) {
  std::stringstream ss;
  ss.write("\x00\x06\x00\x02\x02\x58", 6);         // HEADER
  ss.write("\x01\x00\x10\x03", 4);                 // XY claiming 252 bytes
  ss.write("\x00\x00\x00\x01\x00\x00\x00\x02", 8); // only 8 present
  GdsLibrary lib;
  const Status st = parseGds(ss, lib);
  EXPECT_EQ(st.code(), StatusCode::kTruncated);
  EXPECT_EQ(st.byteOffset(), 6);
  EXPECT_NE(st.message().find("XY"), std::string::npos);
}

TEST(GdsStatusTest, TruncatedValidLibraryIsTruncated) {
  std::stringstream full;
  GdsLibrary lib;
  GdsStructure top;
  GdsPolygon gp;
  gp.polygon = Polygon({{0, 0}, {100, 0}, {100, 60}, {0, 60}});
  top.polygons.push_back(std::move(gp));
  lib.structures.push_back(std::move(top));
  writeGds(full, lib);
  const std::string bytes = full.str();
  ASSERT_GT(bytes.size(), 20u);

  std::stringstream cut(bytes.substr(0, bytes.size() / 2));
  GdsLibrary out;
  const Status st = parseGds(cut, out);
  EXPECT_FALSE(st.ok());
  EXPECT_GE(st.byteOffset(), 0);
}

TEST(GdsStatusTest, RoundTripParsesOk) {
  std::stringstream ss;
  GdsLibrary lib;
  GdsStructure top;
  GdsPolygon gp;
  gp.polygon = Polygon({{0, 0}, {100, 0}, {100, 60}, {0, 60}});
  top.polygons.push_back(std::move(gp));
  lib.structures.push_back(std::move(top));
  writeGds(ss, lib);

  GdsLibrary out;
  const Status st = parseGds(ss, out);
  EXPECT_TRUE(st.ok()) << st.str();
  ASSERT_EQ(out.structures.size(), 1u);
  EXPECT_EQ(out.structures[0].polygons.size(), 1u);
}

TEST(GdsStatusTest, MissingFileIsIoError) {
  GdsLibrary lib;
  const Status st = parseGdsFile("/nonexistent/dir/x.gds", lib);
  EXPECT_EQ(st.code(), StatusCode::kIoError);
}

TEST(PolyStatusTest, BadLineReportedButParsingContinues) {
  std::stringstream ss("0 0\n10 0\nbanana\n10 10\n0 10\n");
  std::vector<Polygon> polys;
  PolyReadStats stats;
  const Status st = parsePolygons(ss, polys, &stats);
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.message().find("line 3"), std::string::npos);
  EXPECT_EQ(stats.badLines, 1);
  ASSERT_EQ(polys.size(), 1u);
  EXPECT_EQ(polys[0].size(), 4u);
}

TEST(PolyStatusTest, ShortRingSkippedWithStatus) {
  std::stringstream ss("0 0\n10 0\n\n0 0\n10 0\n10 10\n");
  std::vector<Polygon> polys;
  PolyReadStats stats;
  const Status st = parsePolygons(ss, polys, &stats);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(stats.skippedRings, 1);
  EXPECT_EQ(stats.polygons, 1);
  ASSERT_EQ(polys.size(), 1u);
}

TEST(PolyStatusTest, MissingFileIsIoError) {
  std::vector<Polygon> polys;
  const Status st = parsePolygonsFile("/nonexistent/dir/x.poly", polys);
  EXPECT_EQ(st.code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace mbf
