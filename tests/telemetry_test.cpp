// Telemetry subsystem (DESIGN.md section 15): JSON writer/parser round
// trips, trace recorder ownership and thread behaviour, span frame
// round trips, the per-cell schema of the manifest a real run
// (runLayout) writes, its claims expanded over the plan by the library
// expansion --verify uses, its thread-count stability, every result
// field (forEachResultField) recorded by the manifest and read back into
// the fingerprint by --verify, and the perfCompact/perfRate formatting
// edges.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <random>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/shot_stats.h"
#include "audit/verify_run.h"
#include "io/atomic_file.h"
#include "io/poly_io.h"
#include "mdp/checkpoint.h"
#include "mdp/hierarchy.h"
#include "mdp/layout.h"
#include "mdp/run.h"
#include "support/journal.h"
#include "support/perf_counters.h"
#include "support/telemetry.h"

namespace mbf {
namespace {

// --------------------------------------------------------------------
// JsonWriter / parseJson
// --------------------------------------------------------------------

TEST(JsonWriterTest, RoundTripsNestedDocument) {
  JsonWriter w;
  w.beginObject();
  w.key("name").value("run \"x\"\n\t\\");
  w.key("count").value(std::int64_t{-42});
  w.key("big").value(std::numeric_limits<std::uint64_t>::max());
  w.key("pi").value(3.141592653589793);
  w.key("tiny").value(4.9e-324);  // denormal min: worst round-trip case
  w.key("flag").value(true);
  w.key("off").value(false);
  w.key("nothing").nullValue();
  w.key("list").beginArray();
  w.value(1).value(2).value(3);
  w.beginObject().key("inner").value("v").endObject();
  w.endArray();
  w.key("empty_obj").beginObject().endObject();
  w.key("empty_arr").beginArray().endArray();
  w.endObject();

  JsonValue doc;
  const Status st = parseJson(w.str(), doc);
  ASSERT_TRUE(st.ok()) << st.str();
  ASSERT_TRUE(doc.isObject());

  EXPECT_EQ(doc.find("name")->string, "run \"x\"\n\t\\");
  EXPECT_EQ(doc.find("count")->number, -42.0);
  EXPECT_EQ(doc.find("pi")->number, 3.141592653589793);
  EXPECT_EQ(doc.find("tiny")->number, 4.9e-324);
  EXPECT_TRUE(doc.find("flag")->boolean);
  EXPECT_FALSE(doc.find("off")->boolean);
  EXPECT_EQ(doc.find("nothing")->kind, JsonValue::Kind::kNull);
  ASSERT_TRUE(doc.find("list")->isArray());
  EXPECT_EQ(doc.find("list")->items.size(), 4u);
  EXPECT_EQ(doc.find("list")->items[3].find("inner")->string, "v");
  EXPECT_TRUE(doc.find("empty_obj")->members.empty());
  EXPECT_TRUE(doc.find("empty_arr")->items.empty());
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.beginObject();
  w.key("inf").value(std::numeric_limits<double>::infinity());
  w.key("nan").value(std::numeric_limits<double>::quiet_NaN());
  w.endObject();
  JsonValue doc;
  ASSERT_TRUE(parseJson(w.str(), doc).ok());
  EXPECT_EQ(doc.find("inf")->kind, JsonValue::Kind::kNull);
  EXPECT_EQ(doc.find("nan")->kind, JsonValue::Kind::kNull);
}

TEST(JsonWriterTest, EscapesControlCharacters) {
  EXPECT_EQ(jsonEscape("a\"b\\c\nd\x01"), "a\\\"b\\\\c\\nd\\u0001");
}

TEST(JsonParseTest, RejectsMalformedInput) {
  JsonValue v;
  EXPECT_FALSE(parseJson("", v).ok());
  EXPECT_FALSE(parseJson("{", v).ok());
  EXPECT_FALSE(parseJson("{\"a\": }", v).ok());
  EXPECT_FALSE(parseJson("[1, 2,]", v).ok());
  EXPECT_FALSE(parseJson("\"unterminated", v).ok());
  EXPECT_FALSE(parseJson("tru", v).ok());
  EXPECT_FALSE(parseJson("{\"a\": 1} trailing", v).ok());
  EXPECT_FALSE(parseJson("\"bad \\q escape\"", v).ok());

  const Status st = parseJson("{\"a\": 1} x", v);
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_GE(st.byteOffset(), 8);
}

TEST(JsonParseTest, UnicodeEscapes) {
  JsonValue v;
  ASSERT_TRUE(parseJson("\"\\u0041\\u00e9\\u20ac\"", v).ok());
  EXPECT_EQ(v.string, "A\xc3\xa9\xe2\x82\xac");  // A, e-acute, euro sign
}

TEST(JsonParseTest, StructuralEquality) {
  JsonValue a, b;
  ASSERT_TRUE(parseJson("{\"x\": [1, {\"y\": true}]}", a).ok());
  ASSERT_TRUE(parseJson("{\"x\": [1, {\"y\": true}]}", b).ok());
  EXPECT_TRUE(a == b);
  JsonValue c;
  ASSERT_TRUE(parseJson("{\"x\": [1, {\"y\": false}]}", c).ok());
  EXPECT_FALSE(a == c);
}

// --------------------------------------------------------------------
// TraceRecorder
// --------------------------------------------------------------------

class TraceRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TraceRecorder::instance().clear();
    TraceRecorder::instance().disable();
  }
  void TearDown() override {
    TraceRecorder::instance().disable();
    TraceRecorder::instance().clear();
  }
};

TEST_F(TraceRecorderTest, DisabledRecordsNothing) {
  { TraceScope scope("idle"); }
  { TraceScope scope("shape", 3); }
  EXPECT_TRUE(TraceRecorder::instance().snapshot().empty());
}

TEST_F(TraceRecorderTest, RecordsScopesAndInstants) {
  TraceRecorder::instance().enable();
  { TraceScope scope("work"); }
  { TraceScope scope("shape", 7); }
  TraceRecorder::instance().instant("marker");
  TraceRecorder::instance().disable();

  const std::vector<TraceSpan> spans = TraceRecorder::instance().snapshot();
  ASSERT_EQ(spans.size(), 3u);
  // snapshot() sorts by start time: the scopes finished in open order.
  EXPECT_EQ(spans[0].name, "work");
  EXPECT_EQ(spans[1].name, "shape 7");
  EXPECT_EQ(spans[2].name, "marker");
  EXPECT_TRUE(spans[2].instant);
  for (const TraceSpan& s : spans) {
    EXPECT_GE(s.endNs, s.startNs);
    EXPECT_GT(s.pid, 0);
  }
}

TEST_F(TraceRecorderTest, ThreadsGetDistinctTids) {
  TraceRecorder::instance().enable();
  { TraceScope scope("main-thread"); }
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([i] {
      TraceScope scope("worker", i);
    });
  }
  for (std::thread& t : threads) t.join();
  TraceRecorder::instance().disable();

  const std::vector<TraceSpan> spans = TraceRecorder::instance().snapshot();
  ASSERT_EQ(spans.size(), 5u);  // exited threads' buffers were retired
  std::set<int> tids;
  for (const TraceSpan& s : spans) tids.insert(s.tid);
  EXPECT_EQ(tids.size(), 5u);
}

TEST_F(TraceRecorderTest, ForeignSpansKeepTheirPid) {
  TraceRecorder::instance().enable();
  TraceSpan foreign;
  foreign.name = "worker-span";
  foreign.startNs = 10;
  foreign.endNs = 20;
  foreign.pid = 99999;
  foreign.tid = 3;
  TraceRecorder::instance().addForeign(foreign);
  TraceRecorder::instance().disable();

  const std::vector<TraceSpan> spans = TraceRecorder::instance().snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].pid, 99999);
  EXPECT_EQ(spans[0].tid, 3);
}

TEST_F(TraceRecorderTest, SpanFrameRoundTrip) {
  std::vector<TraceSpan> spans;
  spans.push_back({"journal-append", 100, 250, 42, 0, false});
  spans.push_back({"shape 3", 120, 480, 42, 1, false});
  spans.push_back({"isolate shape 5", 500, 500, 42, 0, true});

  // The span frame a worker streams to its supervisor.
  std::string stream;
  appendFrame(stream, encodeTraceSpans(spans));
  std::size_t at = 0;
  std::string_view payload;
  ASSERT_EQ(readFrame(stream, at, payload), FrameRead::kFrame);
  EXPECT_EQ(at, stream.size());
  std::vector<TraceSpan> read;
  ASSERT_TRUE(decodeTraceSpans(payload, read));
  ASSERT_EQ(read.size(), spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(read[i].name, spans[i].name);
    EXPECT_EQ(read[i].startNs, spans[i].startNs);
    EXPECT_EQ(read[i].endNs, spans[i].endNs);
    EXPECT_EQ(read[i].pid, spans[i].pid);
    EXPECT_EQ(read[i].tid, spans[i].tid);
    EXPECT_EQ(read[i].instant, spans[i].instant);
  }

  // A payload cut short or carrying trailing bytes decodes to nothing.
  const std::string whole = encodeTraceSpans(spans);
  std::vector<TraceSpan> none;
  EXPECT_FALSE(decodeTraceSpans(
      std::string_view(whole).substr(0, whole.size() - 1), none));
  EXPECT_FALSE(decodeTraceSpans(whole + "x", none));
  EXPECT_TRUE(none.empty());
}

TEST_F(TraceRecorderTest, SpanFrameSkipsTornTail) {
  // A worker killed mid-write leaves a whole frame and a torn one: the
  // whole frame's spans are read, the torn tail is not a frame.
  std::string stream;
  appendFrame(stream, encodeTraceSpans({{"whole", 1, 2, 7, 0, false}}));
  const std::size_t wholeBytes = stream.size();
  appendFrame(stream, encodeTraceSpans({{"torn", 3, 4, 7, 0, false}}));
  stream.resize(stream.size() - 3);

  std::size_t at = 0;
  std::string_view payload;
  std::vector<TraceSpan> read;
  ASSERT_EQ(readFrame(stream, at, payload), FrameRead::kFrame);
  ASSERT_TRUE(decodeTraceSpans(payload, read));
  EXPECT_EQ(readFrame(stream, at, payload), FrameRead::kShort);
  EXPECT_EQ(at, wholeBytes);
  ASSERT_EQ(read.size(), 1u);
  EXPECT_EQ(read[0].name, "whole");
}

TEST_F(TraceRecorderTest, TraceEventsJsonIsWellFormed) {
  std::vector<TraceSpan> spans;
  spans.push_back({"b", 2000, 5000, 11, 0, false});
  spans.push_back({"a", 1000, 4000, 10, 1, false});
  spans.push_back({"mark", 3000, 3000, 11, 0, true});
  const std::string json = traceEventsJson(spans);

  JsonValue doc;
  ASSERT_TRUE(parseJson(json, doc).ok());
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->isArray());
  ASSERT_EQ(events->items.size(), 3u);
  // Rebased to the earliest span and sorted by start.
  EXPECT_EQ(events->items[0].find("name")->string, "a");
  EXPECT_EQ(events->items[0].find("ts")->number, 0.0);
  EXPECT_EQ(events->items[0].find("ph")->string, "X");
  EXPECT_EQ(events->items[0].find("dur")->number, 3.0);  // us
  EXPECT_EQ(events->items[1].find("ts")->number, 1.0);
  EXPECT_EQ(events->items[2].find("ph")->string, "i");
  EXPECT_EQ(events->items[2].find("dur"), nullptr);
  for (const JsonValue& e : events->items) {
    EXPECT_NE(e.find("pid"), nullptr);
    EXPECT_NE(e.find("tid"), nullptr);
  }
}

// --------------------------------------------------------------------
// Run manifest
// --------------------------------------------------------------------

/// Three distinct shapes, the first and the third repeated: a flat plan
/// of three cells and five instances.
std::vector<LayoutShape> manifestShapes() {
  std::vector<LayoutShape> shapes;
  shapes.push_back({{Polygon({{0, 0}, {400, 0}, {400, 200}, {0, 200}})}});
  shapes.push_back(
      {{Polygon({{600, 0}, {1000, 0}, {1000, 150}, {600, 150}})}});
  shapes.push_back(
      {{Polygon({{0, 400}, {250, 400}, {250, 900}, {0, 900}})}});
  shapes.push_back(
      {{Polygon({{2000, 0}, {2400, 0}, {2400, 200}, {2000, 200}})}});
  shapes.push_back(
      {{Polygon({{2000, 400}, {2250, 400}, {2250, 900}, {2000, 900}})}});
  return shapes;
}

/// A run of manifestShapes() at `threads`: the manifest mbf_cli's run
/// (runLayout) writes for it from a .poly in a directory of this test's
/// own, and the plan and result of the same input through the plan
/// executor, with the manifest of that result without a grouping, which
/// lists one single-instance cell per result.
struct ManifestRun {
  HierPlan plan;
  BatchResult result;
  std::string manifest;
  std::string ungrouped;
};

ManifestRun manifestRun(int threads) {
  const std::string dir =
      testing::TempDir() + "manifest_run_" +
      testing::UnitTest::GetInstance()->current_test_info()->name();
  std::filesystem::create_directories(dir);
  RunConfig config;
  config.inputPath = dir + "/in.poly";
  config.outputPath = dir + "/out.shots";
  config.metricsJsonPath = dir + "/run.json";
  config.batch.threads = threads;
  config.batch.params.nmax = 200;
  std::vector<Polygon> rings;
  for (const LayoutShape& shape : manifestShapes()) {
    rings.push_back(shape.rings.front());
  }
  EXPECT_TRUE(savePolygons(config.inputPath, rings));
  EXPECT_EQ(runLayout(config), 0);
  ManifestRun run;
  EXPECT_TRUE(readFileToString(config.metricsJsonPath, run.manifest).ok());

  EXPECT_TRUE(
      planLayoutFile(config.inputPath, config.batch, false, "", run.plan)
          .ok());
  HierarchicalResult fractured;
  EXPECT_TRUE(fracturePlan(run.plan, config.batch, {}, fractured).ok());
  run.result = std::move(fractured.batch);
  std::vector<Rect> allShots;
  for (const Solution& sol : run.result.solutions) {
    allShots.insert(allShots.end(), sol.shots.begin(), sol.shots.end());
  }
  RunManifestInfo info;
  info.inputPath = config.inputPath;
  info.outputPath = config.outputPath;
  run.ungrouped = buildRunManifest(info, config.batch, run.result,
                                   RunCounters{}, computeShotStats(allShots));
  return run;
}

std::string manifestForThreads(int threads) {
  return manifestRun(threads).manifest;
}

/// The cells[] claims of `doc` expanded over `plan`'s instances by
/// expandCellClaims, as --verify expands them; every cell once, as
/// listed, when `plan` is null (an ungrouped manifest, whose cells are
/// single-instance).
std::vector<const JsonValue*> expandClaims(const JsonValue& doc,
                                           const HierPlan* plan) {
  std::vector<CellClaims<const JsonValue*>> cells;
  std::vector<const JsonValue*> listed;
  for (const JsonValue& cell : doc.find("cells")->items) {
    CellClaims<const JsonValue*>& claims = cells.emplace_back();
    claims.instances =
        static_cast<std::int64_t>(cell.find("instances")->number);
    for (const JsonValue& claim : cell.find("shapes")->items) {
      claims.shapes.push_back(&claim);
      listed.push_back(&claim);
    }
  }
  if (plan == nullptr) return listed;
  std::vector<std::string> issues;
  std::vector<const JsonValue*> claims =
      expandCellClaims(*plan, cells, issues);
  EXPECT_EQ(issues, std::vector<std::string>{});
  return claims;
}

/// Recursively drops the wall-clock-dependent members so manifests from
/// different runs compare equal on everything deterministic.
void stripTimingFields(JsonValue& v) {
  if (v.kind == JsonValue::Kind::kObject) {
    std::erase_if(v.members, [](const auto& member) {
      return member.first == "wall_seconds" ||
             member.first == "shape_seconds_sum" ||
             member.first == "runtime_seconds" ||
             member.first == "stage_seconds" || member.first == "nanos" ||
             member.first == "threads";
    });
    for (auto& [name, value] : v.members) stripTimingFields(value);
  } else if (v.kind == JsonValue::Kind::kArray) {
    for (JsonValue& item : v.items) stripTimingFields(item);
  }
}

TEST(RunManifestTest, SchemaAndTotals) {
  const ManifestRun run = manifestRun(1);
  const BatchResult& result = run.result;

  JsonValue doc;
  const Status st = parseJson(run.manifest, doc);
  ASSERT_TRUE(st.ok()) << st.str();

  for (const char* key :
       {"schema", "version", "input", "output", "config", "totals",
        "refiner", "perf", "shot_stats", "recovery", "cells"}) {
    EXPECT_NE(doc.find(key), nullptr) << "missing key: " << key;
  }
  EXPECT_EQ(doc.find("shapes"), nullptr) << "per-instance array is gone";
  EXPECT_EQ(doc.find("schema")->string, "mbf-run-manifest");
  EXPECT_EQ(doc.find("version")->number, 2.0);

  // The totals must agree with what the --report path prints.
  const JsonValue* totals = doc.find("totals");
  ASSERT_NE(totals, nullptr);
  EXPECT_EQ(totals->find("shots")->number, result.totalShots);
  EXPECT_EQ(totals->find("failing_pixels")->number,
            static_cast<double>(result.totalFailingPixels));
  EXPECT_EQ(totals->find("degraded_shapes")->number, result.degradedShapes);
  EXPECT_EQ(doc.find("input")->find("shapes")->number, 5.0);

  const JsonValue* config = doc.find("config");
  ASSERT_NE(config, nullptr);
  EXPECT_EQ(config->find("method")->string, "ours");
  EXPECT_EQ(config->find("fingerprint")->string.rfind(
                "mbf-plan v2 cells=3 instances=5 shapes=5 fp=", 0),
            0u)
      << config->find("fingerprint")->string;

  const JsonValue* perf = doc.find("perf");
  ASSERT_NE(perf, nullptr);
  EXPECT_EQ(perf->find("candidate_evals")->number,
            static_cast<double>(result.refinerStats.perf.candidateEvals));

  // One entry per plan cell, in plan order, with its instance count;
  // claims carry no per-instance field.
  const JsonValue* cells = doc.find("cells");
  ASSERT_TRUE(cells->isArray());
  ASSERT_EQ(cells->items.size(), 3u);
  const double instances[] = {2, 1, 2};
  double shotSum = 0;
  for (std::size_t c = 0; c < cells->items.size(); ++c) {
    const JsonValue& cell = cells->items[c];
    EXPECT_EQ(cell.find("instances")->number, instances[c]);
    const JsonValue* claims = cell.find("shapes");
    ASSERT_NE(claims, nullptr);
    ASSERT_EQ(claims->items.size(), 1u);
    for (const JsonValue& claim : claims->items) {
      EXPECT_EQ(claim.find("index"), nullptr);
      EXPECT_NE(claim.find("status"), nullptr);
      EXPECT_NE(claim.find("repaired"), nullptr);
      shotSum += instances[c] * claim.find("shots")->number;
    }
  }
  EXPECT_EQ(shotSum, result.totalShots);
}

TEST(RunManifestTest, CellClaimsExpandToTheInstanceClaims) {
  // Expanded over the plan, the per-cell claims are the claims of every
  // instance — at any thread count, and equal, but for the runtimes of
  // the two executions, to what the ungrouped builder lists one result
  // at a time.
  for (const int threads : {1, 4, 8}) {
    const ManifestRun run = manifestRun(threads);
    JsonValue doc;
    JsonValue flatDoc;
    ASSERT_TRUE(parseJson(run.manifest, doc).ok());
    ASSERT_TRUE(parseJson(run.ungrouped, flatDoc).ok());
    stripTimingFields(doc);
    stripTimingFields(flatDoc);
    EXPECT_EQ(flatDoc.find("cells")->items.size(), 5u);

    const std::vector<const JsonValue*> claims = expandClaims(doc, &run.plan);
    const std::vector<const JsonValue*> flatClaims =
        expandClaims(flatDoc, nullptr);
    ASSERT_EQ(claims.size(), run.result.solutions.size());
    ASSERT_EQ(flatClaims.size(), claims.size());
    for (std::size_t i = 0; i < claims.size(); ++i) {
      const Solution& sol = run.result.solutions[i];
      const ShapeReport& rep = run.result.reports[i];
      const JsonValue& claim = *claims[i];
      EXPECT_EQ(claim.find("method")->string, sol.method) << i;
      EXPECT_EQ(claim.find("shots")->number, sol.shotCount()) << i;
      EXPECT_EQ(claim.find("fail_on")->number,
                static_cast<double>(sol.failOn)) << i;
      EXPECT_EQ(claim.find("fail_off")->number,
                static_cast<double>(sol.failOff)) << i;
      EXPECT_EQ(claim.find("cost")->number, sol.cost) << i;
      EXPECT_EQ(claim.find("degraded")->boolean, sol.degraded) << i;
      EXPECT_EQ(claim.find("status")->find("code")->string,
                toString(rep.status.code())) << i;
      EXPECT_EQ(claim.find("status")->find("message")->string,
                rep.status.message()) << i;
      EXPECT_TRUE(claim == *flatClaims[i]) << "instance " << i;
    }
  }
}

TEST(RunManifestTest, RepairReachesEveryInstanceOfItsCellShape) {
  // Cell A holds two shapes and is placed three times, B once. The
  // --selfcheck audit flags A's second shape in two of A's instances;
  // the repair ladder re-fractures that cell shape once, fallback only,
  // and installs it, translated, into all three instances, so the
  // manifest's per-cell claims stay the claims of every instance.
  GdsPolygon l;
  l.polygon =
      Polygon({{0, 0}, {160, 0}, {160, 60}, {60, 60}, {60, 160}, {0, 160}});
  GdsPolygon square;
  square.polygon = Polygon({{300, 20}, {420, 20}, {420, 140}, {300, 140}});
  GdsPolygon bar;
  bar.polygon = Polygon({{0, 0}, {280, 0}, {280, 80}, {0, 80}});
  GdsStructure a{"A", {l, square}, {}, {}};
  GdsStructure b{"B", {bar}, {}, {}};
  GdsStructure top{"TOP",
                   {},
                   {{"A", {0, 0}},
                    {"B", {1000, 500}},
                    {"A", {-800, 900}},
                    {"A", {0, 2000}}},
                   {}};
  GdsLibrary lib;
  lib.structures = {top, a, b};

  BatchConfig config;
  config.threads = 4;
  config.params.nmax = 200;
  HierPlan plan;
  ASSERT_TRUE(planGdsHierarchy(lib, config, "", plan).ok());
  ASSERT_EQ(plan.cells.size(), 2u);
  ASSERT_EQ(plan.instances.size(), 4u);
  HierarchicalResult fractured;
  ASSERT_TRUE(fracturePlan(plan, config, {}, fractured).ok());
  BatchResult result = fractured.batch;
  const BatchResult original = fractured.batch;

  // Where cell 0's second shape sits in each of its instances.
  const int cellA = plan.instances[0].cell;
  std::vector<int> targets;
  std::vector<Point> offsets;
  int at = 0;
  for (const HierPlan::Instance& inst : plan.instances) {
    if (inst.cell == cellA) {
      targets.push_back(at + 1);
      offsets.push_back(inst.offset);
    }
    at += static_cast<int>(
        plan.cells[static_cast<std::size_t>(inst.cell)].shapes.size());
  }
  ASSERT_EQ(targets.size(), 3u);

  const PlanRepair repair =
      repairPlanShapes(plan, config, {targets[2], targets[1]}, result);
  EXPECT_EQ(repair.cellShapes, 1);
  EXPECT_EQ(repair.instanceShapes, targets);

  const ShapeOutcome fallback = fractureShapeGuarded(
      plan.cells[static_cast<std::size_t>(cellA)].shapes[1], config.params,
      config.method, 0, /*allowDegradation=*/true, nullptr, kAuditRepair);
  ASSERT_FALSE(fallback.solution.shots.empty());
  // The status names the failed audit, not a worker crash.
  EXPECT_EQ(fallback.status.message(),
            "primary path skipped: shape re-fractured after it failed the "
            "--selfcheck audit");
  ASSERT_NE(fallback.solution.method,
            original.solutions[static_cast<std::size_t>(targets[0])].method)
      << "the fallback must be told apart from the primary result";
  for (std::size_t t = 0; t < targets.size(); ++t) {
    const auto s = static_cast<std::size_t>(targets[t]);
    const Solution& sol = result.solutions[s];
    std::vector<Rect> expected = fallback.solution.shots;
    for (Rect& shot : expected) shot = shot.translated(offsets[t]);
    EXPECT_EQ(sol.shots, expected) << "instance " << t;
    EXPECT_EQ(sol.method, fallback.solution.method) << "instance " << t;
    EXPECT_EQ(result.reports[s].status.code(), fallback.status.code());
    EXPECT_EQ(result.reports[s].status.message(), fallback.status.message());
    if (fallback.status.shapeIndex() >= 0) {
      EXPECT_EQ(result.reports[s].status.shapeIndex(), targets[t]);
    }
  }
  std::int64_t shots = 0;
  for (std::size_t i = 0; i < result.solutions.size(); ++i) {
    shots += result.solutions[i].shotCount();
    if (std::find(targets.begin(), targets.end(), static_cast<int>(i)) ==
        targets.end()) {
      EXPECT_EQ(result.solutions[i].shots, original.solutions[i].shots) << i;
    }
  }
  EXPECT_EQ(result.totalShots, shots);
  // The fracture seconds count each shape once: the run's, plus the one
  // repair (every instance carries a copy of its runtime).
  EXPECT_EQ(result.shapeSecondsSum,
            original.shapeSecondsSum +
                result.solutions[static_cast<std::size_t>(targets[0])]
                    .runtimeSeconds);

  // The grouped manifest lists the repair once, and its claims expanded
  // over the plan equal the ungrouped builder's, result by result.
  RunManifestInfo info;
  info.inputPath = "in.gds";
  info.outputPath = "out.shots";
  info.fingerprint = planFingerprint(plan, config);
  info.repairedShapes = repair.instanceShapes;
  const ShotStats stats = computeShotStats({});
  const std::string ungrouped =
      buildRunManifest(info, config, result, RunCounters{}, stats);
  info.cells = planCellGroups(plan);
  const std::string grouped =
      buildRunManifest(info, config, result, RunCounters{}, stats);
  JsonValue doc;
  JsonValue flatDoc;
  ASSERT_TRUE(parseJson(grouped, doc).ok());
  ASSERT_TRUE(parseJson(ungrouped, flatDoc).ok());
  const std::vector<const JsonValue*> claims = expandClaims(doc, &plan);
  const std::vector<const JsonValue*> flatClaims =
      expandClaims(flatDoc, nullptr);
  ASSERT_EQ(claims.size(), result.solutions.size());
  ASSERT_EQ(flatClaims.size(), claims.size());
  for (std::size_t i = 0; i < claims.size(); ++i) {
    const bool repaired = std::find(targets.begin(), targets.end(),
                                    static_cast<int>(i)) != targets.end();
    EXPECT_EQ(claims[i]->find("repaired")->boolean, repaired) << i;
    EXPECT_EQ(claims[i]->find("method")->string,
              result.solutions[i].method) << i;
    EXPECT_TRUE(*claims[i] == *flatClaims[i]) << "instance shape " << i;
  }
}

TEST(RunManifestTest, StableAcrossThreadCounts) {
  JsonValue reference;
  ASSERT_TRUE(parseJson(manifestForThreads(1), reference).ok());
  stripTimingFields(reference);
  for (const int threads : {4, 8}) {
    JsonValue other;
    ASSERT_TRUE(parseJson(manifestForThreads(threads), other).ok());
    stripTimingFields(other);
    EXPECT_TRUE(reference == other)
        << "manifest differs at " << threads << " threads";
  }
}

// --------------------------------------------------------------------
// The one list of result fields (forEachResultField)
// --------------------------------------------------------------------

/// Where the value of the config block's `name` member sits in manifest
/// `text`: its offset and length, or npos when the block lacks it.
std::pair<std::size_t, std::size_t> configValueSpan(std::string_view text,
                                                    const std::string& name) {
  constexpr auto npos = std::string_view::npos;
  const std::size_t config = text.find("\"config\": {");
  if (config == npos) return {npos, 0};
  const std::string key = "\"" + name + "\": ";
  const std::size_t at = text.find(key, config);
  if (at == npos || at > text.find('}', config)) return {npos, 0};
  const std::size_t begin = at + key.size();
  return {begin, text.find_first_of(",\n", begin) - begin};
}

std::string configValue(std::string_view text, const std::string& name) {
  const auto [at, size] = configValueSpan(text, name);
  if (at == std::string_view::npos) return "";
  return std::string(text.substr(at, size));
}

bool hasFingerprintIssue(const VerifyReport& report) {
  return std::any_of(report.fileIssues.begin(), report.fileIssues.end(),
                     [](const std::string& issue) {
                       return issue.rfind(
                                  "config/geometry fingerprint mismatch",
                                  0) == 0;
                     });
}

TEST(ResultFieldsTest, EveryFieldReachesTheManifestAndTheFingerprint) {
  // On LP64. A field a fracture's result depends on belongs in
  // forEachResultField; an execution limit is cleared by withoutLimits().
  EXPECT_EQ(sizeof(FractureParams), 136u)
      << "a new FractureParams field must be listed in forEachResultField "
         "or cleared by FractureParams::withoutLimits()";

  // One change per result field, each cheap to run on the L below.
  const std::map<std::string, std::function<void(FractureParams&)>>
      changes = {
          {"gamma", [](FractureParams& p) { p.gamma = 2.5; }},
          {"sigma", [](FractureParams& p) { p.sigma = 7.0; }},
          {"rho", [](FractureParams& p) { p.rho = 0.45; }},
          {"lmin", [](FractureParams& p) { p.lmin = 14; }},
          {"eta", [](FractureParams& p) { p.backscatterEta = 0.1; }},
          {"sigma_back", [](FractureParams& p) { p.backscatterSigma = 30.0; }},
          {"lth", [](FractureParams& p) { p.lth = 25.0; }},
          {"overlap_fraction",
           [](FractureParams& p) { p.overlapFraction = 0.7; }},
          {"coloring_order",
           [](FractureParams& p) {
             p.coloringOrder = ColoringOrder::kDsatur;
           }},
          {"nmax", [](FractureParams& p) { p.nmax = 80; }},
          {"nh", [](FractureParams& p) { p.nh = 4; }},
          {"stagnation_eps",
           [](FractureParams& p) { p.stagnationEps = 1e-5; }},
          {"blocking_sigmas",
           [](FractureParams& p) { p.blockingSigmas = 1.5; }},
          {"merge_inside_fraction",
           [](FractureParams& p) { p.mergeInsideFraction = 0.8; }},
          {"enable_bias", [](FractureParams& p) { p.enableBias = false; }},
          {"enable_add_remove",
           [](FractureParams& p) { p.enableAddRemove = false; }},
          {"enable_merge", [](FractureParams& p) { p.enableMerge = false; }},
      };
  FractureParams base;
  base.nmax = 60;
  std::vector<std::string> names;
  forEachResultField(std::as_const(base), [&](const char* name, const auto&) {
    names.emplace_back(name);
  });
  ASSERT_EQ(names.size(), changes.size());

  const std::string dir = testing::TempDir() + "result_fields/";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string input = dir + "in.poly";
  const std::vector<Polygon> l = {
      Polygon({{0, 0}, {160, 0}, {160, 60}, {60, 60}, {60, 160}, {0, 160}})};
  ASSERT_TRUE(savePolygons(input, l));
  // runLayout's manifest for `params`, at `dir`/`name`.json. Exit 4 is
  // a completed run with failing pixels (a toggle off may leave some),
  // which its manifest claims like any other.
  auto run = [&](const std::string& name, const FractureParams& params) {
    RunConfig config;
    config.inputPath = input;
    config.outputPath = dir + name + ".shots";
    config.metricsJsonPath = dir + name + ".json";
    config.batch.params = params;
    const int exit = runLayout(config);
    EXPECT_TRUE(exit == 0 || exit == 4) << name << ": exit " << exit;
    return config.metricsJsonPath;
  };
  std::string baseText;
  ASSERT_TRUE(readFileToString(run("base", base), baseText).ok());

  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    FractureParams params = base;
    changes.at(name)(params);
    const std::string path = run(name, params);
    VerifyReport report;
    ASSERT_TRUE(verifyRun({path, 1}, report).ok());
    EXPECT_TRUE(report.clean()) << report.str();

    // The field edited back to the base run's value, the sidecar
    // re-sealed: the recomputed fingerprint no longer matches.
    std::string text;
    ASSERT_TRUE(readFileToString(path, text).ok());
    const std::string baseValue = configValue(baseText, name);
    const auto [at, size] = configValueSpan(text, name);
    if (baseValue.empty() || at == std::string::npos) {
      ADD_FAILURE() << "the manifest does not record it";
      continue;
    }
    ASSERT_NE(text.substr(at, size), baseValue);
    text.replace(at, size, baseValue);
    std::string hex;
    ASSERT_TRUE(atomicWriteFile(path, text, &hex).ok());
    ASSERT_TRUE(writeHashSidecar(path, hex).ok());
    VerifyReport edited;
    ASSERT_TRUE(verifyRun({path, 1}, edited).ok());
    EXPECT_TRUE(hasFingerprintIssue(edited)) << edited.str();
  }
}

// --------------------------------------------------------------------
// perfCompact / perfRate edges
// --------------------------------------------------------------------

TEST(PerfFormatTest, CompactTiers) {
  EXPECT_EQ(perfCompact(0), "0");
  EXPECT_EQ(perfCompact(9999), "9999");
  EXPECT_EQ(perfCompact(10'000), "10.0k");
  EXPECT_EQ(perfCompact(9'999'999), "10000.0k");
  EXPECT_EQ(perfCompact(10'000'000), "10.00M");
  EXPECT_EQ(perfCompact(9'999'999'999ull), "10000.00M");
  EXPECT_EQ(perfCompact(10'000'000'000ull), "10.0G");
  EXPECT_EQ(perfCompact(std::numeric_limits<std::uint64_t>::max()),
            "18446744073.7G");
}

TEST(PerfFormatTest, RateEdges) {
  EXPECT_EQ(perfRate(1000, 0), "n/a");
  EXPECT_EQ(perfRate(0, 1'000'000'000), "0/s");
  EXPECT_EQ(perfRate(5000, 1'000'000'000), "5000/s");
  EXPECT_EQ(perfRate(20'000'000, 1'000'000'000), "20.00M/s");
}

}  // namespace
}  // namespace mbf
