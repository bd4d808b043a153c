// Telemetry subsystem (DESIGN.md section 15): JSON writer/parser round
// trips, trace recorder ownership and thread behaviour, span frame
// round trips, run-manifest schema and its thread-count stability, and
// the perfCompact/perfRate formatting edges.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <limits>
#include <random>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/shot_stats.h"
#include "mdp/checkpoint.h"
#include "mdp/layout.h"
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

std::vector<LayoutShape> manifestShapes() {
  std::vector<LayoutShape> shapes;
  shapes.push_back({{Polygon({{0, 0}, {400, 0}, {400, 200}, {0, 200}})}});
  shapes.push_back(
      {{Polygon({{600, 0}, {1000, 0}, {1000, 150}, {600, 150}})}});
  shapes.push_back(
      {{Polygon({{0, 400}, {250, 400}, {250, 900}, {0, 900}})}});
  return shapes;
}

std::string manifestForThreads(int threads, BatchResult* resultOut) {
  const std::vector<LayoutShape> shapes = manifestShapes();
  BatchConfig config;
  config.threads = threads;
  config.params.numThreads = threads;
  config.params.nmax = 200;
  const BatchResult result = fractureLayout(shapes, config);

  std::vector<Rect> allShots;
  for (const Solution& sol : result.solutions) {
    allShots.insert(allShots.end(), sol.shots.begin(), sol.shots.end());
  }
  RunManifestInfo info;
  info.inputPath = "in.poly";
  info.outputPath = "out.shots";
  info.fingerprint = journalMetaFor(shapes, config);
  if (resultOut != nullptr) *resultOut = result;
  return buildRunManifest(info, config, result, RunCounters{},
                          computeShotStats(allShots));
}

TEST(RunManifestTest, SchemaAndTotals) {
  BatchResult result;
  const std::string manifest = manifestForThreads(1, &result);

  JsonValue doc;
  const Status st = parseJson(manifest, doc);
  ASSERT_TRUE(st.ok()) << st.str();

  for (const char* key :
       {"schema", "version", "input", "output", "config", "totals",
        "refiner", "perf", "shot_stats", "recovery", "shapes"}) {
    EXPECT_NE(doc.find(key), nullptr) << "missing key: " << key;
  }
  EXPECT_EQ(doc.find("schema")->string, "mbf-run-manifest");
  EXPECT_EQ(doc.find("version")->number, 1.0);

  // The totals must agree with what the --report path prints.
  const JsonValue* totals = doc.find("totals");
  ASSERT_NE(totals, nullptr);
  EXPECT_EQ(totals->find("shots")->number, result.totalShots);
  EXPECT_EQ(totals->find("failing_pixels")->number,
            static_cast<double>(result.totalFailingPixels));
  EXPECT_EQ(totals->find("degraded_shapes")->number, result.degradedShapes);

  const JsonValue* config = doc.find("config");
  ASSERT_NE(config, nullptr);
  EXPECT_EQ(config->find("method")->string, "ours");
  EXPECT_FALSE(config->find("fingerprint")->string.empty());

  const JsonValue* perf = doc.find("perf");
  ASSERT_NE(perf, nullptr);
  EXPECT_EQ(perf->find("candidate_evals")->number,
            static_cast<double>(result.refinerStats.perf.candidateEvals));

  const JsonValue* shapesArr = doc.find("shapes");
  ASSERT_NE(shapesArr, nullptr);
  ASSERT_TRUE(shapesArr->isArray());
  ASSERT_EQ(shapesArr->items.size(), result.solutions.size());
  double shotSum = 0;
  for (const JsonValue& shape : shapesArr->items) {
    EXPECT_NE(shape.find("index"), nullptr);
    EXPECT_NE(shape.find("status"), nullptr);
    shotSum += shape.find("shots")->number;
  }
  EXPECT_EQ(shotSum, result.totalShots);
}

/// Recursively drops the wall-clock-dependent members so manifests from
/// different thread counts compare equal on everything deterministic.
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

TEST(RunManifestTest, StableAcrossThreadCounts) {
  JsonValue reference;
  ASSERT_TRUE(parseJson(manifestForThreads(1, nullptr), reference).ok());
  stripTimingFields(reference);
  for (const int threads : {4, 8}) {
    JsonValue other;
    ASSERT_TRUE(
        parseJson(manifestForThreads(threads, nullptr), other).ok());
    stripTimingFields(other);
    EXPECT_TRUE(reference == other)
        << "manifest differs at " << threads << " threads";
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
