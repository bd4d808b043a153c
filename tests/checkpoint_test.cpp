// Tests for the journal layer (mdp/checkpoint, DESIGN.md section 14):
// ShapeRecord and CellRecord serialization round trips bitwise, and a
// flat layout journaled as a flat plan (mdp/hierarchy) matches a plain
// run exactly, while resuming from a partial journal at any thread
// count reproduces the uninterrupted output byte for byte. The
// process-level half of the contract (SIGKILL mid-run, supervisor
// isolation) lives in tests/crash_drill_test.cpp.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "benchgen/ilt_synth.h"
#include "io/atomic_file.h"
#include "io/poly_io.h"
#include "mdp/checkpoint.h"
#include "mdp/hierarchy.h"
#include "mdp/layout.h"
#include "support/fault_injector.h"
#include "support/journal.h"

namespace mbf {
namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_("checkpoint_test_" + name + ".tmp") {
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

Polygon square(int size, Point at = {0, 0}) {
  return Polygon({{at.x, at.y},
                  {at.x + size, at.y},
                  {at.x + size, at.y + size},
                  {at.x, at.y + size}});
}

/// A small mixed layout: synthesized ILT shapes so solutions carry
/// non-trivial doubles, plus plain squares. The squares (every third
/// shape) are translated repeats, so they share one plan cell.
std::vector<LayoutShape> testLayout(int n) {
  std::vector<LayoutShape> shapes;
  for (int i = 0; i < n; ++i) {
    LayoutShape s;
    if (i % 3 == 0) {
      s.rings.push_back(square(40, {i * 100, 0}));
    } else {
      IltSynthConfig cfg;
      cfg.seed = 900 + static_cast<unsigned>(i);
      s.rings.push_back(makeIltShape(cfg));
    }
    shapes.push_back(s);
  }
  return shapes;
}

std::string shotsText(const BatchResult& result) {
  return formatBatchShots(result.solutions);
}

/// Result equality across two independent runs: everything the batch
/// computed must match bitwise — except runtimeSeconds, which is wall
/// clock, differs between any two fresh fractures of the same shape, and
/// is not part of the .shots output the byte-identity contract covers.
void expectSameSolution(const Solution& a, const Solution& b,
                        std::size_t i) {
  EXPECT_EQ(a.shots, b.shots) << "shape " << i;
  EXPECT_EQ(a.failOn, b.failOn) << "shape " << i;
  EXPECT_EQ(a.failOff, b.failOff) << "shape " << i;
  EXPECT_EQ(a.cost, b.cost) << "shape " << i;  // bitwise, no tolerance
  EXPECT_EQ(a.method, b.method) << "shape " << i;
  EXPECT_EQ(a.degraded, b.degraded) << "shape " << i;
}

/// The flat plan of `shapes` (in-range test geometry: planning never
/// refuses it).
HierPlan flatPlan(const std::vector<LayoutShape>& shapes,
                  const BatchConfig& config) {
  HierPlan plan;
  const Status st = planFlatLayout(shapes, config, plan);
  EXPECT_TRUE(st.ok()) << st.str();
  return plan;
}

/// The layout run as a flat plan through the journaled executor.
Status journaledRun(const std::vector<LayoutShape>& shapes,
                    const BatchConfig& config, const std::string& journal,
                    bool resume, BatchResult& out,
                    RunCounters* counters = nullptr) {
  HierOptions options;
  options.journalPath = journal;
  options.resume = resume;
  HierarchicalResult run;
  const Status st =
      fracturePlan(flatPlan(shapes, config), config, options, run, counters);
  out = std::move(run.batch);
  return st;
}

/// The journal meta a flat plan of `shapes` is journaled under.
std::string flatJournalMeta(const std::vector<LayoutShape>& shapes,
                            const BatchConfig& config) {
  std::vector<std::string> keys;
  for (const HierPlan::Cell& cell : flatPlan(shapes, config).cells) {
    keys.push_back(cell.key);
  }
  const int n = static_cast<int>(keys.size());
  return cellJournalMetaFor("", keys, 0, n);
}

void expectSameBatch(const BatchResult& a, const BatchResult& b) {
  ASSERT_EQ(a.solutions.size(), b.solutions.size());
  for (std::size_t i = 0; i < a.solutions.size(); ++i) {
    expectSameSolution(a.solutions[i], b.solutions[i], i);
    EXPECT_EQ(a.reports[i].degraded, b.reports[i].degraded) << "shape " << i;
    EXPECT_EQ(a.reports[i].status.code(), b.reports[i].status.code())
        << "shape " << i;
  }
  EXPECT_EQ(a.totalShots, b.totalShots);
  EXPECT_EQ(a.totalFailingPixels, b.totalFailingPixels);
  EXPECT_EQ(a.degradedShapes, b.degradedShapes);
  EXPECT_EQ(shotsText(a), shotsText(b));
}

// --- ShapeRecord serialization -----------------------------------------

TEST(ShapeRecordTest, RoundTripsBitwise) {
  ShapeRecord rec;
  rec.shapeIndex = 42;
  rec.solution.shots = {Rect(0, 0, 10, 10), Rect(-5, 3, 7, 9)};
  rec.solution.failOn = 3;
  rec.solution.failOff = 1;
  rec.solution.cost = 0.1 + 0.2;  // not exactly 0.3 — bitwise must hold
  rec.solution.runtimeSeconds = 1.25e-3;
  rec.solution.method = "ours";
  rec.solution.degraded = true;
  rec.report.degraded = true;
  rec.report.status =
      Status(StatusCode::kBudgetExceeded, "shape time budget").withShape(42);

  ShapeRecord out;
  ASSERT_TRUE(decodeShapeRecord(encodeShapeRecord(rec), out).ok());
  EXPECT_EQ(out.shapeIndex, 42);
  EXPECT_EQ(out.solution, rec.solution);
  EXPECT_EQ(out.report.degraded, true);
  EXPECT_EQ(out.report.status.code(), StatusCode::kBudgetExceeded);
  EXPECT_EQ(out.report.status.message(), "shape time budget");
  EXPECT_EQ(out.report.status.shapeIndex(), 42);
}

TEST(ShapeRecordTest, RejectsTruncatedAndTrailingBytes) {
  ShapeRecord rec;
  rec.shapeIndex = 1;
  rec.solution.shots = {Rect(0, 0, 4, 4)};
  const std::string bytes = encodeShapeRecord(rec);
  ShapeRecord out;
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(
        decodeShapeRecord(std::string_view(bytes).substr(0, cut), out).ok())
        << "cut=" << cut;
  }
  EXPECT_FALSE(decodeShapeRecord(bytes + "x", out).ok());
}

// --- CellRecord serialization -------------------------------------------

CellRecord sampleCellRecord() {
  CellRecord rec;
  rec.cellIndex = 7;
  rec.key = std::string(64, 'a');
  for (int i = 0; i < 3; ++i) {
    Solution sol;
    sol.shots = {Rect(i, 0, i + 10, 10), Rect(-5, i, 7, i + 9)};
    sol.failOn = i;
    sol.cost = 0.1 + 0.2 * i;  // inexact doubles: bitwise must hold
    sol.runtimeSeconds = 1.25e-3 * (i + 1);
    sol.method = i == 1 ? "fallback" : "ours";
    sol.degraded = i == 1;
    rec.solutions.push_back(std::move(sol));
    ShapeReport rep;
    rep.degraded = i == 1;
    if (i == 1) {
      rep.status = Status(StatusCode::kBudgetExceeded, "budget").withShape(i);
    }
    rec.reports.push_back(std::move(rep));
  }
  return rec;
}

TEST(CellRecordTest, RoundTripsBitwise) {
  const CellRecord rec = sampleCellRecord();
  CellRecord out;
  ASSERT_TRUE(decodeCellRecord(encodeCellRecord(rec), out).ok());
  EXPECT_EQ(out.cellIndex, rec.cellIndex);
  EXPECT_EQ(out.key, rec.key);
  ASSERT_EQ(out.solutions.size(), rec.solutions.size());
  ASSERT_EQ(out.reports.size(), rec.reports.size());
  for (std::size_t i = 0; i < rec.solutions.size(); ++i) {
    EXPECT_EQ(out.solutions[i], rec.solutions[i]) << "shape " << i;
    EXPECT_EQ(out.reports[i].degraded, rec.reports[i].degraded);
    EXPECT_EQ(out.reports[i].status.code(), rec.reports[i].status.code());
    EXPECT_EQ(out.reports[i].status.message(),
              rec.reports[i].status.message());
  }
}

TEST(CellRecordTest, VersionByteDiscriminatesFromShapeRecord) {
  // The two frame kinds share one journal stream; each decoder must
  // refuse the other's frames instead of misreading them.
  ShapeRecord shape;
  shape.shapeIndex = 3;
  shape.solution.shots = {Rect(0, 0, 4, 4)};
  CellRecord cellOut;
  EXPECT_FALSE(decodeCellRecord(encodeShapeRecord(shape), cellOut).ok());

  ShapeRecord shapeOut;
  EXPECT_FALSE(
      decodeShapeRecord(encodeCellRecord(sampleCellRecord()), shapeOut).ok());
}

TEST(CellRecordTest, RejectsTruncatedAndTrailingBytes) {
  const std::string bytes = encodeCellRecord(sampleCellRecord());
  CellRecord out;
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(
        decodeCellRecord(std::string_view(bytes).substr(0, cut), out).ok())
        << "cut=" << cut;
  }
  EXPECT_FALSE(decodeCellRecord(bytes + "x", out).ok());
}

TEST(CellRecordTest, RejectsOversizedKeyAndShapeCount) {
  CellRecord rec = sampleCellRecord();
  rec.key = std::string(300, 'k');  // > kMaxCellKeyBytes
  CellRecord out;
  EXPECT_FALSE(decodeCellRecord(encodeCellRecord(rec), out).ok());
}

TEST(CellRecordTest, TornTailRecoveryThroughJournal) {
  // CellRecord frames ride the CRC32 journal like ShapeRecords: a torn
  // write loses only the torn frame, every intact prefix record replays.
  TempFile journal("cell_torn");
  const std::string meta =
      cellJournalMetaFor("TOP", {std::string(64, 'a'), std::string(64, 'b')},
                         0, 2);
  std::vector<std::string> frames;
  for (int i = 0; i < 2; ++i) {
    CellRecord rec = sampleCellRecord();
    rec.cellIndex = i;
    rec.key = std::string(64, static_cast<char>('a' + i));
    frames.push_back(encodeCellRecord(rec));
  }
  {
    JournalWriter w;
    ASSERT_TRUE(w.create(journal.path(), meta, JournalFsync::kNone).ok());
    ASSERT_TRUE(w.append(frames[0]).ok());
    ASSERT_TRUE(w.append(frames[1]).ok());
    ASSERT_TRUE(w.closeChecked().ok());
  }
  // Tear the tail: drop the last 3 bytes of the second frame.
  {
    std::string bytes;
    {
      std::ifstream is(journal.path(), std::ios::binary);
      bytes.assign((std::istreambuf_iterator<char>(is)),
                   std::istreambuf_iterator<char>());
    }
    std::ofstream os(journal.path(), std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 3));
  }
  std::vector<std::string> replayed;
  JournalRecoveryStats stats;
  JournalWriter w;
  ASSERT_TRUE(w.openForAppend(journal.path(), meta, JournalFsync::kNone,
                              replayed, &stats)
                  .ok());
  EXPECT_TRUE(stats.tornTail);
  ASSERT_EQ(replayed.size(), 1u);
  CellRecord out;
  ASSERT_TRUE(decodeCellRecord(replayed[0], out).ok());
  EXPECT_EQ(out.cellIndex, 0);
  ASSERT_TRUE(w.closeChecked().ok());
}

TEST(CellJournalMetaTest, FingerprintCoversTopKeysAndRange) {
  const std::vector<std::string> keys = {std::string(64, 'a'),
                                         std::string(64, 'b')};
  const std::string base = cellJournalMetaFor("TOP", keys, 0, 2);
  EXPECT_NE(cellJournalMetaFor("OTHER", keys, 0, 2), base);
  EXPECT_NE(cellJournalMetaFor("TOP", {keys[1], keys[0]}, 0, 2), base);
  EXPECT_NE(cellJournalMetaFor("TOP", keys, 0, 1), base);
  EXPECT_EQ(cellJournalMetaFor("TOP", keys, 0, 2), base);
}

TEST(JournalMetaTest, FingerprintSeparatesRunsButNotThreadCounts) {
  const std::vector<LayoutShape> shapes = testLayout(4);
  BatchConfig config;
  const std::string base = journalMetaFor(shapes, config);

  BatchConfig eightThreads = config;
  eightThreads.threads = 8;
  EXPECT_EQ(journalMetaFor(shapes, eightThreads), base)
      << "resume with a different thread count must be allowed";

  BatchConfig otherMethod = config;
  otherMethod.method = Method::kGsc;
  EXPECT_NE(journalMetaFor(shapes, otherMethod), base);

  std::vector<LayoutShape> otherShapes = shapes;
  otherShapes[2].rings[0] = square(41, {200, 0});
  EXPECT_NE(journalMetaFor(otherShapes, config), base);
}

// --- Journaled flat runs -------------------------------------------------

TEST(JournaledRunTest, MatchesPlainRunExactly) {
  const std::vector<LayoutShape> shapes = testLayout(6);
  BatchConfig config;
  config.threads = 2;
  const BatchResult plain = fractureLayout(shapes, config);
  // Shapes 0 and 3 are one plan cell.
  const std::size_t cells = flatPlan(shapes, config).cells.size();
  ASSERT_EQ(cells, 5u);

  TempFile journal("plain_match");
  BatchResult journaled;
  RunCounters counters;
  ASSERT_TRUE(
      journaledRun(shapes, config, journal.path(), false, journaled, &counters)
          .ok());
  expectSameBatch(plain, journaled);
  EXPECT_EQ(counters.resumedShapes, 0);
  EXPECT_EQ(counters.freshShapes, static_cast<int>(cells));
}

TEST(JournaledRunTest, ResumeFromPartialJournalIsByteIdentical) {
  const std::vector<LayoutShape> shapes = testLayout(8);
  BatchConfig config;
  const BatchResult plain = fractureLayout(shapes, config);
  // Shapes 0, 3 and 6 are one plan cell; the journal holds one record
  // per cell.
  const std::size_t cells = flatPlan(shapes, config).cells.size();
  ASSERT_EQ(cells, 6u);

  // A full journal to harvest records from.
  TempFile fullJournal("resume_full");
  {
    BatchResult ignored;
    ASSERT_TRUE(
        journaledRun(shapes, config, fullJournal.path(), false, ignored)
            .ok());
  }
  std::string meta;
  std::vector<std::string> records;
  ASSERT_TRUE(recoverJournal(fullJournal.path(), meta, records).ok());
  ASSERT_EQ(records.size(), cells);

  // Resume from every prefix size, at several thread counts: the merged
  // output must equal the uninterrupted run bit for bit.
  for (const int threads : {1, 4, 8}) {
    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{3}, cells - 1, cells}) {
      TempFile partial("resume_partial");
      {
        JournalWriter writer;
        ASSERT_TRUE(
            writer.create(partial.path(), meta, JournalFsync::kNone).ok());
        for (std::size_t i = 0; i < keep; ++i) {
          ASSERT_TRUE(writer.append(records[i]).ok());
        }
      }
      BatchConfig resumedConfig = config;
      resumedConfig.threads = threads;
      BatchResult resumed;
      RunCounters counters;
      ASSERT_TRUE(journaledRun(shapes, resumedConfig, partial.path(), true,
                               resumed, &counters)
                      .ok())
          << "threads=" << threads << " keep=" << keep;
      expectSameBatch(plain, resumed);
      EXPECT_EQ(counters.resumedShapes, static_cast<int>(keep));
      EXPECT_EQ(counters.freshShapes, static_cast<int>(cells - keep));
      // The journal is now complete: a second resume replays everything.
      BatchResult replayed;
      RunCounters replayCounters;
      ASSERT_TRUE(journaledRun(shapes, resumedConfig, partial.path(), true,
                               replayed, &replayCounters)
                      .ok());
      expectSameBatch(plain, replayed);
      EXPECT_EQ(replayCounters.freshShapes, 0);
    }
  }
}

TEST(JournaledRunTest, ResumePreservesDegradedReports) {
  const std::vector<LayoutShape> shapes = testLayout(5);
  FaultInjector injector;
  injector.armShape(2, FaultKind::kThrow);
  BatchConfig config;
  config.params.faultInjector = &injector;
  const BatchResult plain = fractureLayout(shapes, config);
  ASSERT_TRUE(plain.reports[2].degraded);

  TempFile journal("degraded");
  BatchResult first;
  ASSERT_TRUE(journaledRun(shapes, config, journal.path(), true, first).ok());
  expectSameBatch(plain, first);

  // Replay: the degraded report (status code, message, shape index) must
  // come back from the journal, not be recomputed.
  BatchResult second;
  RunCounters counters;
  ASSERT_TRUE(
      journaledRun(shapes, config, journal.path(), true, second, &counters)
          .ok());
  EXPECT_EQ(counters.freshShapes, 0);
  expectSameBatch(plain, second);
  EXPECT_EQ(second.reports[2].status.code(), StatusCode::kExecFault);
  EXPECT_EQ(second.reports[2].status.shapeIndex(), 2);
}

TEST(JournaledRunTest, RefusesJournalOfDifferentRun) {
  const std::vector<LayoutShape> shapes = testLayout(3);
  BatchConfig config;
  TempFile journal("mismatch");
  BatchResult out;
  ASSERT_TRUE(journaledRun(shapes, config, journal.path(), true, out).ok());

  BatchConfig other = config;
  other.method = Method::kGsc;
  BatchResult ignored;
  const Status st =
      journaledRun(shapes, other, journal.path(), true, ignored);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(JournaledRunTest, RejectsOutOfRangeRecord) {
  const std::vector<LayoutShape> shapes = testLayout(3);
  BatchConfig config;
  TempFile journal("out_of_range");
  CellRecord rogue;
  rogue.cellIndex = 99;
  {
    JournalWriter writer;
    ASSERT_TRUE(writer
                    .create(journal.path(), flatJournalMeta(shapes, config),
                            JournalFsync::kNone)
                    .ok());
    ASSERT_TRUE(writer.append(encodeCellRecord(rogue)).ok());
  }
  BatchResult out;
  EXPECT_FALSE(journaledRun(shapes, config, journal.path(), true, out).ok());
}

TEST(JournaledRunTest, FirstDuplicateRecordWins) {
  const std::vector<LayoutShape> shapes = testLayout(2);
  BatchConfig config;
  const BatchResult plain = fractureLayout(shapes, config);

  // Journal shape 0 twice: once genuine, once tampered. Replay must keep
  // the first (a retried worker re-journals work an earlier attempt
  // already completed; the earlier record is the canonical one).
  TempFile full("dup_src");
  BatchResult ignored;
  ASSERT_TRUE(journaledRun(shapes, config, full.path(), false, ignored).ok());
  std::string meta;
  std::vector<std::string> records;
  ASSERT_TRUE(recoverJournal(full.path(), meta, records).ok());

  // recoverJournal returns records in completion order; index them.
  std::vector<std::string> byIndex(shapes.size());
  for (const std::string& r : records) {
    CellRecord rec;
    ASSERT_TRUE(decodeCellRecord(r, rec).ok());
    byIndex[static_cast<std::size_t>(rec.cellIndex)] = r;
  }
  CellRecord tampered;
  ASSERT_TRUE(decodeCellRecord(byIndex[0], tampered).ok());
  tampered.solutions[0].shots.clear();

  TempFile dup("dup");
  {
    JournalWriter writer;
    ASSERT_TRUE(writer.create(dup.path(), meta, JournalFsync::kNone).ok());
    ASSERT_TRUE(writer.append(byIndex[0]).ok());
    ASSERT_TRUE(writer.append(byIndex[1]).ok());
    ASSERT_TRUE(writer.append(encodeCellRecord(tampered)).ok());
  }
  BatchResult out;
  RunCounters counters;
  ASSERT_TRUE(
      journaledRun(shapes, config, dup.path(), true, out, &counters).ok());
  expectSameBatch(plain, out);
  EXPECT_EQ(counters.freshShapes, 0);
}

// --- Sharded indexing (the tile-local index regression) ------------------

// Fracturing a layout in shards must report every failure against the
// shape's index in the whole layout. A shard starting at shape 4 once
// reported its faults as shapes 0..3 — the operator then re-ran (or
// excluded) the wrong shapes. Worker shards are plan cell ranges; every
// shape runs under its plan-shape ordinal, both when consulting the
// injector and when stamping reports, and instantiation re-stamps a
// report with the layout index. A shard ends at its journal, so the
// cell results are read back from there, as the supervisor does.
TEST(ShardedBatchTest, ReportsCarryOriginalLayoutIndices) {
  const std::vector<LayoutShape> shapes = testLayout(6);
  FaultInjector injector;
  BatchConfig config;
  config.params.faultInjector = &injector;
  // Shape 3 repeats shape 0, so layout shape 4 is plan cell 3 and runs
  // under plan-shape ordinal 3.
  const HierPlan plan = flatPlan(shapes, config);
  ASSERT_EQ(plan.cells.size(), 5u);
  ASSERT_EQ(plan.instances[4].cell, 3);
  injector.armShape(3, FaultKind::kThrow);  // inside the second shard

  const BatchResult plain = fractureLayout(shapes, config);
  ASSERT_TRUE(plain.reports[4].degraded);
  ASSERT_EQ(plain.reports[4].status.shapeIndex(), 4);

  // Two shards of plan cells, like two supervisor worker ranges. A shard
  // journals its cells' cell-local results and instantiates nothing.
  BatchResult cellResults;
  cellResults.solutions.resize(plan.cells.size());
  cellResults.reports.resize(plan.cells.size());
  std::size_t journaledCells = 0;
  for (const auto& [begin, end] : {std::pair{0, 3}, std::pair{3, 5}}) {
    const TempFile journal("shard_" + std::to_string(begin));
    HierOptions shard;
    shard.journalPath = journal.path();
    shard.cellBegin = begin;
    shard.cellEnd = end;
    HierarchicalResult part;
    ASSERT_TRUE(fracturePlan(plan, config, shard, part).ok());
    EXPECT_TRUE(part.batch.solutions.empty());
    std::string meta;
    std::vector<std::string> payloads;
    ASSERT_TRUE(recoverJournal(journal.path(), meta, payloads).ok());
    for (const std::string& bytes : payloads) {
      CellRecord record;
      ASSERT_TRUE(decodeCellRecord(bytes, record).ok());
      ASSERT_GE(record.cellIndex, begin);
      ASSERT_LT(record.cellIndex, end);
      ASSERT_EQ(record.solutions.size(), 1u);
      const auto c = static_cast<std::size_t>(record.cellIndex);
      cellResults.solutions[c] = record.solutions.front();
      cellResults.reports[c] = record.reports.front();
      ++journaledCells;
    }
    std::remove(sidecarPathFor(journal.path()).c_str());
  }
  ASSERT_EQ(journaledCells, plan.cells.size());
  // The regression: the degraded report names ordinal 3, not shard-local
  // 0.
  EXPECT_TRUE(cellResults.reports[3].degraded);
  EXPECT_EQ(cellResults.reports[3].status.shapeIndex(), 3);

  // Instantiated at the plan's offsets, the shards give the plain run.
  BatchResult merged;
  for (const HierPlan::Instance& inst : plan.instances) {
    const auto c = static_cast<std::size_t>(inst.cell);
    Solution sol = cellResults.solutions[c];
    for (Rect& shot : sol.shots) shot = shot.translated(inst.offset);
    merged.solutions.push_back(std::move(sol));
    merged.reports.push_back(cellResults.reports[c]);
  }
  mergeBatchAggregates(merged, {});
  expectSameBatch(plain, merged);
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    EXPECT_EQ(plain.reports[i].degraded, i == 4) << "shape " << i;
  }
}

TEST(MergeBatchAggregatesTest, RecomputesFromScratch) {
  BatchResult result;
  result.solutions.resize(2);
  result.solutions[0].shots = {Rect(0, 0, 1, 1)};
  result.solutions[0].failOn = 2;
  result.solutions[1].shots = {Rect(0, 0, 1, 1), Rect(1, 0, 2, 1)};
  result.solutions[1].failOff = 1;
  result.solutions[1].runtimeSeconds = 0.5;
  result.reports.resize(2);
  result.reports[1].degraded = true;
  // Stale garbage that merge must overwrite, not accumulate into.
  result.totalShots = 999;
  result.totalFailingPixels = 999;
  result.degradedShapes = 999;
  result.shapeSecondsSum = 999.0;

  mergeBatchAggregates(result, {});
  EXPECT_EQ(result.totalShots, 3);
  EXPECT_EQ(result.totalFailingPixels, 3);
  EXPECT_EQ(result.degradedShapes, 1);
  EXPECT_DOUBLE_EQ(result.shapeSecondsSum, 0.5);
}

}  // namespace
}  // namespace mbf
