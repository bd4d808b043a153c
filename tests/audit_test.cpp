// Output-integrity surface (DESIGN.md section 16): SHA-256 vectors, the
// atomic-write protocol and hash sidecars, the sectioned .shots parser,
// the independent dense checker's bitwise oracle agreement with the
// pipeline Verifier, the content-grouped audit and --verify's manifest
// number checks. Labelled `audit`; the asan preset replays it under
// AddressSanitizer + UBSan, the tsan preset under ThreadSanitizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "audit/independent_checker.h"
#include "audit/verify_run.h"
#include "benchgen/ilt_synth.h"
#include "fracture/problem.h"
#include "fracture/verifier.h"
#include "io/atomic_file.h"
#include "io/poly_io.h"
#include "mdp/layout.h"

namespace mbf {
namespace {

std::string tmpPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// --- SHA-256 ----------------------------------------------------------

TEST(Sha256Test, Fips180KnownVectors) {
  EXPECT_EQ(sha256Hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b"
            "855");
  EXPECT_EQ(sha256Hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f2001"
            "5ad");
  EXPECT_EQ(sha256Hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnop"
                      "nopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db0"
            "6c1");
}

TEST(Sha256Test, IncrementalEqualsOneShot) {
  const std::string msg(200000, 'x');
  Sha256 h;
  // Update sizes straddle the 64-byte block boundary in every phase.
  std::size_t at = 0;
  std::size_t step = 1;
  while (at < msg.size()) {
    const std::size_t n = std::min(step, msg.size() - at);
    h.update(msg.data() + at, n);
    at += n;
    step = step * 3 + 1;
  }
  EXPECT_EQ(h.hexDigest(), sha256Hex(msg));
}

TEST(Sha256Test, MillionA) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk.data(), chunk.size());
  EXPECT_EQ(h.hexDigest(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112"
            "cd0");
}

// --- Atomic writes and hash sidecars ----------------------------------

TEST(AtomicFileTest, WriteReadRoundTripAndHash) {
  const std::string path = tmpPath("atomic_rt.txt");
  std::string hex;
  ASSERT_TRUE(atomicWriteFile(path, "hello\natomic\n", &hex).ok());
  EXPECT_EQ(hex, sha256Hex("hello\natomic\n"));

  std::string back;
  ASSERT_TRUE(readFileToString(path, back).ok());
  EXPECT_EQ(back, "hello\natomic\n");

  std::string fileHex;
  ASSERT_TRUE(sha256File(path, fileHex).ok());
  EXPECT_EQ(fileHex, hex);
}

TEST(AtomicFileTest, OverwriteReplacesWholeFile) {
  const std::string path = tmpPath("atomic_ow.txt");
  ASSERT_TRUE(atomicWriteFile(path, std::string(4096, 'A')).ok());
  ASSERT_TRUE(atomicWriteFile(path, "short").ok());
  std::string back;
  ASSERT_TRUE(readFileToString(path, back).ok());
  EXPECT_EQ(back, "short");  // no stale tail from the longer first write
}

TEST(AtomicFileTest, FailurePathLeavesNoFile) {
  const std::string path = "/nonexistent-dir-xyz/atomic.txt";
  EXPECT_FALSE(atomicWriteFile(path, "data").ok());
  std::ifstream is(path);
  EXPECT_FALSE(is.good());
}

TEST(AtomicFileTest, SidecarRoundTripAndVerify) {
  const std::string path = tmpPath("sidecar_rt.bin");
  std::string hex;
  ASSERT_TRUE(atomicWriteFile(path, "payload bytes", &hex).ok());
  ASSERT_TRUE(writeHashSidecar(path, hex).ok());
  EXPECT_EQ(sidecarPathFor(path), path + ".sha256");

  std::string stored;
  ASSERT_TRUE(readHashSidecar(path, stored).ok());
  EXPECT_EQ(stored, hex);
  EXPECT_TRUE(verifyHashSidecar(path).ok());

  // Any byte change must flip the verdict.
  ASSERT_TRUE(atomicWriteFile(path, "payload bytez").ok());
  const Status st = verifyHashSidecar(path);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("sha256 mismatch"), std::string::npos);
}

TEST(AtomicFileTest, MalformedSidecarIsParseError) {
  const std::string path = tmpPath("sidecar_bad.bin");
  ASSERT_TRUE(atomicWriteFile(path, "x").ok());
  ASSERT_TRUE(atomicWriteFile(sidecarPathFor(path), "not-a-hash\n").ok());
  std::string stored;
  EXPECT_EQ(readHashSidecar(path, stored).code(), StatusCode::kParseError);
}

// --- Sectioned .shots parsing -----------------------------------------

TEST(ParseShotSectionsTest, RoundTripsWriteBatchShots) {
  std::vector<Solution> sols(2);
  sols[0].shots = {{0, 0, 10, 10}, {10, 0, 20, 10}};
  sols[0].failOn = 0;
  sols[0].failOff = 0;
  sols[1].shots = {{5, 5, 30, 30}};
  sols[1].failOn = 2;
  sols[1].failOff = 1;
  sols[1].degraded = true;
  std::vector<ShotSection> sections;
  ASSERT_TRUE(parseShotSections(formatBatchShots(sols), sections).ok());
  ASSERT_EQ(sections.size(), 2u);
  EXPECT_EQ(sections[0].index, 0);
  EXPECT_EQ(sections[0].claimedShots, 2);
  EXPECT_EQ(sections[0].claimedFailingPx, 0);
  EXPECT_FALSE(sections[0].claimedDegraded);
  EXPECT_EQ(sections[0].shots, sols[0].shots);
  EXPECT_EQ(sections[1].index, 1);
  EXPECT_EQ(sections[1].claimedShots, 1);
  EXPECT_EQ(sections[1].claimedFailingPx, 3);
  EXPECT_TRUE(sections[1].claimedDegraded);
  EXPECT_EQ(sections[1].shots, sols[1].shots);
}

TEST(ParseShotSectionsTest, RejectsMalformedContent) {
  std::vector<ShotSection> sections;
  // A shot line before any section header.
  Status st = parseShotSections("0 0 10 10\n", sections);
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  // A garbage content line inside a section, with its line number.
  sections.clear();
  st = parseShotSections("# shape 0: 1 shots, 0 failing px\nnot a shot\n",
                         sections);
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.message().find("2"), std::string::npos);
}

TEST(ParseShotSectionsTest, UnderfilledSectionParsesFine) {
  // Fewer shots than the header claims is the AUDIT's finding to make,
  // not a parse failure — the parser must hand the mismatch through.
  std::vector<ShotSection> sections;
  ASSERT_TRUE(parseShotSections("# shape 0: 3 shots, 0 failing px\n"
                                "0 0 10 10\n",
                                sections)
                  .ok());
  ASSERT_EQ(sections.size(), 1u);
  EXPECT_EQ(sections[0].claimedShots, 3);
  EXPECT_EQ(sections[0].shots.size(), 1u);
}

TEST(ParseShotSectionsTest, RejectsIntegersOutsideTheirRange) {
  // strtoll reads these fine; narrowed to int they once became the
  // shot `10 0 20 10` and shape 0.
  std::vector<ShotSection> sections;
  Status st = parseShotSections(
      "# shape 0: 1 shots, 0 failing px\n4294967306 0 4294967316 10\n",
      sections);
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.message().find("line 2"), std::string::npos) << st.message();
  st = parseShotSections("# shape 4294967296: 0 shots, 0 failing px\n",
                         sections);
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.message().find("line 1"), std::string::npos) << st.message();
  st = parseShotSections("# shape 0: -2147483649 shots, 0 failing px\n",
                         sections);
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  // The failing-pixel count is int64: only strtoll's own overflow fails.
  st = parseShotSections(
      "\n# shape 0: 0 shots, 99999999999999999999 failing px\n", sections);
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.message().find("line 2"), std::string::npos) << st.message();
  // The limits themselves parse.
  ASSERT_TRUE(parseShotSections("# shape 2147483647: 1 shots, "
                                "9223372036854775807 failing px\n"
                                "-2147483648 0 2147483647 10\n",
                                sections)
                  .ok());
  EXPECT_EQ(sections[0].index, 2147483647);
  EXPECT_EQ(sections[0].claimedFailingPx, 9223372036854775807LL);
  EXPECT_EQ(sections[0].shots[0], Rect(-2147483648, 0, 2147483647, 10));
}

// --- Oracle agreement: dense checker vs pipeline Verifier -------------

LayoutShape iltLayoutShape(unsigned seed) {
  IltSynthConfig cfg;
  cfg.seed = seed;
  LayoutShape shape;
  shape.rings.push_back(makeIltShape(cfg));
  return shape;
}

TEST(DenseOracleTest, BitwiseAgreementWithVerifierAcrossThreads) {
  // Randomized realistic shapes, fractured by the real pipeline; the
  // independent gather evaluator must agree with the scatter-built
  // Verifier BIT FOR BIT — counts and cost — at every thread count.
  for (const unsigned seed : {101u, 202u, 303u, 404u}) {
    const LayoutShape shape = iltLayoutShape(seed);
    FractureParams params;
    params.nmax = 400;  // enough refinement to leave nontrivial shots
    const Solution sol = fractureShape(shape, params, Method::kOurs);
    ASSERT_FALSE(sol.shots.empty()) << "seed " << seed;

    for (const int threads : {1, 4, 8}) {
      FractureParams tp = params;
      tp.numThreads = threads;
      Problem problem(shape.rings, tp);
      Verifier verifier(problem);
      verifier.setShots(sol.shots);
      const Violations expected = verifier.violations();

      const DenseViolations dense = denseViolations(problem, sol.shots);
      EXPECT_EQ(dense.failOn, expected.failOn) << "seed " << seed;
      EXPECT_EQ(dense.failOff, expected.failOff) << "seed " << seed;
      EXPECT_EQ(dense.cost, expected.cost)  // bitwise, not a tolerance
          << "seed " << seed << " threads " << threads;
    }
  }
}

TEST(DenseOracleTest, AgreesWithSolutionClaims) {
  // writeStats stamps the Solution with the Verifier's numbers; the
  // dense checker must reproduce those claims exactly.
  const LayoutShape shape = iltLayoutShape(777u);
  FractureParams params;
  params.nmax = 400;
  const Solution sol = fractureShape(shape, params, Method::kOurs);
  Problem problem(shape.rings, params);
  const DenseViolations dense = denseViolations(problem, sol.shots);
  EXPECT_EQ(dense.failOn, sol.failOn);
  EXPECT_EQ(dense.failOff, sol.failOff);
  EXPECT_EQ(dense.cost, sol.cost);
}

TEST(DenseOracleTest, DetectsTamperedShot) {
  // Tampering that drops real dose must move the dense re-evaluation.
  // (Tampering that only ADDS interior dose can be violation-neutral —
  // that class is caught by the artifact hash, not the re-check.)
  const LayoutShape shape = iltLayoutShape(555u);
  FractureParams params;
  params.nmax = 400;
  const Solution sol = fractureShape(shape, params, Method::kOurs);
  ASSERT_FALSE(sol.shots.empty());
  Problem problem(shape.rings, params);
  const DenseViolations before = denseViolations(problem, sol.shots);
  // The shots are load-bearing: without them every Pon pixel fails.
  ASSERT_LT(before.failOn, problem.numOnPixels());
  const DenseViolations emptied = denseViolations(problem, {});
  EXPECT_EQ(emptied.failOn, problem.numOnPixels());
  EXPECT_NE(emptied.failOn, before.failOn);

  // Dropping a single shot from the section: at least one shot in a
  // refined solution is individually load-bearing.
  bool detected = false;
  for (std::size_t i = 0; i < sol.shots.size() && !detected; ++i) {
    std::vector<Rect> tampered = sol.shots;
    tampered.erase(tampered.begin() + static_cast<std::ptrdiff_t>(i));
    const DenseViolations after = denseViolations(problem, tampered);
    detected = after.failOn != before.failOn ||
               after.failOff != before.failOff || after.cost != before.cost;
  }
  EXPECT_TRUE(detected);
}

TEST(DenseOracleTest, ShotOffTheGridInXOnlyIsIgnored) {
  // The shot `1 2 3 4` appended to a run whose last shape lies far to
  // the right: its influence window misses the grid in x but overlaps it
  // in y. Such a window has no profiles; the gather must skip it (it
  // once read an empty y profile there and crashed).
  LayoutShape shape;
  shape.rings.push_back(
      Polygon({{1000, 0}, {1060, 0}, {1060, 60}, {1000, 60}}));
  FractureParams params;
  params.nmax = 300;
  const Solution sol = fractureShape(shape, params, Method::kOurs);
  ASSERT_FALSE(sol.shots.empty());
  Problem problem(shape.rings, params);
  std::vector<Rect> tampered = sol.shots;
  tampered.push_back(Rect(1, 2, 3, 4));
  const DenseViolations before = denseViolations(problem, sol.shots);
  const DenseViolations after = denseViolations(problem, tampered);
  EXPECT_EQ(after.failOn, before.failOn);
  EXPECT_EQ(after.failOff, before.failOff);
  EXPECT_EQ(after.cost, before.cost);

  // Through the section audit, the extra shot is a finding on that
  // shape: its section now holds more shots than its header claims.
  std::vector<Solution> sols = {sol};
  std::vector<ShotSection> sections;
  ASSERT_TRUE(
      parseShotSections(formatBatchShots(sols) + "1 2 3 4\n", sections).ok());
  const std::vector<ShapeExpectation> expectations = {
      {sol.method, sol.failOn, sol.failOff, sol.cost, sol.degraded, true,
       true}};
  const AuditReport report = auditShotSections(
      {shape}, params, sections, expectations, /*threads=*/1);
  ASSERT_FALSE(report.clean());
  EXPECT_EQ(report.findings.front().shapeIndex, 0);
}

// --- Metamorphic: whole-pixel translation -----------------------------

TEST(MetamorphicTest, WholePixelTranslationTranslatesShots) {
  // Fracturing a translated copy of a shape must yield exactly the
  // translated shots (the grid origin follows the bbox), and the dense
  // evaluation must be bitwise invariant under the translation.
  const Point delta{4000, 2000};
  for (const unsigned seed : {11u, 22u}) {
    const LayoutShape shape = iltLayoutShape(seed);
    LayoutShape moved = shape;
    for (Polygon& ring : moved.rings) ring.translate(delta);

    FractureParams params;
    params.nmax = 300;
    const Solution base = fractureShape(shape, params, Method::kOurs);
    const Solution shifted = fractureShape(moved, params, Method::kOurs);

    ASSERT_EQ(base.shots.size(), shifted.shots.size()) << "seed " << seed;
    for (std::size_t i = 0; i < base.shots.size(); ++i) {
      EXPECT_EQ(base.shots[i].x0 + delta.x, shifted.shots[i].x0);
      EXPECT_EQ(base.shots[i].y0 + delta.y, shifted.shots[i].y0);
      EXPECT_EQ(base.shots[i].x1 + delta.x, shifted.shots[i].x1);
      EXPECT_EQ(base.shots[i].y1 + delta.y, shifted.shots[i].y1);
    }

    Problem pBase(shape.rings, params);
    Problem pMoved(moved.rings, params);
    const DenseViolations a = denseViolations(pBase, base.shots);
    const DenseViolations b = denseViolations(pMoved, shifted.shots);
    EXPECT_EQ(a.failOn, b.failOn);
    EXPECT_EQ(a.failOff, b.failOff);
    EXPECT_EQ(a.cost, b.cost);
  }
}

// --- auditShotSections end to end -------------------------------------

TEST(AuditSectionsTest, CleanBatchHasNoFindings) {
  std::vector<LayoutShape> shapes = {iltLayoutShape(31u), iltLayoutShape(32u)};
  BatchConfig config;
  config.params.nmax = 300;
  const BatchResult result = fractureLayout(shapes, config);

  std::vector<ShotSection> sections;
  ASSERT_TRUE(
      parseShotSections(formatBatchShots(result.solutions), sections).ok());

  std::vector<ShapeExpectation> expectations(shapes.size());
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    const Solution& sol = result.solutions[i];
    expectations[i] = {sol.method,       sol.failOn, sol.failOff,
                       sol.cost,         sol.degraded,
                       /*completed=*/true,
                       /*exactCost=*/true};
  }
  const AuditReport report = auditShotSections(
      shapes, config.params, sections, expectations, /*threads=*/2);
  EXPECT_TRUE(report.clean()) << report.str();
  EXPECT_EQ(report.shapesAudited, 2);
}

TEST(AuditSectionsTest, FlagsTamperedClaimsAndShots) {
  std::vector<LayoutShape> shapes = {iltLayoutShape(41u)};
  BatchConfig config;
  config.params.nmax = 300;
  const BatchResult result = fractureLayout(shapes, config);

  std::vector<ShotSection> sections;
  ASSERT_TRUE(
      parseShotSections(formatBatchShots(result.solutions), sections).ok());

  std::vector<ShapeExpectation> expectations(1);
  const Solution& sol = result.solutions[0];
  expectations[0] = {sol.method, sol.failOn, sol.failOff, sol.cost,
                     sol.degraded, true, true};

  // 1. Drop a shot: claimed count and dose field both disagree.
  auto dropped = sections;
  ASSERT_FALSE(dropped[0].shots.empty());
  dropped[0].shots.pop_back();
  EXPECT_FALSE(auditShotSections(shapes, config.params, dropped,
                                 expectations, 1)
                   .clean());

  // 2. Lie about the failing-pixel claim only.
  auto lied = sections;
  lied[0].claimedFailingPx += 5;
  EXPECT_FALSE(
      auditShotSections(shapes, config.params, lied, expectations, 1)
          .clean());

  // 3. Expectation disagrees with reality (manifest tamper).
  auto badExp = expectations;
  badExp[0].failOn += 1;
  EXPECT_FALSE(
      auditShotSections(shapes, config.params, sections, badExp, 1)
          .clean());

  // Control: untouched data stays clean.
  EXPECT_TRUE(auditShotSections(shapes, config.params, sections,
                                expectations, 1)
                  .clean());
}

TEST(AuditSectionsTest, IncompleteShapeMustBeEmpty) {
  std::vector<LayoutShape> shapes = {iltLayoutShape(51u)};
  FractureParams params;
  params.nmax = 300;
  const Solution sol = fractureShape(shapes[0], params, Method::kOurs);
  ASSERT_FALSE(sol.shots.empty());

  std::vector<Solution> sols = {sol};
  std::vector<ShotSection> sections;
  ASSERT_TRUE(parseShotSections(formatBatchShots(sols), sections).ok());

  // The run claims this shape failed/was interrupted (completed=false):
  // a NON-empty section is a finding.
  std::vector<ShapeExpectation> expectations(1);
  expectations[0] = {"empty", 0, 0, 0.0, false, /*completed=*/false, true};
  EXPECT_FALSE(
      auditShotSections(shapes, params, sections, expectations, 1).clean());
}

TEST(AuditSectionsTest, RepeatsAuditLikeSinglesWithOneEvaluationEach) {
  // Translated copies of two shapes at far-apart offsets, among them one
  // copy with a moved shot, one with tampered claims and one with its
  // shots reordered. Grouped by content, the audit must report exactly
  // what auditing every shape on its own reports, and evaluate each
  // distinct (target, shots) content once.
  FractureParams params;
  params.nmax = 300;
  const LayoutShape a = iltLayoutShape(61u);
  const LayoutShape b = iltLayoutShape(62u);
  const Solution solA = fractureShape(a, params, Method::kOurs);
  const Solution solB = fractureShape(b, params, Method::kOurs);
  ASSERT_GE(solA.shots.size(), 2u);

  std::vector<LayoutShape> shapes;
  std::vector<ShotSection> sections;
  std::vector<ShapeExpectation> expectations;
  auto add = [&](const LayoutShape& shape, const Solution& sol, Point at,
                 std::vector<Rect> shots, std::int64_t failOnDelta) {
    LayoutShape moved = shape;
    for (Polygon& ring : moved.rings) ring.translate(at);
    for (Rect& r : shots) r = r.translated(at);
    const int index = static_cast<int>(shapes.size());
    shapes.push_back(std::move(moved));
    sections.push_back({index, sol.shotCount(), sol.failingPixels(),
                        sol.degraded, std::move(shots)});
    expectations.push_back({sol.method, sol.failOn + failOnDelta,
                            sol.failOff, sol.cost, sol.degraded, true,
                            true});
  };
  std::vector<Rect> movedShot = solA.shots;
  movedShot.front().x0 += 3;
  std::vector<Rect> reordered(solA.shots.rbegin(), solA.shots.rend());
  add(a, solA, {0, 0}, solA.shots, 0);
  add(b, solB, {-2000000000, 1500000000}, solB.shots, 0);
  add(a, solA, {2000000000, -2000000000}, solA.shots, 0);
  add(a, solA, {-1000000, 3000}, movedShot, 0);  // shots tampered
  add(a, solA, {123457, -98765}, solA.shots, 1);  // claims tampered
  add(a, solA, {-2100000000, -2100000000}, reordered, 0);
  add(b, solB, {7, 11}, solB.shots, 0);

  const AuditReport grouped =
      auditShotSections(shapes, params, sections, expectations, 4);
  std::vector<AuditFinding> alone;
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    ShotSection section = sections[i];
    section.index = 0;
    const AuditReport one = auditShotSections(
        {shapes[i]}, params, std::span<const ShotSection>(&section, 1),
        std::span<const ShapeExpectation>(&expectations[i], 1), 1);
    EXPECT_EQ(one.denseEvaluations, 1);
    for (const AuditFinding& f : one.findings) {
      alone.push_back({static_cast<int>(i), f.what});
    }
  }
  // The tampered copies are findings on their own.
  const auto findingsOf = [&](int shape) {
    return std::count_if(alone.begin(), alone.end(),
                         [&](const AuditFinding& f) {
                           return f.shapeIndex == shape;
                         });
  };
  EXPECT_GT(findingsOf(3), 0);
  EXPECT_GT(findingsOf(4), 0);
  ASSERT_EQ(grouped.findings.size(), alone.size()) << grouped.str();
  for (std::size_t k = 0; k < alone.size(); ++k) {
    EXPECT_EQ(grouped.findings[k].shapeIndex, alone[k].shapeIndex);
    EXPECT_EQ(grouped.findings[k].what, alone[k].what);
  }
  EXPECT_EQ(grouped.shapesAudited, 7);
  // a (shapes 0, 2, 4), b (1, 6), the moved shot (3), the reorder (5).
  EXPECT_EQ(grouped.denseEvaluations, 4);
}

// --- verifyRun: manifest numbers --------------------------------------

TEST(VerifyRunTest, NonIntegralManifestNumbersAreNamedIssues) {
  // JSON numbers are doubles: a manifest may hold 1e300 or 12.5 where
  // an integer belongs. Each such field is a file issue naming it, never
  // a narrowing conversion.
  const std::string dir = tmpPath("verify_numbers");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::vector<Polygon> rings = {
      Polygon({{0, 0}, {60, 0}, {60, 60}, {0, 60}})};
  {
    std::ofstream poly(dir + "/in.poly");
    writePolygons(poly, rings);
  }
  FractureParams params;
  params.nmax = 200;
  const Solution sol = fractureShape({rings}, params, Method::kOurs);
  ASSERT_TRUE(atomicWriteFile(dir + "/out.shots",
                              formatBatchShots(std::vector<Solution>{sol}))
                  .ok());
  const std::string manifest =
      "{\"schema\": \"mbf-run-manifest\",\n"
      " \"config\": {\"lmin\": 12.5, \"nmax\": 1e300},\n"
      " \"input\": {\"path\": \"" + dir + "/in.poly\", \"shapes\": 1e300},\n"
      " \"output\": {\"path\": \"" + dir + "/out.shots\"},\n"
      " \"totals\": {\"shots\": -1e300},\n"
      " \"cells\": [{\"instances\": 1,\n"
      "             \"shapes\": [{\"method\": \"ours\", \"fail_on\": 1e300,\n"
      "                         \"fail_off\": 0.5, \"cost\": 0}]}]}\n";
  {
    std::ofstream out(dir + "/manifest.json");
    out << manifest;
  }
  VerifyOptions options;
  options.target = dir + "/manifest.json";
  VerifyReport report;
  ASSERT_TRUE(verifyRun(options, report).ok());
  EXPECT_FALSE(report.clean());
  for (const char* field :
       {"config.lmin", "config.nmax", "input.shapes", "totals.shots",
        "cells[0].shapes[0].fail_on", "cells[0].shapes[0].fail_off"}) {
    const bool named = std::any_of(
        report.fileIssues.begin(), report.fileIssues.end(),
        [&](const std::string& issue) {
          return issue.find(std::string("manifest ") + field + " = ") !=
                 std::string::npos;
        });
    EXPECT_TRUE(named) << field << " not named in:\n" << report.str();
  }
}

TEST(VerifyRunTest, VersionOneManifestIsANamedIssue) {
  // Schema version 1 listed the claims per instance in shapes[]; no
  // reader of it is kept, so such a manifest fails with one issue that
  // says why, even when its claims and artifacts are true.
  const std::string dir = tmpPath("verify_v1");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::vector<Polygon> rings = {
      Polygon({{0, 0}, {60, 0}, {60, 60}, {0, 60}})};
  {
    std::ofstream poly(dir + "/in.poly");
    writePolygons(poly, rings);
  }
  FractureParams params;
  params.nmax = 200;
  const Solution sol = fractureShape({rings}, params, Method::kOurs);
  ASSERT_TRUE(atomicWriteFile(dir + "/out.shots",
                              formatBatchShots(std::vector<Solution>{sol}))
                  .ok());
  const std::string manifest =
      "{\"schema\": \"mbf-run-manifest\", \"version\": 1,\n"
      " \"config\": {\"nmax\": 200},\n"
      " \"input\": {\"path\": \"" + dir + "/in.poly\", \"shapes\": 1},\n"
      " \"output\": {\"path\": \"" + dir + "/out.shots\"},\n"
      " \"artifacts\": [],\n"
      " \"shapes\": [{\"index\": 0, \"method\": \"" + sol.method +
      "\", \"shots\": " + std::to_string(sol.shotCount()) +
      ", \"fail_on\": " + std::to_string(sol.failOn) +
      ", \"fail_off\": " + std::to_string(sol.failOff) + "}]}\n";
  ASSERT_TRUE(atomicWriteFile(dir + "/manifest.json", manifest).ok());
  ASSERT_TRUE(
      writeHashSidecar(dir + "/manifest.json", sha256Hex(manifest)).ok());
  VerifyOptions options;
  options.target = dir + "/manifest.json";
  VerifyReport report;
  ASSERT_TRUE(verifyRun(options, report).ok());
  EXPECT_FALSE(report.clean());
  ASSERT_EQ(report.fileIssues.size(), 1u) << report.str();
  EXPECT_NE(report.fileIssues[0].find("it says version 1"),
            std::string::npos)
      << report.fileIssues[0];
}

}  // namespace
}  // namespace mbf
