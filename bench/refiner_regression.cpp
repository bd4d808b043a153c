// Refiner hot-path regression bench: the committed performance
// trajectory for the incremental-evaluation work (violation ledger +
// candidate-evaluation cache, DESIGN.md section 13).
//
//   refiner_regression [--smoke] [--out <path>]
//
// Emits one JSON document (stdout and --out, default BENCH_refiner.json)
// with, per suite (opc + ilt):
//   - end-to-end fractures at 1/4/8 threads: wall time, shots/sec,
//     candidate-evals/sec and the hot-path counters, with the shot lists
//     checked byte-identical across thread counts;
//   - a candidate-evaluation microbench run *in the same process*: the
//     same candidate sets evaluated through the CandidateEvalCache and
//     through the pre-cache path, values compared bit for bit — the
//     cached/uncached ratio is the PR's headline speedup;
//   - a violations-query microbench: mutate + ledger query vs mutate +
//     fresh full-grid scan (what every refiner iteration used to pay).
//
// --smoke shrinks everything (3 clips, 1/2 threads, few rounds) so the
// `perf` ctest label can replay it quickly; the consistency assertions
// (ledger == scan bitwise, cached == uncached bitwise, identical shot
// lists across threads) run in both modes and fail the process.
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "benchgen/ilt_synth.h"
#include "benchgen/opc_synth.h"
#include "fracture/fallback.h"
#include "fracture/refiner.h"
#include "fracture/verifier.h"
#include "mdp/layout.h"
#include "support/telemetry.h"

namespace {

using namespace mbf;

double seconds(std::uint64_t nanos) {
  return static_cast<double>(nanos) * 1e-9;
}

double perSec(std::uint64_t count, std::uint64_t nanos) {
  return nanos == 0 ? 0.0
                    : static_cast<double>(count) / seconds(nanos);
}

struct SweepPoint {
  int threads = 0;
  double wallSeconds = 0.0;
  int shots = 0;
  std::int64_t failPx = 0;
  PerfCounters perf;
  bool identical = true;
};

struct MicrobenchResult {
  std::uint64_t evals = 0;
  double cachedEvalsPerSec = 0.0;
  double uncachedEvalsPerSec = 0.0;
  double cacheHitRate = 0.0;
  double ledgerQueryNsPerIter = 0.0;
  double scanQueryNsPerIter = 0.0;
  bool bitIdentical = true;
  bool ledgerMatchesScan = true;
};

struct SuiteResult {
  std::string name;
  std::vector<SweepPoint> sweep;
  MicrobenchResult micro;
};

std::vector<LayoutShape> opcShapes(bool smoke) {
  std::vector<LayoutShape> shapes;
  std::vector<OpcSynthConfig> cfgs = opcSuiteConfigs();
  if (smoke) cfgs.resize(3);
  for (const OpcSynthConfig& cfg : cfgs) {
    LayoutShape s;
    s.rings.push_back(makeOpcShape(cfg));
    shapes.push_back(std::move(s));
  }
  return shapes;
}

std::vector<LayoutShape> iltShapes(bool smoke) {
  std::vector<LayoutShape> shapes;
  std::vector<IltSynthConfig> cfgs = iltSuiteConfigs();
  if (smoke) cfgs.resize(3);
  for (const IltSynthConfig& cfg : cfgs) {
    LayoutShape s;
    s.rings.push_back(makeIltShape(cfg));
    shapes.push_back(std::move(s));
  }
  return shapes;
}

bool sameShots(const BatchResult& a, const BatchResult& b) {
  if (a.solutions.size() != b.solutions.size()) return false;
  for (std::size_t i = 0; i < a.solutions.size(); ++i) {
    if (a.solutions[i].shots != b.solutions[i].shots) return false;
  }
  return true;
}

// The refiner's exact candidate set for one shot: the 8 single-edge
// +-1 nm moves that respect lmin.
std::vector<Rect> candidatesOf(const Rect& s, int lmin) {
  std::vector<Rect> out;
  for (int edge = 0; edge < 4; ++edge) {
    for (const int dir : {-1, +1}) {
      Rect r = s;
      switch (edge) {
        case 0: r.x0 += dir; break;
        case 1: r.x1 += dir; break;
        case 2: r.y0 += dir; break;
        default: r.y1 += dir; break;
      }
      if (r.width() >= lmin && r.height() >= lmin) out.push_back(r);
    }
  }
  return out;
}

// Candidate-eval + violations-query microbench over one suite, serial.
// The initial shot sets come from the partition fallback: deterministic,
// cheap to build, and shaped like a real refinement starting point.
MicrobenchResult runMicrobench(const std::vector<LayoutShape>& shapes,
                               int rounds) {
  MicrobenchResult out;
  std::uint64_t cachedNanos = 0;
  std::uint64_t uncachedNanos = 0;
  std::uint64_t cachedCalls = 0;
  std::uint64_t uncachedCalls = 0;
  std::uint64_t cacheHits = 0;
  std::uint64_t ledgerNanos = 0;
  std::uint64_t scanNanos = 0;
  std::uint64_t queryIters = 0;

  for (const LayoutShape& shape : shapes) {
    const Problem problem(shape.rings, FractureParams{});
    const Solution seedSol = fallbackFracture(problem);
    const int lmin = problem.params().lmin;

    Verifier verifier(problem);
    verifier.setShots(seedSol.shots);

    // --- candidate evaluations, cached vs uncached, same inputs -------
    std::vector<double> cachedVals;
    std::vector<double> uncachedVals;
    for (int round = 0; round < rounds; ++round) {
      {
        const PerfCounters before = verifier.perfCounters();
        const auto t0 = std::chrono::steady_clock::now();
        CandidateEvalCache cache;
        for (std::size_t i = 0; i < verifier.shots().size(); ++i) {
          for (const Rect& cand : candidatesOf(verifier.shots()[i], lmin)) {
            cachedVals.push_back(verifier.costDeltaForReplace(i, cand, cache));
          }
        }
        const auto t1 = std::chrono::steady_clock::now();
        cachedNanos += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count());
        const PerfCounters after = verifier.perfCounters();
        cachedCalls += after.candidateEvals - before.candidateEvals;
        cacheHits += after.candidateCacheHits - before.candidateCacheHits;
      }
      {
        const auto t0 = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < verifier.shots().size(); ++i) {
          for (const Rect& cand : candidatesOf(verifier.shots()[i], lmin)) {
            uncachedVals.push_back(verifier.costDeltaForReplace(i, cand));
            ++uncachedCalls;
          }
        }
        const auto t1 = std::chrono::steady_clock::now();
        uncachedNanos += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count());
      }
    }
    if (cachedVals != uncachedVals) out.bitIdentical = false;

    // --- violations query: mutate + ledger read vs mutate + fresh scan.
    // Identical mutation sequences; the pre-ledger refiner paid the
    // full-grid scan every iteration.
    if (!verifier.shots().empty()) {
      const int kQueries = 64;
      Violations ledgerLast, scanLast;
      {
        const auto t0 = std::chrono::steady_clock::now();
        for (int k = 0; k < kQueries; ++k) {
          Rect r = verifier.shots()[0];
          r.x1 += (k % 2 == 0) ? 1 : -1;
          verifier.replaceShot(0, r);
          ledgerLast = verifier.violations();
        }
        ledgerNanos += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
      }
      {
        const auto t0 = std::chrono::steady_clock::now();
        for (int k = 0; k < kQueries; ++k) {
          Rect r = verifier.shots()[0];
          r.x1 += (k % 2 == 0) ? 1 : -1;
          verifier.replaceShot(0, r);
          scanLast = verifier.scanViolations();
        }
        scanNanos += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
      }
      queryIters += kQueries;
      if (!(ledgerLast == scanLast) || !verifier.ledgerMatchesScan()) {
        out.ledgerMatchesScan = false;
      }
    }
  }

  out.evals = cachedCalls;
  out.cachedEvalsPerSec = perSec(cachedCalls, cachedNanos);
  out.uncachedEvalsPerSec = perSec(uncachedCalls, uncachedNanos);
  out.cacheHitRate = cachedCalls == 0
                         ? 0.0
                         : static_cast<double>(cacheHits) /
                               static_cast<double>(cachedCalls);
  if (queryIters > 0) {
    out.ledgerQueryNsPerIter =
        static_cast<double>(ledgerNanos) / static_cast<double>(queryIters);
    out.scanQueryNsPerIter =
        static_cast<double>(scanNanos) / static_cast<double>(queryIters);
  }
  return out;
}

SuiteResult runSuite(const std::string& name,
                     const std::vector<LayoutShape>& shapes,
                     const std::vector<int>& threadSweep, int microRounds) {
  SuiteResult suite;
  suite.name = name;

  BatchResult reference;
  for (std::size_t k = 0; k < threadSweep.size(); ++k) {
    const int threads = threadSweep[k];
    BatchConfig config;
    config.threads = threads;
    config.params.numThreads = threads;
    const BatchResult result = fractureLayout(shapes, config);

    SweepPoint point;
    point.threads = threads;
    point.wallSeconds = result.wallSeconds;
    point.shots = result.totalShots;
    point.failPx = result.totalFailingPixels;
    point.perf = result.refinerStats.perf;
    point.identical = k == 0 || sameShots(result, reference);
    if (k == 0) reference = result;
    suite.sweep.push_back(point);
  }

  suite.micro = runMicrobench(shapes, microRounds);
  return suite;
}

void writeJson(std::ostream& os, const std::vector<SuiteResult>& suites,
               bool smoke) {
  JsonWriter w;
  w.beginObject();
  w.key("bench").value("refiner_regression");
  w.key("mode").value(smoke ? "smoke" : "full");
  w.key("suites").beginObject();
  for (const SuiteResult& suite : suites) {
    w.key(suite.name).beginObject();
    w.key("thread_sweep").beginArray();
    for (const SweepPoint& p : suite.sweep) {
      w.beginObject();
      w.key("threads").value(std::int64_t{p.threads});
      w.key("wall_seconds").value(p.wallSeconds);
      w.key("shots").value(std::int64_t{p.shots});
      w.key("shots_per_sec")
          .value(p.wallSeconds > 0.0 ? p.shots / p.wallSeconds : 0.0);
      w.key("fail_px").value(p.failPx);
      w.key("candidate_evals").value(p.perf.candidateEvals);
      w.key("candidate_evals_per_sec")
          .value(perSec(p.perf.candidateEvals, p.perf.candidateNanos));
      w.key("candidate_cache_hit_rate")
          .value(p.perf.candidateEvals > 0
                     ? static_cast<double>(p.perf.candidateCacheHits) /
                           static_cast<double>(p.perf.candidateEvals)
                     : 0.0);
      w.key("profile_evals").value(p.perf.profileEvals);
      w.key("ledger_row_updates").value(p.perf.ledgerRowUpdates);
      w.key("full_scans").value(p.perf.fullScans);
      w.key("identical_to_first").value(p.identical);
      w.endObject();
    }
    w.endArray();
    const MicrobenchResult& m = suite.micro;
    w.key("candidate_eval_microbench").beginObject();
    w.key("evals").value(m.evals);
    w.key("cached_evals_per_sec").value(m.cachedEvalsPerSec);
    w.key("uncached_evals_per_sec").value(m.uncachedEvalsPerSec);
    w.key("speedup").value(m.uncachedEvalsPerSec > 0.0
                               ? m.cachedEvalsPerSec / m.uncachedEvalsPerSec
                               : 0.0);
    w.key("cache_hit_rate").value(m.cacheHitRate);
    w.key("bit_identical").value(m.bitIdentical);
    w.endObject();
    w.key("violations_query_microbench").beginObject();
    w.key("ledger_ns_per_iter").value(m.ledgerQueryNsPerIter);
    w.key("scan_ns_per_iter").value(m.scanQueryNsPerIter);
    w.key("speedup")
        .value(m.ledgerQueryNsPerIter > 0.0
                   ? m.scanQueryNsPerIter / m.ledgerQueryNsPerIter
                   : 0.0);
    w.key("ledger_matches_scan").value(m.ledgerMatchesScan);
    w.endObject();
    w.endObject();
  }
  w.endObject();
  w.endObject();
  os << w.str() << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string outPath = "BENCH_refiner.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      outPath = argv[++i];
    } else {
      std::cerr << "usage: refiner_regression [--smoke] [--out <path>]\n";
      return 2;
    }
  }

  const std::vector<int> sweep =
      smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 4, 8};
  const int microRounds = smoke ? 1 : 3;

  std::vector<SuiteResult> suites;
  suites.push_back(runSuite("opc", opcShapes(smoke), sweep, microRounds));
  suites.push_back(runSuite("ilt", iltShapes(smoke), sweep, microRounds));

  std::ostringstream json;
  writeJson(json, suites, smoke);
  std::cout << json.str();
  if (!outPath.empty()) {
    std::ofstream os(outPath);
    if (!os) {
      std::cerr << "cannot write " << outPath << "\n";
      return 3;
    }
    os << json.str();
  }

  // Consistency gates: any violation fails the bench (and the `perf`
  // ctest label that replays it in smoke mode).
  bool ok = true;
  for (const SuiteResult& suite : suites) {
    for (const SweepPoint& p : suite.sweep) {
      if (!p.identical) {
        std::cerr << "FAIL[" << suite.name << "]: " << p.threads
                  << "-thread shot lists differ from the first sweep run\n";
        ok = false;
      }
    }
    if (!suite.micro.bitIdentical) {
      std::cerr << "FAIL[" << suite.name
                << "]: cached candidate evals differ from uncached\n";
      ok = false;
    }
    if (!suite.micro.ledgerMatchesScan) {
      std::cerr << "FAIL[" << suite.name
                << "]: ledger violations differ from a fresh scan\n";
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
