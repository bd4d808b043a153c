// mbf_cli -- command-line mask fracturing driver.
//
//   mbf_cli <input.poly> <output.shots> [options]
//   mbf_cli --verify <run-dir-or-manifest.json> [--threads=n]
//
//   --method=ours|gsc|mp|proxy   fracturing method        (default ours)
//   --gamma=<nm>                 CD tolerance             (default 2)
//   --sigma=<nm>                 proximity kernel sigma   (default 6.25)
//   --lmin=<nm>                  minimum shot side        (default 12)
//   --eta=<0..1>                 backscatter mixture      (default 0)
//   --sigma-back=<nm>            backscatter sigma        (default sigma)
//   --threads=<n>                worker threads; 0 = all cores (default 1)
//   --budget-ms=<ms>             per-shape time budget; 0 = none (default 0)
//   --nmax=<n>                   max refinement iterations  (default 1500;
//                                a shape whose refine loop repeats its
//                                exact state stops there, with the result
//                                a run to n would return)
//   --strict                     fail shapes instead of degrading them
//   --order                      order shots for the writer (NN + 2-opt)
//   --svg=<path>                 write an overlay SVG of shapes + shots
//   --gds-out=<path>             also write shots as GDSII rectangles
//   --report                     print per-shape statistics
//
// Telemetry (DESIGN.md section 15):
//   --metrics-json=<path>        write the run manifest: one JSON
//                                document aggregating batch totals,
//                                refiner stage timers, perf counters,
//                                recovery counters, per-shape outcomes,
//                                shot-quality stats and the config
//                                fingerprint
//   --trace-json=<path>          record trace spans (fracture stages,
//                                parallelFor chunks, journal writes,
//                                worker lifecycles) and write a
//                                chrome://tracing / Perfetto JSON
//                                timeline; under --isolate each worker
//                                streams its spans to the parent, which
//                                merges them in
//
// Every run plans its input (a flat layout is a one-level plan with one
// anchored cell per distinct shape; --hier plans the GDS hierarchy),
// executes the plan in process or supervised, and instantiates it. A
// shape shared by several cells is fractured once per batch and copied,
// translated, into the others.
//
// Crash recovery (DESIGN.md sections 14 and 19):
//   --journal=<path>             append each completed plan cell to a
//                                CRC32-framed CellRecord journal
//   --resume                     replay the journal first; fracture only
//                                the missing cells (byte-identical
//                                output to an uninterrupted run)
//   --fsync=none|each            journal durability (default none:
//                                survives process death; each: survives
//                                power loss)
//   --isolate                    supervised multi-process mode: the
//                                distinct shapes to fracture are
//                                sharded across forked worker processes,
//                                which stream their outcomes to this
//                                process (it alone journals, caches and
//                                writes); crashes/hangs cost one
//                                degraded distinct shape, never the run
//   --jobs=<n>                   worker processes for --isolate
//   --worker-timeout-ms=<ms>     watchdog: SIGKILL workers that exceed
//                                this wall clock (0 = none)
//   --retries=<n>                relaunches of a failing worker range
//                                before bisection (default 2)
//   --backoff-ms=<ms>            base of the capped exponential retry
//                                backoff (default 50)
//
// Fault injection (deterministic, for the crash drills):
//   --inject=<kind>@<i>[,...]    arm <kind> (throw|oom|timeout|crash|
//                                hang) on plan-shape ordinal i (cells in
//                                plan order, shapes in cell order; a
//                                flat layout counts distinct shapes in
//                                first-occurrence order)
//   --inject-every=<kind>@<n>    arm <kind> on every nth ordinal
//   --inject-seed=<s>            seed for the injector
//
// Hierarchical production path (DESIGN.md sections 17 and 19):
//   --hier                       fracture the .gds hierarchically: each
//                                unique cell is fractured once and its
//                                shot list instantiated at every
//                                SREF/AREF placement (requires a .gds
//                                input). Composes with --journal/
//                                --resume and --isolate like a flat run
//   --cell-cache=<dir>           persistent content-addressed cell
//                                cache: cells keyed by SHA-256 over
//                                geometry + fracture parameters are
//                                reused across runs; a warm run
//                                fractures only misses (flat runs too:
//                                each shape is a cell)
//   --cell-cache-quota-mb=<n>    soft size cap on the cell cache:
//                                after each store, least-recently-
//                                modified entries are evicted until
//                                the cache fits, never evicting an
//                                entry this run touched
//   --top-cell=<name>            top structure (default: the unique
//                                structure no SREF/AREF references);
//                                also applies to flat .gds runs, whose
//                                flatten starts at the same root
//
// Output integrity (DESIGN.md section 16):
//   --verify <target>            acceptance gate: re-hash every artifact
//                                a finished run's manifest lists and
//                                re-check every per-shape claim with the
//                                independent dense checker; exit 0 clean,
//                                6 on any discrepancy
//   --selfcheck                  audit the .shots bytes in-process right
//                                after writing them; shapes that fail
//                                are re-fractured once through the
//                                fallback ladder and tagged "repaired"
//                                in the manifest (exit 6 if one still
//                                fails). The .shots output is
//                                byte-identical with or without this
//                                flag.
// All artifacts are written atomically (temp + fsync + rename) and the
// manifest records each one's SHA-256; the manifest itself gets a
// `.sha256` sidecar. SIGTERM/SIGINT drain gracefully: started shapes
// finish and are journaled, the manifest is stamped "interrupted", and
// the run exits 5.
//
// Input: flat .poly ring list (blank-line separated) or a .gds file
// (BOUNDARY elements); rings nested in another ring are holes. Output:
// one "x0 y0 x1 y1" shot per line, with '#' comments separating shapes.
//
// Exit codes:
//   0  every shape fractured by the primary method, Eq. 4 feasible
//   1  completed, but some shapes degraded to rect-partition fracturing
//   2  usage / bad argument, or an auxiliary output (--svg, --gds-out,
//      --metrics-json, --trace-json) could not be written, or a journal
//      append failed mid-batch and the run completed unjournaled (the
//      .shots artifact is intact; the journal artifact was dropped)
//   3  input or output I/O error (unreadable, unparseable, empty input,
//      a shape whose fracture grid would leave int32), or a fatal
//      journal/supervisor error
//   4  completed without degradation but with failing pixels — or, with
//      --strict, any per-shape failure
//   5  partial success: completed, but one or more distinct shapes
//      crashed their worker and were crash-isolated (bisected to the
//      culprit and degraded via the fallback ladder) — or the run was
//      interrupted (SIGTERM/SIGINT) and drained gracefully
//   6  integrity failure: --verify found a hash/claim discrepancy, or a
//      --selfcheck shape still failed its audit after repair
#include <sys/stat.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "analysis/shot_stats.h"
#include "audit/independent_checker.h"
#include "audit/verify_run.h"
#include "io/atomic_file.h"
#include "io/gdsii.h"
#include "io/poly_io.h"
#include "io/svg.h"
#include "io/table.h"
#include "mdp/checkpoint.h"
#include "mdp/hierarchy.h"
#include "mdp/layout.h"
#include "mdp/ordering.h"
#include "mdp/supervisor.h"
#include "support/fault_injector.h"
#include "support/interrupt.h"
#include "support/perf_counters.h"
#include "support/telemetry.h"

namespace {

bool parseDouble(const std::string& value, double& out) {
  try {
    std::size_t pos = 0;
    out = std::stod(value, &pos);
    return pos == value.size();
  } catch (...) {
    return false;
  }
}

bool parseInt(const std::string& value, int& out) {
  try {
    std::size_t pos = 0;
    out = std::stoi(value, &pos);
    return pos == value.size();
  } catch (...) {
    return false;
  }
}

int usage() {
  std::cerr << "usage: mbf_cli <input.poly> <output.shots> "
               "[--method=ours|gsc|mp|proxy] [--gamma=nm] [--sigma=nm] "
               "[--lmin=nm] [--eta=0..1] [--sigma-back=nm] [--threads=n] "
               "[--budget-ms=ms] [--nmax=n] [--strict] [--order] "
               "[--svg=path] [--gds-out=path] [--report] "
               "[--metrics-json=path] [--trace-json=path] "
               "[--journal=path] [--resume] [--fsync=none|each] "
               "[--isolate] [--jobs=n] [--worker-timeout-ms=ms] "
               "[--retries=n] [--backoff-ms=ms] [--selfcheck] "
               "[--hier] [--cell-cache=dir] [--cell-cache-quota-mb=n] "
               "[--top-cell=name] "
               "[--inject=kind@i,...] [--inject-every=kind@n] "
               "[--inject-seed=s]\n"
               "       mbf_cli --verify <run-dir-or-manifest.json> "
               "[--threads=n]\n";
  return 2;
}

/// The `mbf_cli --verify <target>` acceptance gate. Exit 0 only when
/// every artifact re-hashes to its manifest entry AND every per-shape
/// claim survives the independent checker; 6 on any discrepancy
/// (including "could not even start"), 2 on usage errors.
int runVerifyMode(int argc, char** argv) {
  mbf::VerifyOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--verify") {
      if (i + 1 >= argc) {
        std::cerr << "--verify needs a run directory or manifest path\n";
        return usage();
      }
      options.target = argv[++i];
    } else if (arg.rfind("--verify=", 0) == 0) {
      options.target = arg.substr(std::string("--verify=").size());
    } else if (arg.rfind("--threads=", 0) == 0) {
      if (!parseInt(arg.substr(std::string("--threads=").size()),
                    options.threads) ||
          options.threads < 0) {
        std::cerr << "invalid --threads: must be an integer >= 0\n";
        return usage();
      }
    } else {
      std::cerr << "unknown argument in --verify mode: " << arg << "\n";
      return usage();
    }
  }
  if (options.target.empty()) {
    std::cerr << "--verify needs a run directory or manifest path\n";
    return usage();
  }

  mbf::VerifyReport report;
  const mbf::Status st = mbf::verifyRun(options, report);
  if (!st.ok()) {
    std::cerr << "verify: " << st.str() << "\n";
    return 6;
  }
  if (!report.clean()) {
    std::cerr << report.str();
    std::cerr << "verify: FAILED (" << report.fileIssues.size()
              << " artifact issue(s), " << report.audit.findings.size()
              << " shape finding(s)) for " << report.manifestPath << "\n";
    return 6;
  }
  std::cout << "verify: OK — " << report.artifactsChecked
            << " artifact(s) hashed, " << report.audit.shapesAudited
            << " shape(s) re-checked (" << report.audit.denseEvaluations
            << " distinct evaluated), 0 discrepancies"
            << (report.interrupted ? " (interrupted run: partial by design)"
                                   : "")
            << " [" << report.manifestPath << "]\n";
  return 0;
}

/// "kind@number" -> (FaultKind, int). Used by --inject / --inject-every.
bool parseKindAt(const std::string& spec, mbf::FaultKind& kind, int& at) {
  const std::size_t sep = spec.find('@');
  if (sep == std::string::npos) return false;
  if (!mbf::parseFaultKind(spec.substr(0, sep), kind)) return false;
  return parseInt(spec.substr(sep + 1), at);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mbf;

  if (argc >= 2 && (std::string(argv[1]) == "--verify" ||
                    std::string(argv[1]).rfind("--verify=", 0) == 0)) {
    return runVerifyMode(argc, argv);
  }

  if (argc < 3) return usage();
  const std::string inputPath = argv[1];
  const std::string outputPath = argv[2];

  BatchConfig config;
  std::string svgPath;
  std::string gdsOutPath;
  std::string metricsJsonPath;
  std::string traceJsonPath;
  bool report = false;
  bool orderForWriter = false;
  bool selfcheck = false;

  // Hierarchical production path (DESIGN.md section 17).
  bool hier = false;
  std::string cellCacheDir;
  int cellCacheQuotaMb = 0;
  std::string topCell;

  // Crash-recovery mode flags.
  std::string journalPath;
  bool resume = false;
  JournalFsync fsyncPolicy = JournalFsync::kNone;
  bool isolate = false;
  int jobs = 2;
  double workerTimeoutMs = 0.0;
  int retries = 2;
  double backoffMs = 50.0;

  // Deterministic fault injection (lives as long as the batch does).
  FaultInjector injector;
  bool injectorArmed = false;

  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? std::string{} : arg.substr(eq + 1);
    // Each flag reports its own constraint so a rejected value explains
    // itself instead of the generic "bad argument".
    std::string error;
    if (key == "--method") {
      if (!parseMethod(value, config.method)) {
        error = "must be ours, gsc, mp or proxy";
      }
    } else if (key == "--gamma") {
      if (!parseDouble(value, config.params.gamma) ||
          config.params.gamma < 0.0) {
        error = "must be a number >= 0 (nm)";
      }
    } else if (key == "--sigma") {
      if (!parseDouble(value, config.params.sigma) ||
          config.params.sigma <= 0.0) {
        error = "must be a number > 0 (nm)";
      }
    } else if (key == "--lmin") {
      if (!parseInt(value, config.params.lmin) || config.params.lmin < 1) {
        error = "must be an integer >= 1 (nm)";
      }
    } else if (key == "--eta") {
      if (!parseDouble(value, config.params.backscatterEta) ||
          config.params.backscatterEta < 0.0 ||
          config.params.backscatterEta > 1.0) {
        error = "must be a number in [0, 1]";
      }
    } else if (key == "--sigma-back") {
      if (!parseDouble(value, config.params.backscatterSigma) ||
          config.params.backscatterSigma <= 0.0) {
        error = "must be a number > 0 (nm)";
      }
    } else if (key == "--budget-ms") {
      if (!parseDouble(value, config.params.shapeTimeBudgetMs) ||
          config.params.shapeTimeBudgetMs < 0.0) {
        error = "must be a number >= 0 (milliseconds, 0 = unlimited)";
      }
    } else if (key == "--nmax") {
      if (!parseInt(value, config.params.nmax) || config.params.nmax < 0) {
        error = "must be an integer >= 0";
      }
    } else if (key == "--strict") {
      config.allowDegradation = false;
    } else if (key == "--order") {
      orderForWriter = true;
    } else if (key == "--selfcheck") {
      selfcheck = true;
    } else if (key == "--hier") {
      hier = true;
    } else if (key == "--cell-cache") {
      cellCacheDir = value;
      if (cellCacheDir.empty()) error = "must be a directory path";
    } else if (key == "--cell-cache-quota-mb") {
      if (!parseInt(value, cellCacheQuotaMb) || cellCacheQuotaMb < 1) {
        error = "must be an integer >= 1 (megabytes)";
      }
    } else if (key == "--top-cell") {
      topCell = value;
      if (topCell.empty()) error = "must be a structure name";
    } else if (key == "--gds-out") {
      gdsOutPath = value;
      if (gdsOutPath.empty()) error = "must be a path";
    } else if (key == "--threads") {
      // 0 = hardware concurrency; the knob drives both the per-shape job
      // parallelism and the in-problem scan parallelism.
      if (!parseInt(value, config.threads) || config.threads < 0) {
        error = "must be an integer >= 0 (0 = all cores)";
      } else {
        config.params.numThreads = config.threads;
      }
    } else if (key == "--svg") {
      svgPath = value;
      if (svgPath.empty()) error = "must be a path";
    } else if (key == "--report") {
      report = true;
    } else if (key == "--metrics-json") {
      metricsJsonPath = value;
      if (metricsJsonPath.empty()) error = "must be a path";
    } else if (key == "--trace-json") {
      traceJsonPath = value;
      if (traceJsonPath.empty()) error = "must be a path";
    } else if (key == "--journal") {
      journalPath = value;
      if (journalPath.empty()) error = "must be a path";
    } else if (key == "--resume") {
      resume = true;
    } else if (key == "--fsync") {
      if (value == "none") {
        fsyncPolicy = JournalFsync::kNone;
      } else if (value == "each") {
        fsyncPolicy = JournalFsync::kEachRecord;
      } else {
        error = "must be none or each";
      }
    } else if (key == "--isolate") {
      isolate = true;
    } else if (key == "--jobs") {
      if (!parseInt(value, jobs) || jobs < 1) {
        error = "must be an integer >= 1";
      }
    } else if (key == "--worker-timeout-ms") {
      if (!parseDouble(value, workerTimeoutMs) || workerTimeoutMs < 0.0) {
        error = "must be a number >= 0 (milliseconds, 0 = no watchdog)";
      }
    } else if (key == "--retries") {
      if (!parseInt(value, retries) || retries < 0) {
        error = "must be an integer >= 0";
      }
    } else if (key == "--backoff-ms") {
      if (!parseDouble(value, backoffMs) || backoffMs < 0.0) {
        error = "must be a number >= 0 (milliseconds)";
      }
    } else if (key == "--inject") {
      std::string rest = value;
      while (!rest.empty() && error.empty()) {
        const std::size_t comma = rest.find(',');
        const std::string spec = rest.substr(0, comma);
        rest = comma == std::string::npos ? std::string{}
                                          : rest.substr(comma + 1);
        FaultKind kind = FaultKind::kNone;
        int at = -1;
        if (!parseKindAt(spec, kind, at) || at < 0) {
          error = "must be kind@index[,kind@index...] with kind in "
                  "throw|oom|timeout|crash|hang";
        } else {
          injector.armShape(at, kind);
          injectorArmed = true;
        }
      }
      if (value.empty()) error = "must be kind@index[,kind@index...]";
    } else if (key == "--inject-every") {
      FaultKind kind = FaultKind::kNone;
      int n = 0;
      if (!parseKindAt(value, kind, n) || n < 1) {
        error = "must be kind@n with n >= 1";
      } else {
        injector.armEveryNth(n, kind);
        injectorArmed = true;
      }
    } else if (key == "--inject-seed") {
      int seed = 0;
      if (!parseInt(value, seed)) {
        error = "must be an integer";
      } else {
        injector = FaultInjector(static_cast<std::uint64_t>(seed));
        injectorArmed = false;  // re-arm flags must follow the seed
      }
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return usage();
    }
    if (!error.empty()) {
      std::cerr << "invalid " << key << "='" << value << "': " << error
                << "\n";
      return usage();
    }
  }
  if (resume && journalPath.empty()) {
    std::cerr << "--resume requires --journal=<path>\n";
    return usage();
  }
  const bool gdsInput = inputPath.size() > 4 &&
                        inputPath.substr(inputPath.size() - 4) == ".gds";
  if (hier && !gdsInput) {
    std::cerr << "--hier requires a .gds input (hierarchy lives in the "
                 "GDS structure tree)\n";
    return usage();
  }
  if (cellCacheQuotaMb > 0 && cellCacheDir.empty()) {
    std::cerr << "--cell-cache-quota-mb requires --cell-cache=<dir>\n";
    return usage();
  }
  if (!gdsInput && !topCell.empty()) {
    std::cerr << "--top-cell requires a .gds input\n";
    return usage();
  }
  if (injectorArmed) config.params.faultInjector = &injector;

  const auto dirOf = [](const std::string& p) {
    const std::size_t slash = p.find_last_of('/');
    return slash == std::string::npos ? std::string(".") : p.substr(0, slash);
  };

  // Advisory liveness locks (DESIGN.md section 19): while held, a
  // concurrent run's stale-temp sweep proves this process LIVE and
  // leaves its in-flight `.tmp.<pid>` files alone, even after pid
  // reuse. Best effort — on an unlockable filesystem concurrent sweeps
  // fall back to the conservative kill(pid, 0) probe.
  DirLivenessLock outputDirLock;
  DirLivenessLock journalDirLock;
  (void)outputDirLock.acquire(dirOf(outputPath));
  if (!journalPath.empty() && dirOf(journalPath) != dirOf(outputPath)) {
    (void)journalDirLock.acquire(dirOf(journalPath));
  }

  // --resume cleanup: an earlier writer of the output or journal may
  // have died inside atomicWriteFile, leaving `<name>.tmp.<pid>`
  // orphans. Sweep the ones whose writer is provably dead so retries of
  // a failing run do not accumulate temps (DESIGN.md section 18).
  int sweptTemps = 0;
  if (resume) {
    const std::string outDir = dirOf(outputPath);
    const std::string jrnDir = dirOf(journalPath);
    sweptTemps = sweepStaleTempFiles(outDir);
    if (jrnDir != outDir) sweptTemps += sweepStaleTempFiles(jrnDir);
    if (sweptTemps > 0) {
      std::cerr << "resume: removed " << sweptTemps
                << " stale temp file(s) left by dead writers\n";
    }
  }

  // Graceful drain: SIGTERM/SIGINT set a flag that fractureShapeGuarded
  // checks on entry, so started shapes finish (and are journaled) while
  // unstarted ones stay untouched for a later --resume; the supervisor
  // additionally forwards the signal to its workers, which inherit these
  // handlers and stream what they finished. The run then exits 5 with
  // the manifest stamped "interrupted".
  installInterruptHandlers();

  // Tracing on before any traced work starts. Spans never change what is
  // computed, so the output stays byte-identical either way.
  if (!traceJsonPath.empty()) TraceRecorder::instance().enable();

  // 1. Plan: a flat layout is a one-level plan with one anchored cell per
  // distinct shape; --hier plans the GDS structure tree.
  HierPlan plan;
  {
    std::string warning;
    const Status st =
        planLayoutFile(inputPath, config, hier, topCell, plan, &warning);
    if (!st.ok()) {
      std::cerr << "cannot read " << inputPath << ": " << st.str() << "\n";
      return 3;
    }
    if (!warning.empty()) {
      std::cerr << "warning: " << inputPath << ": " << warning << "\n";
    }
  }
  if (!hier) {
    std::cerr << "fracturing " << plan.instances.size() << " shape(s) ("
              << plan.cells.size() << " distinct) with method '"
              << toString(config.method) << "'...\n";
  }

  // 2. Execute: in process, or supervised across forked worker
  // processes; either way journaled, cached and instantiated by the one
  // plan executor.
  HierOptions options;
  options.journalPath = journalPath;
  options.resume = resume;
  options.fsync = fsyncPolicy;
  options.cellCacheDir = cellCacheDir;
  options.cellCacheQuotaBytes =
      static_cast<std::int64_t>(cellCacheQuotaMb) * 1024 * 1024;
  SupervisorConfig sup;
  if (isolate) {
    // This process never fractures; it shards, watches, retries and
    // bisects, and journals and caches what the workers stream back.
    sup.workDir = outputPath + ".workers";
    sup.jobs = jobs;
    sup.workerTimeoutMs = workerTimeoutMs;
    sup.maxRetries = retries;
    sup.backoffBaseMs = backoffMs;
    sup.verbose = report;
  }
  HierarchicalResult run;
  RunCounters counters;
  const Status runStatus = fracturePlan(plan, config, options, run, &counters,
                                        isolate ? &sup : nullptr);
  if (!runStatus.ok()) {
    // Degrade-don't-die: a downgraded journal leaves the run complete in
    // memory; ship the shots, drop the (unsealed) journal artifact, exit
    // 2 via the ladder below.
    if (!counters.journalDowngraded) {
      std::cerr << "fracture: " << runStatus.str() << "\n";
      return 3;
    }
    std::cerr << "journal: append failed mid-run; completing unjournaled: "
              << runStatus.str() << "\n";
  }
  const bool haveCounters = !journalPath.empty() || isolate;
  counters.staleTempsRemoved += sweptTemps;
  if (!run.isolatedShapes.empty()) {
    std::cerr << "supervisor: crash-isolated plan-shape ordinal(s):";
    for (const int ordinal : run.isolatedShapes) std::cerr << " " << ordinal;
    std::cerr << "\n";
  }
  if (run.cellCacheDisabled) {
    // Degrade-don't-die: the cache is an accelerator, never a
    // correctness dependency; a sick cache filesystem costs speed on the
    // NEXT run, not this run's shots.
    std::cerr << "cell-cache: disabled for the rest of the run after "
              << run.cellCacheIoErrors << " I/O error(s): "
              << run.cellCacheDisableCause << "\n";
  }
  if (hier) {
    std::cerr << "hier: top '" << run.topStruct << "', "
              << run.reachableCells << " reachable cell(s), "
              << run.cellCacheHits << " cache hit(s), "
              << run.uniqueCellsFractured << " fractured, "
              << run.instancesExpanded << " instance(s), "
              << run.instanceShapes.size() << " instantiated shape(s)\n";
  }
  std::vector<LayoutShape> shapes = std::move(run.instanceShapes);
  BatchResult result = std::move(run.batch);
  RunManifestInfo::HierInfo hierInfo;
  hierInfo.enabled = hier;
  // The flatten/expansion root, recorded even for flat .gds runs, so
  // --verify re-derives the layout from the same structure (an explicit
  // --top-cell may disambiguate roots the auto-detection would refuse).
  hierInfo.topCell = run.topStruct;
  hierInfo.cacheDir = cellCacheDir;
  hierInfo.reachableCells = run.reachableCells;
  hierInfo.uniqueCellsFractured = run.uniqueCellsFractured;
  hierInfo.uniqueShapesFractured = run.uniqueShapesFractured;
  hierInfo.cacheHits = run.cellCacheHits;
  hierInfo.cacheMisses = run.cellCacheMisses;
  hierInfo.cacheRejected = run.cellCacheRejected;
  hierInfo.instancesExpanded = run.instancesExpanded;
  hierInfo.cacheIoErrors = run.cellCacheIoErrors;
  hierInfo.cacheEvicted = run.cellCacheEvicted;
  hierInfo.cacheEvictionsSkippedLive = run.cellCacheEvictionsSkippedLive;
  hierInfo.cacheDisabled = run.cellCacheDisabled;

  if (orderForWriter) {
    for (Solution& sol : result.solutions) {
      sol.shots = applyOrder(sol.shots, orderShots(sol.shots));
    }
  }

  const bool interrupted = result.interruptedShapes > 0;

  // Emit .shots atomically, keeping the hash for the manifest. The bytes
  // are identical with --selfcheck on or off: the audit reads back what
  // was written and never touches a passing run's output.
  std::string shotsSha256;
  std::vector<int> repairedShapes;
  bool selfcheckFailed = false;
  auto writeShotsFile = [&]() -> bool {
    const Status st = atomicWriteFile(
        outputPath, formatBatchShots(result.solutions), &shotsSha256);
    if (!st.ok()) {
      std::cerr << "cannot write " << outputPath << ": " << st.str() << "\n";
      return false;
    }
    return true;
  };
  if (!writeShotsFile()) return 3;

  if (selfcheck) {
    // In-process audit of the artifact just written, through the same
    // independent checker --verify uses — reading the file back, so a
    // write-path defect is caught too, not just a compute-path one.
    auto auditOnce = [&]() {
      AuditReport audit;
      std::string content;
      const Status rd = readFileToString(outputPath, content);
      if (!rd.ok()) {
        audit.findings.push_back({-1, rd.str()});
        return audit;
      }
      std::vector<ShotSection> sections;
      const Status ps = parseShotSections(content, sections);
      if (!ps.ok()) {
        audit.findings.push_back({-1, ps.str()});
        return audit;
      }
      std::vector<ShapeExpectation> expectations(result.solutions.size());
      for (std::size_t i = 0; i < result.solutions.size(); ++i) {
        const Solution& sol = result.solutions[i];
        const ShapeReport& rep = result.reports[i];
        expectations[i] = {sol.method,
                           sol.failOn,
                           sol.failOff,
                           sol.cost,
                           rep.degraded,
                           (rep.status.ok() || rep.degraded) &&
                               !rep.interrupted,
                           !orderForWriter};
      }
      return auditShotSections(shapes, config.params, sections, expectations,
                               config.threads);
    };

    AuditReport audit = auditOnce();
    if (audit.clean()) {
      std::cerr << "selfcheck: " << audit.shapesAudited
                << " shape(s) audited (" << audit.denseEvaluations
                << " distinct evaluated), 0 findings\n";
    } else {
      std::cerr << "selfcheck: " << audit.findings.size()
                << " finding(s):\n" << audit.str();
      // Repair ladder: each failing shape is re-fractured once, fallback
      // only (deterministic and budget-free), tagged "repaired" in the
      // manifest, and the artifact is rewritten and re-audited. A shape
      // still failing after that is an integrity failure (exit 6).
      std::vector<int> failing;
      for (const AuditFinding& f : audit.findings) {
        if (f.shapeIndex < 0 ||
            static_cast<std::size_t>(f.shapeIndex) >= shapes.size()) {
          selfcheckFailed = true;  // file-level finding: nothing to repair
          continue;
        }
        if (std::find(failing.begin(), failing.end(), f.shapeIndex) ==
            failing.end()) {
          failing.push_back(f.shapeIndex);
        }
      }
      for (const int index : failing) {
        const auto s = static_cast<std::size_t>(index);
        ShapeOutcome outcome = fractureShapeGuarded(
            shapes[s], config.params, config.method, index,
            /*allowDegradation=*/true, nullptr, /*fallbackOnly=*/true);
        result.solutions[s] = std::move(outcome.solution);
        result.reports[s] = {std::move(outcome.status), outcome.degraded,
                             outcome.interrupted};
        repairedShapes.push_back(index);
      }
      if (!failing.empty()) {
        // Totals follow the repaired solutions; the refiner stage
        // counters describe the original attempts and stay as recorded.
        const RefinerStats savedStats = result.refinerStats;
        mergeBatchAggregates(result, {});
        result.refinerStats = savedStats;
        if (!writeShotsFile()) return 3;
        AuditReport reaudit = auditOnce();
        if (reaudit.clean()) {
          std::cerr << "selfcheck: repaired " << failing.size()
                    << " shape(s); audit now clean\n";
        } else {
          std::cerr << "selfcheck: still failing after repair:\n"
                    << reaudit.str();
          selfcheckFailed = true;
        }
      }
    }
  }

  if (report) {
    Table table({"shape", "rings", "shots", "fail px", "s", "status"});
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      const Solution& sol = result.solutions[i];
      const ShapeReport& rep = result.reports[i];
      std::string status = rep.degraded ? "degraded" : "ok";
      if (!rep.status.ok()) {
        status += " (" + std::string(toString(rep.status.code())) + ")";
      }
      table.addRow({std::to_string(i),
                    Table::fmt(std::int64_t(shapes[i].rings.size())),
                    Table::fmt(sol.shotCount()),
                    Table::fmt(sol.failingPixels()),
                    Table::fmt(sol.runtimeSeconds, 2), status});
    }
    table.print(std::cout);
    std::cout << "perf: " << summarize(result.refinerStats.perf) << "\n";
    if (result.degradedShapes > 0) {
      std::cout << "degraded shapes (" << result.degradedShapes << "):\n";
      for (std::size_t i = 0; i < result.reports.size(); ++i) {
        if (result.reports[i].degraded) {
          std::cout << "  shape " << i << ": "
                    << result.reports[i].status.str() << "\n";
        }
      }
    }
  }

  // Auxiliary outputs (--svg, --gds-out, --metrics-json, --trace-json):
  // each failure is diagnosed and the run exits 2 — a run must never
  // print success while silently dropping an artifact it was asked for.
  bool auxWriteFailed = false;

  // Every artifact this run writes is recorded (path, bytes, SHA-256) in
  // the manifest, which is therefore written LAST; --verify re-hashes
  // them all. The .shots entry uses the write-time hash — the digest of
  // the bytes handed to the atomic writer, not a re-read.
  std::vector<ArtifactEntry> artifacts;
  auto addArtifact = [&](const std::string& kind, const std::string& path,
                         const std::string& knownHex) {
    ArtifactEntry entry;
    entry.kind = kind;
    entry.path = path;
    struct stat st {};
    if (::stat(path.c_str(), &st) == 0) {
      entry.bytes = static_cast<std::int64_t>(st.st_size);
    }
    entry.sha256 = knownHex;
    if (entry.sha256.empty()) sha256File(path, entry.sha256);
    artifacts.push_back(std::move(entry));
  };
  addArtifact("shots", outputPath, shotsSha256);
  if (!journalPath.empty() && !counters.journalDowngraded) {
    addArtifact("journal", journalPath, "");
  }

  if (!svgPath.empty()) {
    Rect view;
    for (const LayoutShape& s : shapes) {
      view = view.unionWith(s.rings.front().bbox());
    }
    SvgWriter svg(view.inflated(20));
    for (const LayoutShape& s : shapes) {
      for (const Polygon& ring : s.rings) {
        svg.addPolygon(ring, "#cfe3f7", "#1b5ea6", 0.3, 0.8);
      }
    }
    for (const Solution& sol : result.solutions) {
      for (const Rect& shot : sol.shots) {
        svg.addRect(shot, "#2ca02c", "#145214", 0.2, 0.2);
      }
    }
    const Status st = svg.save(svgPath);
    if (!st.ok()) {
      std::cerr << "cannot write SVG " << svgPath << ": " << st.str() << "\n";
      auxWriteFailed = true;
    } else {
      addArtifact("svg", svgPath, "");
    }
  }

  if (!gdsOutPath.empty()) {
    GdsLibrary outLib;
    GdsStructure top;
    top.name = "SHOTS";
    for (const Solution& sol : result.solutions) {
      for (const Rect& shot : sol.shots) {
        GdsPolygon gp;
        gp.polygon = Polygon({{shot.x0, shot.y0},
                              {shot.x1, shot.y0},
                              {shot.x1, shot.y1},
                              {shot.x0, shot.y1}});
        gp.layer = 100;
        top.polygons.push_back(std::move(gp));
      }
    }
    outLib.structures = {std::move(top)};
    if (!saveGds(gdsOutPath, outLib)) {
      std::cerr << "cannot write GDSII " << gdsOutPath << "\n";
      auxWriteFailed = true;
    } else {
      addArtifact("gds", gdsOutPath, "");
    }
  }

  // The trace precedes the manifest so it can record its hash.
  if (!traceJsonPath.empty()) {
    const Status st =
        writeTraceJson(traceJsonPath, TraceRecorder::instance().snapshot());
    if (!st.ok()) {
      std::cerr << st.str() << "\n";
      auxWriteFailed = true;
    } else {
      addArtifact("trace", traceJsonPath, "");
    }
  }

  if (!metricsJsonPath.empty()) {
    std::vector<Rect> allShots;
    for (const Solution& sol : result.solutions) {
      allShots.insert(allShots.end(), sol.shots.begin(), sol.shots.end());
    }
    RunManifestInfo info;
    info.inputPath = inputPath;
    info.outputPath = outputPath;
    info.fingerprint = journalMetaFor(shapes, config);
    info.haveRecovery = haveCounters;
    info.isolatedShapes = run.isolatedShapes;
    info.artifacts = artifacts;
    info.interrupted = interrupted;
    info.repairedShapes = repairedShapes;
    info.ordered = orderForWriter;
    info.hier = hierInfo;
    const std::string manifest = buildRunManifest(
        info, config, result, counters, computeShotStats(allShots));
    std::string manifestHex;
    Status ms = atomicWriteFile(metricsJsonPath, manifest, &manifestHex);
    if (ms.ok()) ms = writeHashSidecar(metricsJsonPath, manifestHex);
    if (!ms.ok()) {
      std::cerr << "cannot write metrics JSON " << metricsJsonPath << ": "
                << ms.str() << "\n";
      auxWriteFailed = true;
    }
  }

  std::cout << "total: " << result.totalShots << " shots, "
            << result.totalFailingPixels << " failing px, "
            << result.degradedShapes << " degraded shape(s), "
            << (interrupted
                    ? std::to_string(result.interruptedShapes) +
                          " interrupted shape(s), "
                    : std::string{})
            << Table::fmt(result.wallSeconds, 2) << " s wall / "
            << Table::fmt(result.shapeSecondsSum, 2) << " s shape-sum ("
            << config.threads << " thread(s))\n";
  if (haveCounters) {
    std::cout << "recovery: " << counters.resumedShapes << " resumed, "
              << counters.freshShapes << " fresh"
              << (hierInfo.enabled
                      ? " (" + std::to_string(counters.resumedCells) +
                            " resumed / " +
                            std::to_string(counters.freshCells) +
                            " fresh cell(s))"
                      : std::string{})
              << (counters.tornTail ? " (torn tail truncated)" : "")
              << ", " << counters.retriedRanges << " retried range(s), "
              << counters.bisectedRanges << " bisected, "
              << counters.crashedWorkers << " crashed worker(s) ("
              << counters.hungWorkers << " hung), " << counters.crashedShapes
              << " crash-isolated shape(s)"
              << (counters.staleTempsRemoved > 0
                      ? ", " + std::to_string(counters.staleTempsRemoved) +
                            " stale temp(s) swept"
                      : std::string{})
              << (counters.journalDowngraded ? " [journal downgraded]"
                                             : "")
              << "\n";
  }

  // A missing requested artifact outranks the quality ladder: the run
  // did not deliver what it printed it would.
  if (auxWriteFailed) return 2;
  // An artifact that failed its own audit even after repair outranks
  // everything below: the output cannot be trusted.
  if (selfcheckFailed) return 6;
  // The journal artifact was dropped mid-batch (degrade-don't-die):
  // the shots are good, but an artifact the run was asked for is
  // missing — same rank as a failed auxiliary output.
  if (counters.journalDowngraded) return 2;
  // Graceful drain: the run is partial by design; the manifest says
  // "interrupted" and a --resume finishes it.
  if (interrupted) return 5;

  if (!config.allowDegradation) {
    // Strict mode: a shape that would have degraded is a failure.
    for (const ShapeReport& rep : result.reports) {
      if (!rep.status.ok()) {
        std::cerr << "strict: " << rep.status.str() << "\n";
        return 4;
      }
    }
    return result.totalFailingPixels == 0 ? 0 : 4;
  }
  // Crash-isolated shapes are more severe than an in-process
  // degradation: their primary result is unknowable, not just
  // infeasible. The partial-success code outranks plain degradation.
  if (haveCounters && counters.crashedShapes > 0) return 5;
  if (result.degradedShapes > 0) return 1;
  return result.totalFailingPixels == 0 ? 0 : 4;
}
