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
//   --threads=<n>                threads: n shapes fractured at once,
//                                and with fewer distinct shapes than n,
//                                each shape's scans split over the rest;
//                                0 = all cores (default 1)
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
//                                recovery counters, the per-shape
//                                outcomes once per plan cell with its
//                                instance count, shot-quality stats and
//                                the plan fingerprint
//   --trace-json=<path>          record trace spans (the run's layers:
//                                io.parse, io.plan, driver,
//                                io.shots_write, analysis.shot_stats,
//                                manifest.build, manifest.write; the
//                                fracture stages, parallelFor chunks,
//                                journal writes, worker lifecycles) and
//                                write a chrome://tracing / Perfetto
//                                JSON timeline, last of all artifacts;
//                                under --isolate each worker streams
//                                its spans to the parent, which merges
//                                them in
//
// Every run plans its input (a flat layout is a one-level plan with one
// anchored cell per distinct shape; --hier plans the GDS hierarchy),
// executes the plan in process or supervised, and instantiates it. A
// shape shared by several cells is fractured once per batch and copied,
// translated, into the others. The run itself is mdp/run's runLayout;
// this file parses the flags into its RunConfig.
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
//   --retries=<n>                retries of a distinct shape a worker
//                                died in before it is crash-isolated
//                                (default 2)
//   --backoff-ms=<ms>            base of the capped exponential retry
//                                backoff (default 50)
//
// Fault injection (deterministic, for the crash drills):
//   --inject=<kind>@<i>[,...]    arm <kind> (throw|oom|timeout|crash|
//                                hang) on plan-shape ordinal i (cells in
//                                plan order, shapes in cell order; a
//                                flat layout counts distinct shapes in
//                                first-occurrence order)
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
//                                a finished run's manifest lists, expand
//                                its per-cell claims over the re-derived
//                                plan and re-check every instance's
//                                shape with the independent dense
//                                checker; exit 0 clean, 6 on any
//                                discrepancy
//   --selfcheck                  audit the .shots bytes in-process right
//                                after writing them; shapes that fail
//                                are re-fractured once through the
//                                fallback ladder and tagged "repaired"
//                                in the manifest (exit 6 if one still
//                                fails). The .shots output is
//                                byte-identical with or without this
//                                flag.
// All artifacts are written atomically (temp + fsync + rename) and the
// manifest records the SHA-256 of each one written before it; the
// manifest itself gets a `.sha256` sidecar, and the trace, written after
// it so that it times the manifest too, is not listed. SIGTERM/SIGINT
// drain gracefully: started shapes finish and are journaled, the
// manifest is stamped "interrupted", and the run exits 5.
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
//      crashed their worker and were crash-isolated (retried, then
//      degraded via the fallback ladder) — or the run was interrupted
//      (SIGTERM/SIGINT) and drained gracefully
//   6  integrity failure: --verify found a hash/claim discrepancy, or a
//      --selfcheck shape still failed its audit after repair
#include <iostream>
#include <string>

#include "audit/verify_run.h"
#include "mdp/run.h"
#include "support/fault_injector.h"
#include "support/interrupt.h"

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
               "[--top-cell=name] [--inject=kind@i,...]\n"
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

}  // namespace

int main(int argc, char** argv) {
  using namespace mbf;

  if (argc >= 2 && (std::string(argv[1]) == "--verify" ||
                    std::string(argv[1]).rfind("--verify=", 0) == 0)) {
    return runVerifyMode(argc, argv);
  }

  if (argc < 3) return usage();
  RunConfig run;
  run.inputPath = argv[1];
  run.outputPath = argv[2];
  BatchConfig& config = run.batch;
  HierOptions& options = run.options;
  SupervisorConfig& sup = run.supervisor;
  // Deterministic fault injection (lives as long as the run does).
  FaultInjector injector;

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
      run.order = true;
    } else if (key == "--selfcheck") {
      run.selfcheck = true;
    } else if (key == "--hier") {
      run.hier = true;
    } else if (key == "--cell-cache") {
      options.cellCacheDir = value;
      if (value.empty()) error = "must be a directory path";
    } else if (key == "--cell-cache-quota-mb") {
      int mb = 0;
      if (!parseInt(value, mb) || mb < 1) {
        error = "must be an integer >= 1 (megabytes)";
      }
      options.cellCacheQuotaBytes = static_cast<std::int64_t>(mb) << 20;
    } else if (key == "--top-cell") {
      options.topStruct = value;
      if (value.empty()) error = "must be a structure name";
    } else if (key == "--gds-out") {
      run.gdsOutPath = value;
      if (value.empty()) error = "must be a path";
    } else if (key == "--threads") {
      // 0 = hardware concurrency: the run's threads. The plan executor
      // runs that many distinct shapes at once and splits a shape's scans
      // only over the threads left when fewer shapes than threads need
      // fracturing; params.numThreads stays 1.
      if (!parseInt(value, config.threads) || config.threads < 0) {
        error = "must be an integer >= 0 (0 = all cores)";
      }
    } else if (key == "--svg") {
      run.svgPath = value;
      if (value.empty()) error = "must be a path";
    } else if (key == "--report") {
      run.report = true;
    } else if (key == "--metrics-json") {
      run.metricsJsonPath = value;
      if (value.empty()) error = "must be a path";
    } else if (key == "--trace-json") {
      run.traceJsonPath = value;
      if (value.empty()) error = "must be a path";
    } else if (key == "--journal") {
      options.journalPath = value;
      if (value.empty()) error = "must be a path";
    } else if (key == "--resume") {
      options.resume = true;
    } else if (key == "--fsync") {
      if (value == "none") {
        options.fsync = JournalFsync::kNone;
      } else if (value == "each") {
        options.fsync = JournalFsync::kEachRecord;
      } else {
        error = "must be none or each";
      }
    } else if (key == "--isolate") {
      run.isolate = true;
    } else if (key == "--jobs") {
      if (!parseInt(value, sup.jobs) || sup.jobs < 1) {
        error = "must be an integer >= 1";
      }
    } else if (key == "--worker-timeout-ms") {
      if (!parseDouble(value, sup.workerTimeoutMs) ||
          sup.workerTimeoutMs < 0.0) {
        error = "must be a number >= 0 (milliseconds, 0 = no watchdog)";
      }
    } else if (key == "--retries") {
      if (!parseInt(value, sup.maxRetries) || sup.maxRetries < 0) {
        error = "must be an integer >= 0";
      }
    } else if (key == "--backoff-ms") {
      if (!parseDouble(value, sup.backoffBaseMs) || sup.backoffBaseMs < 0.0) {
        error = "must be a number >= 0 (milliseconds)";
      }
    } else if (key == "--inject") {
      std::string rest = value;
      while (!rest.empty() && error.empty()) {
        const std::size_t comma = rest.find(',');
        const std::string spec = rest.substr(0, comma);
        rest = comma == std::string::npos ? std::string{}
                                          : rest.substr(comma + 1);
        const std::size_t sep = spec.find('@');
        FaultKind kind = FaultKind::kNone;
        int at = -1;
        if (sep == std::string::npos ||
            !parseFaultKind(spec.substr(0, sep), kind) ||
            !parseInt(spec.substr(sep + 1), at) || at < 0) {
          error = "must be kind@index[,kind@index...] with kind in "
                  "throw|oom|timeout|crash|hang";
        } else {
          injector.armShape(at, kind);
          config.params.faultInjector = &injector;
        }
      }
      if (value.empty()) error = "must be kind@index[,kind@index...]";
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
  if (options.resume && options.journalPath.empty()) {
    std::cerr << "--resume requires --journal=<path>\n";
    return usage();
  }
  const bool gdsInput = run.inputPath.size() > 4 &&
                        run.inputPath.substr(run.inputPath.size() - 4) ==
                            ".gds";
  if (run.hier && !gdsInput) {
    std::cerr << "--hier requires a .gds input (hierarchy lives in the "
                 "GDS structure tree)\n";
    return usage();
  }
  if (options.cellCacheQuotaBytes > 0 && options.cellCacheDir.empty()) {
    std::cerr << "--cell-cache-quota-mb requires --cell-cache=<dir>\n";
    return usage();
  }
  if (!gdsInput && !options.topStruct.empty()) {
    std::cerr << "--top-cell requires a .gds input\n";
    return usage();
  }

  // Graceful drain: SIGTERM/SIGINT set a flag that fractureShapeGuarded
  // checks on entry, so started shapes finish (and are journaled) while
  // unstarted ones stay untouched for a later --resume; the supervisor
  // additionally forwards the signal to its workers, which inherit these
  // handlers and stream what they finished. The run then exits 5 with
  // the manifest stamped "interrupted".
  installInterruptHandlers();
  return runLayout(run);
}
