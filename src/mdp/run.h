// One mask-data-prep run, the sequence `mbf_cli` runs once it has parsed
// its flags (DESIGN.md sections 14-16): plan the input, fracture the
// plan in process or supervised, write the `.shots`, audit it when asked
// (--selfcheck, through the --verify audit path), write the auxiliary
// artifacts and the manifest, and print the run's accounting.
#pragma once

#include <string>

#include "mdp/hierarchy.h"
#include "mdp/layout.h"
#include "mdp/supervisor.h"

namespace mbf {

/// A run as mbf_cli's flags describe it.
struct RunConfig {
  std::string inputPath;
  std::string outputPath;
  /// --method, the model flags, --budget-ms, --nmax, --threads, --strict
  /// and the --inject fault injector.
  BatchConfig batch;
  /// --journal, --resume, --fsync, --cell-cache, --cell-cache-quota-mb
  /// and --top-cell.
  HierOptions options;
  bool hier = false;     ///< --hier
  bool isolate = false;  ///< --isolate
  /// --jobs, --worker-timeout-ms, --retries and --backoff-ms; the run
  /// sets the work dir (`<output>.workers`) and `verbose` (--report).
  SupervisorConfig supervisor;
  bool order = false;      ///< --order
  bool selfcheck = false;  ///< --selfcheck
  bool report = false;     ///< --report
  std::string svgPath;
  std::string gdsOutPath;
  std::string metricsJsonPath;
  std::string traceJsonPath;
};

/// Runs `config` and returns mbf_cli's exit code (its header lists
/// them). Diagnostics go to stderr, the report and totals to stdout, and
/// spans to the TraceRecorder. The caller installs the interrupt
/// handlers that let SIGTERM/SIGINT drain the run.
int runLayout(const RunConfig& config);

}  // namespace mbf
