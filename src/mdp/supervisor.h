// Supervised multi-process fracturing (mbf_cli --isolate). The
// supervisor shards a plan's cell ranges (mdp/hierarchy; a flat
// layout's cells are its distinct shapes) across worker subprocesses —
// each worker is mbf_cli re-exec'd in a hidden worker mode, journaling
// every completed cell to a per-range journal — and survives what no
// in-process ladder can: segfaults, OOM-kills and hard hangs of the
// fracture engine itself.
//
// State machine per range task:
//
//   queued -> running -> completed          (worker exit 0, range
//                                            fully journaled)
//                     -> progressed         (worker died mid-range; the
//                                            journaled prefix is kept and
//                                            the remainder is requeued)
//                     -> retried            (no progress; relaunch after
//                                            capped exponential backoff)
//                     -> bisected           (retries exhausted on a
//                                            multi-cell range: split in
//                                            half, recurse)
//                     -> isolated           (retries exhausted on a
//                                            single cell: the culprit is
//                                            re-fractured fallback-only,
//                                            degrading one cell instead
//                                            of poisoning the batch)
//
// A wall-clock watchdog SIGKILLs workers that exceed workerTimeoutMs
// (hard hangs never reach a cooperative checkpoint). Because workers
// journal as they go, every retry resumes instead of recomputing, and
// the cell records the supervisor harvests are bitwise identical to
// what a single-process run would have produced. A worker ends at its
// journal: it writes only that journal, its seal, its log and (when
// tracing) its span file, and exits 0 when clean, 3 on a fatal or
// journal error and 5 when drained. Validating the records against the
// plan, hole-filling and instantiation belong to the plan executor
// (mdp/hierarchy: fracturePlan with a SupervisorConfig).
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "mdp/checkpoint.h"
#include "support/status.h"
#include "support/telemetry.h"

namespace mbf {

struct SupervisorConfig {
  /// The mbf_cli binary to re-exec as workers (see selfExePath()).
  std::string cliPath;
  /// Input layout file; workers re-read and re-plan it, so plan cell
  /// indices agree across every process by construction.
  std::string inputPath;
  /// Scratch directory for per-range journals, their seals, worker logs
  /// and span files; created if missing.
  std::string workDir;
  /// The workers' run flags, assembled by the caller (mbf_cli: the
  /// result-relevant flags verbatim, --gamma=..., --cell-cache=...,
  /// --inject=... and friends, plus --lth-bits and the resolved
  /// --top-cell). The supervisor adds the worker-mode plumbing itself.
  std::vector<std::string> workerArgs;

  /// Plan cells to supervise (a flat layout's distinct shapes).
  int numShapes = 0;
  int jobs = 2;            ///< concurrent worker processes
  double workerTimeoutMs = 0.0;  ///< watchdog; 0 = no timeout
  int maxRetries = 2;      ///< relaunches of one range before bisection
  /// First retry delay; each retry doubles it, up to 2 s.
  double backoffBaseMs = 50.0;
  bool verbose = false;    ///< supervisor event log on stderr
  /// Ask every worker to record trace spans into a per-range span file
  /// (--trace-raw) and merge them into SupervisorResult::workerSpans, so
  /// --trace-json on a supervised run shows one timeline across all
  /// worker processes. Lifecycle events (spawn/retry/bisect/isolate/
  /// watchdog kills) are recorded by the supervisor itself.
  bool collectTraceSpans = false;
  /// Restrict the supervised work to these [begin, end) cell ranges
  /// (still chunked across workers). Empty = the whole [0, numShapes).
  /// A resumed run passes only the cell ranges its parent journal is
  /// missing.
  std::vector<std::pair<int, int>> initialRanges;
};

struct SupervisorResult {
  /// Supervisor-level fatal error (worker binary unrunnable, worker
  /// rejected its arguments, scratch dir unwritable). Per-cell
  /// failures never land here — they become degraded records.
  Status status;
  /// Harvested cell records (cell-local shots) keyed by plan cell index.
  /// Holes (crashed-even-in-fallback cells, drained or aborted ranges)
  /// are the caller's to fill — it owns the plan and instantiation.
  std::map<int, CellRecord> cellRecords;
  /// superviseFracture only (mdp/hierarchy): one record per layout
  /// shape of a flat input, keyed by layout index, shots in layout
  /// coordinates.
  std::map<int, ShapeRecord> records;
  RunCounters counters;
  /// Plan indices of crash-isolated culprit cells.
  std::vector<int> isolatedShapes;
  /// A SIGTERM/SIGINT graceful drain cut the run short: queued ranges
  /// were dropped, live workers were asked to drain, and the caller
  /// reports every cell no worker journaled as interrupted.
  bool interrupted = false;
  /// Spans harvested from worker span files (collectTraceSpans only).
  /// Each keeps its recording worker's pid; a worker that died before
  /// writing its file simply contributes nothing.
  std::vector<TraceSpan> workerSpans;
  /// Non-empty when the run was ABORTED rather than retried to
  /// completion: a worker hit a condition every future worker would hit
  /// identically (today: ENOSPC on the shared filer). No new workers
  /// were spawned, running ones were terminated, and the caller gives
  /// every unjournaled cell a degraded record naming this cause. It
  /// reports the partial result (exit 5) with this string in the
  /// manifest instead of burning the retry/bisect ladder against a full
  /// disk.
  std::string abortCause;
};

/// Supervises the plan cell ranges and harvests the workers' CellRecords.
SupervisorResult superviseCells(const SupervisorConfig& config);

/// Absolute path of the running executable (/proc/self/exe), falling
/// back to `argv0` when the proc link is unreadable.
std::string selfExePath(const char* argv0);

}  // namespace mbf
