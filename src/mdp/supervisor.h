// Supervised multi-process fracturing (mbf_cli --isolate). The
// supervisor shards a plan's cell ranges (mdp/hierarchy; a flat
// layout's cells are its distinct shapes) across worker processes —
// each worker is a fork of the supervising process that fills its range
// of the inherited plan (SupervisorConfig::fill), journaling every
// completed cell to a per-range journal — and survives what no
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
// tracing) its span file, and leaves through _exit with 0 when clean, 3
// on a fatal or journal error and 5 when drained. Validating the records
// against the plan, hole-filling and instantiation belong to the plan
// executor (mdp/hierarchy: fracturePlan with a SupervisorConfig).
//
// Fork safety: mbf_cli's supervising process is single-threaded when it
// forks (the thread pool starts lazily and a supervising parent never
// fractures), and a worker runs its range serially, never starting the
// pool, so a child never inherits a lock some other thread held. A
// caller that ran a parallel batch before (bench/e2e's traced run)
// forks beside idle pool threads, which hold no lock a worker takes.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "mdp/checkpoint.h"
#include "support/status.h"
#include "support/telemetry.h"

namespace mbf {

struct SupervisorConfig {
  /// Unread: workers are forked, not exec'd. bench/e2e's traced run
  /// still assigns it, until the [benchmark] change of ROADMAP item 3
  /// deletes it.
  std::string cliPath;
  /// Input layout file of superviseFracture, which plans it.
  /// fracturePlan supervises the plan it is handed and ignores this.
  std::string inputPath;
  /// Scratch directory for per-range journals, their seals, worker logs
  /// and span files; created if missing.
  std::string workDir;
  /// Run in each forked worker: fill plan cells [begin, end), serially,
  /// resuming the range's journal at `journalPath` (so a retried range
  /// skips its journaled prefix), fallback-only when `fallbackOnly` (a
  /// crash-isolated cell). A serial fill leaves every cell before a
  /// crashing one journaled, which the requeue logic depends on. A
  /// non-ok Status is the worker's exit 3. fracturePlan sets it.
  std::function<Status(int begin, int end, bool fallbackOnly,
                       const std::string& journalPath)>
      fill;

  /// Plan cells the ranges index (a flat layout's distinct shapes).
  int numShapes = 0;
  int jobs = 2;            ///< concurrent worker processes
  double workerTimeoutMs = 0.0;  ///< watchdog; 0 = no timeout
  int maxRetries = 2;      ///< relaunches of one range before bisection
  /// First retry delay; each retry doubles it, up to 2 s.
  double backoffBaseMs = 50.0;
  bool verbose = false;    ///< supervisor event log on stderr
  /// Have every worker dump the trace spans it records into a per-range
  /// span file and merge them into SupervisorResult::workerSpans, so
  /// --trace-json on a supervised run shows one timeline across all
  /// worker processes. Lifecycle events (spawn/retry/bisect/isolate/
  /// watchdog kills) are recorded by the supervisor itself.
  bool collectTraceSpans = false;
  /// The [begin, end) cell ranges to supervise, chunked across workers:
  /// the missing cells of the run (a resumed run's parent journal holds
  /// the others).
  std::vector<std::pair<int, int>> initialRanges;
};

struct SupervisorResult {
  /// Supervisor-level fatal error (fork failed, a worker exited 3 on a
  /// fatal or journal error other than ENOSPC, scratch dir unwritable).
  /// Per-cell failures never land here — they become degraded records.
  Status status;
  /// Harvested cell records (cell-local shots) keyed by plan cell index.
  /// Holes (crashed-even-in-fallback cells, drained or aborted ranges)
  /// are the caller's to fill — it owns the plan and instantiation.
  std::map<int, CellRecord> cellRecords;
  /// superviseFracture only (mdp/hierarchy): one record per layout
  /// shape of a flat input, keyed by layout index, shots in layout
  /// coordinates; cellRecords stays empty there.
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

}  // namespace mbf
