// Supervised multi-process fracturing (mbf_cli --isolate). The
// supervisor runs the UNITS of a fill — for the plan executor
// (mdp/hierarchy: fracturePlan with a SupervisorConfig), the distinct
// shapes it has to fracture — in worker processes forked from the
// supervising process, and survives what no in-process ladder can:
// segfaults, OOM-kills and hard hangs of the fracture engine itself.
// A worker runs a range of units serially (SupervisorConfig::fill) and
// streams each outcome to the parent over a pipe; the parent hands it to
// SupervisorConfig::deliver the moment its frame arrives, so the parent
// alone journals, caches and writes.
//
// State machine per range task:
//
//   queued -> running -> completed          (every unit delivered)
//                     -> retried            (the worker died: the range
//                                            is requeued from its first
//                                            undelivered unit, the one
//                                            the worker died in, after
//                                            capped exponential backoff)
//                     -> isolated           (that unit was the first
//                                            undelivered one in
//                                            maxRetries + 1 abnormal
//                                            exits: it is re-run
//                                            fallback-only, degrading
//                                            one distinct shape instead
//                                            of poisoning the batch, and
//                                            the rest of the range is
//                                            requeued)
//
// A wall-clock watchdog SIGKILLs workers that exceed workerTimeoutMs
// (hard hangs never reach a cooperative checkpoint). Progress is frames
// received: a unit is delivered as its frame arrives, so a retry starts
// at the first undelivered unit instead of recomputing.
//
// The stream: frames use the journal's `u32 len | u32 crc32 | payload`
// framing (support/journal: appendFrame, readFrame), and a payload opens
// with a tag byte. A worker writes one unit frame per outcome, in range
// order, and — when tracing — its spans as its last frame (support/
// telemetry: encodeTraceSpans). It writes with raw write(2), since a
// pipe is not a persistent artifact; its only other output is its log
// in workDir, and it leaves through _exit. The parent polls every live
// pipe, drops a pipe at EOF and reads it to EOF before it reaps and
// classifies the worker; a torn or undecodable frame ends that worker's
// stream (the worker is killed and the ladder treats it as a crash). A
// child closes the inherited read ends of the other workers' pipes, so
// when the parent dies every worker gets EPIPE at its next frame and
// exits.
//
// Fork safety: mbf_cli's supervising process is single-threaded when it
// forks (the thread pool starts lazily, and a supervising parent only
// journals and caches what its workers deliver), and a worker runs its
// units serially, never starting the pool, so a child never inherits a
// lock some other thread held. A caller that ran a parallel batch
// before (bench/e2e's traced run) forks beside idle pool threads, which
// hold no lock a worker takes.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <string_view>
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
  /// Directory of the worker logs (one per range); created if missing.
  std::string workDir;
  /// Run in a forked worker for each unit of its range, serially: the
  /// unit's outcome bytes, fallback-only when `fallbackOnly` (a
  /// crash-isolated unit). An empty result means a graceful drain left
  /// the unit unstarted, and the worker ends its range there. Set by
  /// fracturePlan.
  std::function<std::string(int unit, bool fallbackOnly)> fill;
  /// Run in the supervising process, single-threaded, as each unit's
  /// outcome arrives (in completion order across workers). False means
  /// the bytes do not decode: the worker's stream ends there. Set by
  /// fracturePlan.
  std::function<bool(int unit, std::string_view outcome)> deliver;

  /// Units to supervise: [0, numShapes). fracturePlan sets it to its
  /// distinct-shape count.
  int numShapes = 0;
  int jobs = 2;            ///< concurrent worker processes
  double workerTimeoutMs = 0.0;  ///< watchdog; 0 = no timeout
  int maxRetries = 2;      ///< retries of a unit its worker died in
                           ///< before the unit is isolated
  /// First retry delay; each retry doubles it, up to 2 s.
  double backoffBaseMs = 50.0;
  bool verbose = false;    ///< supervisor event log on stderr
};

struct SupervisorResult {
  /// Supervisor-level fatal error (a pipe or fork failed, the work dir
  /// is unwritable). Per-unit failures never land here — they become
  /// degraded outcomes.
  Status status;
  /// superviseFracture only (mdp/hierarchy): one record per layout
  /// shape of a flat input, keyed by layout index, shots in layout
  /// coordinates.
  std::map<int, ShapeRecord> records;
  RunCounters counters;
  /// Crash-isolated units, sorted: unit indices from superviseCells,
  /// plan-shape ordinals from superviseFracture.
  std::vector<int> isolatedShapes;
  /// A SIGTERM/SIGINT graceful drain cut the run short: queued ranges
  /// were dropped, live workers were asked to drain, and the caller
  /// reports every unit never delivered as interrupted.
  bool interrupted = false;
  /// Always empty: a supervised run no longer aborts (a full filer now
  /// reaches only the parent, which degrades). Kept while bench/e2e's
  /// traced run still reads it.
  std::string abortCause;
};

/// Supervises units [0, config.numShapes): shards them across forked
/// workers running config.fill and hands every outcome to
/// config.deliver.
SupervisorResult superviseCells(const SupervisorConfig& config);

}  // namespace mbf
