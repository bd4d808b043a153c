// Lightweight perf-counter registry for the refinement hot path: counts
// and accumulated nanoseconds for the operations the incremental-
// evaluation work cares about (1D profile evaluations, violation-ledger
// row updates, fresh violation scans, candidate cost evaluations).
//
// Counters are plain (non-atomic) integers owned by one evaluation
// context — each Verifier carries its own PerfCounters and wires it into
// its IntensityMap — so the hot path pays one add, never a contended
// cache line. Aggregation across shapes happens after the parallel join,
// through operator+= (same pattern as RefinerStats). Code that runs
// *inside* a parallelFor must not touch a shared sink; the bulk setShots
// path therefore accumulates its profile work once, after the join.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

namespace mbf {

struct PerfCounters {
  // --- counts ---
  /// 1D edge-profile evaluations, two per profile entry (one read of the
  /// model's half-integer table each); the unit of work the
  /// candidate-evaluation cache exists to avoid.
  std::uint64_t profileEvals = 0;
  /// Violation-ledger row partials recomputed (one per dirty grid row).
  std::uint64_t ledgerRowUpdates = 0;
  /// Ledger fold-downs: row partials folded into a fresh cached total.
  std::uint64_t ledgerFolds = 0;
  /// Fresh full-grid violation scans (Verifier::scanViolations); with the
  /// ledger in place these should only come from debug checks and tests.
  std::uint64_t fullScans = 0;
  /// Fresh windowed violation scans (Verifier::violationsInWindow).
  std::uint64_t windowScans = 0;
  /// costDeltaForReplace calls (cached and uncached overloads).
  std::uint64_t candidateEvals = 0;
  /// Candidate evaluations that reused a primed CandidateEvalCache (the
  /// hoisted old-shot profiles were not recomputed).
  std::uint64_t candidateCacheHits = 0;

  // --- accumulated wall time, nanoseconds ---
  std::uint64_t profileNanos = 0;    ///< spent computing 1D profiles
  std::uint64_t ledgerNanos = 0;     ///< spent refreshing ledger rows
  std::uint64_t scanNanos = 0;       ///< spent in fresh violation scans
  std::uint64_t candidateNanos = 0;  ///< spent in costDeltaForReplace

  PerfCounters& operator+=(const PerfCounters& o) {
    profileEvals += o.profileEvals;
    ledgerRowUpdates += o.ledgerRowUpdates;
    ledgerFolds += o.ledgerFolds;
    fullScans += o.fullScans;
    windowScans += o.windowScans;
    candidateEvals += o.candidateEvals;
    candidateCacheHits += o.candidateCacheHits;
    profileNanos += o.profileNanos;
    ledgerNanos += o.ledgerNanos;
    scanNanos += o.scanNanos;
    candidateNanos += o.candidateNanos;
    return *this;
  }
};

/// One-line human-readable summary ("candidate evals 1234 (56% cached,
/// 7.8M/s) ..."), for mbf_cli --report and the bench narrators.
std::string summarize(const PerfCounters& c);

/// Compact count for one-line summaries: "1234" below 10k, "56.7k"
/// below 10M, "8.90M" below 10G, "18.4G" beyond.
std::string perfCompact(std::uint64_t n);

/// "<compact>/s" from a count and accumulated nanoseconds; "n/a" when no
/// time was recorded (rates from a zero denominator would be noise).
std::string perfRate(std::uint64_t count, std::uint64_t nanos);

/// RAII nanosecond accumulator into one PerfCounters field. A null sink
/// skips the clock reads entirely, so instrumented code paths cost one
/// branch when counting is off.
class PerfTimer {
 public:
  PerfTimer(PerfCounters* sink, std::uint64_t PerfCounters::*field)
      : sink_(sink), field_(field) {
    if (sink_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~PerfTimer() {
    if (sink_ != nullptr) {
      sink_->*field_ += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start_)
              .count());
    }
  }
  PerfTimer(const PerfTimer&) = delete;
  PerfTimer& operator=(const PerfTimer&) = delete;

 private:
  PerfCounters* sink_;
  std::uint64_t PerfCounters::*field_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace mbf
