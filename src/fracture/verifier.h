// Dose verification against the Eq. 4 constraints. Owns the accumulated
// intensity map for a shot set and answers, globally or over a window:
// how many Pon / Poff pixels fail, and what is the refinement cost
// (Eq. 5, sum of |Itot - rho| over failing pixels).
//
// The global answer is served from a violation ledger: one Violations
// partial per grid row. Mutations only mark the rows their influence
// window touches dirty; the first query after any burst of mutations
// refreshes the dirty band once (so a bias pass over every shot costs
// one refresh, not one per shot) and folds the partials in row order
// into a cached total. Each row partial is recomputed by the same
// per-row scan a fresh full-grid scan uses, and fresh scans (serial or
// row-parallel) fold the identical row partials in the identical order —
// so violations() is bit-for-bit equal to scanViolations() at every
// thread count, while costing at most one dirty-band refresh per query
// instead of O(grid) per query (see DESIGN.md section 13).
//
// The same refresh pass maintains per-row "interesting band" bitmasks:
// a bit per cell whose intensity lies within the model's max +-1 nm
// step of rho. Any cell outside the band provably cannot change the
// cost delta of a +-1 single-edge shot move (the profile is monotone
// and the unmoved-axis factor is <= 1), so the cached candidate
// evaluator walks only masked cells — bit-identical to the full window
// walk because skipped cells never touch the accumulator at all. A
// dirty row is visited once for both: classifyRow produces its partial
// and its band bits in one pass, 16 cells at a time on x86-64.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ebeam/intensity_map.h"
#include "fracture/problem.h"
#include "fracture/solution.h"
#include "geometry/rect.h"
#include "support/perf_counters.h"

namespace mbf {

struct Violations {
  std::int64_t failOn = 0;
  std::int64_t failOff = 0;
  double cost = 0.0;

  std::int64_t total() const { return failOn + failOff; }

  Violations& operator+=(const Violations& o) {
    failOn += o.failOn;
    failOff += o.failOff;
    cost += o.cost;
    return *this;
  }
  Violations operator-(const Violations& o) const {
    return {failOn - o.failOn, failOff - o.failOff, cost - o.cost};
  }
  /// Bitwise equality (the determinism contract compares costs with ==,
  /// not a tolerance).
  friend bool operator==(const Violations& a, const Violations& b) {
    return a.failOn == b.failOn && a.failOff == b.failOff &&
           a.cost == b.cost;
  }
};

/// Thresholds of the one-pass row classification: rho for the ledger
/// partial, bandLo / bandHi for the interesting-band bits. The band
/// contains rho: bandLo <= rho <= bandHi.
struct RowThresholds {
  double rho = 0.5;
  double bandLo = 0.5;  ///< off-cells at or above are interesting
  double bandHi = 0.5;  ///< on-cells below are interesting
};

/// One grid row's ledger partial and interesting-band bits in a single
/// pass over cells [0, width): overwrites the (width + 63) / 64 words of
/// `mask` (bit x set when cell x is interesting) and returns the row's
/// Violations, whose cost adds the failing cells' terms in x order — so
/// it is bitwise equal to a plain left-to-right row scan. Classifies 16
/// cells per step with SSE2 compares where available (part of the
/// x86-64 baseline) and runs the scalar step only on the band cells,
/// which include every failing cell; elsewhere it is classifyRowScalar.
Violations classifyRow(const std::uint8_t* cls, const double* inten,
                       int width, const RowThresholds& t,
                       std::uint64_t* mask);
/// The portable cell-at-a-time classifier: classifyRow's fallback and
/// its test oracle (same partial and same bits, bit for bit).
Violations classifyRowScalar(const std::uint8_t* cls, const double* inten,
                             int width, const RowThresholds& t,
                             std::uint64_t* mask);

/// Per-shot scratch for the refiner's candidate evaluations. The greedy
/// edge adjustment asks costDeltaForReplace about up to eight +-1 nm
/// single-edge variants of the same shot; the old-shot 1D profiles are
/// invariant across that whole candidate set, and the unmoved axis of
/// each candidate equals the old shot's profile. The cache hoists the
/// old-shot profiles once, over the influence window of the shot
/// inflated by the +-1 move margin, and each evaluation then recomputes
/// only the moved-edge axis over the thin change strip.
///
/// Lifetime rules: a cache primes lazily on first use for a (verifier,
/// shot index) pair and self-invalidates when the verifier mutates (every
/// mutation bumps the verifier's generation counter) or when asked about
/// a different shot index — stale reuse is impossible, not just an error.
/// A candidate whose change window escapes the hoisted margin (a move
/// larger than +-1 per edge) silently falls back to the uncached path.
class CandidateEvalCache {
 public:
  CandidateEvalCache() = default;

  /// Manual reset; normally unnecessary (generation checks handle it).
  void invalidate() { primed_ = false; }

 private:
  friend class Verifier;

  bool primed_ = false;
  std::uint64_t generation_ = 0;  ///< verifier generation at prime time
  std::size_t shotIndex_ = 0;
  Rect window_;  ///< hoisted grid window: influenceWindow(shot.inflated(1))
  std::vector<double> axOld_;  ///< old-shot x profile over window_ columns
  std::vector<double> byOld_;  ///< old-shot y profile over window_ rows
  // Scratch for the per-candidate moved-axis (or fallback) profiles;
  // kept here so the hot loop never reallocates.
  std::vector<double> axNew_;
  std::vector<double> byNew_;
  std::vector<double> axOldScratch_;
  std::vector<double> byOldScratch_;
};

class Verifier {
 public:
  explicit Verifier(const Problem& problem);

  const Problem& problem() const { return *problem_; }
  const IntensityMap& intensity() const { return map_; }

  /// Replaces the tracked shot set.
  void setShots(std::span<const Rect> shots);
  void addShot(const Rect& shot);
  void removeShot(std::size_t index);
  /// Replaces shot `index` with `replacement`, updating intensity
  /// incrementally (the refiner's edge moves go through here).
  void replaceShot(std::size_t index, const Rect& replacement);

  const std::vector<Rect>& shots() const { return shots_; }

  /// Global violations from the ledger. The first query after a burst of
  /// mutations refreshes the dirty row band once and folds the partials;
  /// subsequent queries are O(1). Bit-for-bit equal to scanViolations()
  /// at every thread count.
  Violations violations() const;

  /// Fresh full-grid scan, bypassing the ledger. The debug consistency
  /// oracle and the bench baseline; not for the hot path.
  Violations scanViolations() const;

  /// True when the ledger total equals a fresh scan bit for bit and the
  /// maintained band bits equal a fresh classification of every row
  /// (debug consistency check; always true unless there is a bug).
  bool ledgerMatchesScan() const;

  /// Violation scan restricted to a grid-local window (cells
  /// [x0, x1) x [y0, y1), already clamped by the caller). Row-chunked
  /// across FractureParams::numThreads workers when the window is large
  /// enough; per-row partials fold in row order, so the result is
  /// byte-identical for every thread count.
  Violations violationsInWindow(const Rect& gridWindow) const;

  /// Cost change if shot `index` were replaced by `replacement`, without
  /// mutating anything. Evaluated over the union influence window with
  /// separable 1D profiles (the "three convolutions" of paper 4.1).
  double costDeltaForReplace(std::size_t index, const Rect& replacement) const;

  /// Cached variant for a shot's candidate set: identical result bit for
  /// bit, but the old-shot profiles come from `cache` (primed on first
  /// use, reused across the shot's candidates) and only the moved-edge
  /// axis is recomputed per candidate.
  double costDeltaForReplace(std::size_t index, const Rect& replacement,
                             CandidateEvalCache& cache) const;

  /// Grid-local failing-pixel mask restricted to Pon (for AddShot).
  MaskGrid failingOnMask() const;

  /// Failing Poff pixels within `radius` nm of `shot` (for RemoveShot).
  std::int64_t failingOffNear(const Rect& shot, double radius) const;

  /// Fills the statistics fields of `solution` from the current state.
  void writeStats(Solution& solution) const;

  /// Hot-path counters accumulated by this verifier (and its intensity
  /// map) since construction.
  const PerfCounters& perfCounters() const { return perf_; }

 private:
  /// Violations of one grid row over cells [x0, x1).
  Violations violationsRow(int y, int x0, int x1) const;

  /// Recomputes the ledger partials and interesting-band masks of rows
  /// [y0, y1) from the intensity map (one classifyRow pass per row) and
  /// marks the cached total stale.
  void refreshLedgerRows(int y0, int y1) const;
  /// Marks the grid rows influenced by a world-space shot dirty.
  void markDirtyFor(const Rect& shot);
  /// Refreshes the dirty row band: ledger partials and band bits
  /// (violations() and the cached candidate evaluation both start here).
  void ensureLedgerFresh() const;
  /// Row y's interesting-band mask words.
  std::uint64_t* maskRow(int y) const {
    return rowMask_.data() +
           static_cast<std::size_t>(y) * static_cast<std::size_t>(maskStride_);
  }

  /// Old/new-shot 1D profiles; shared by every cost-delta path so cached
  /// and uncached evaluations round identically.
  void xProfile(const Rect& shot, int x0, int x1, double* out) const;
  void yProfile(const Rect& shot, int y0, int y1, double* out) const;
  /// The shared inner loop: cost delta over window `w`, with the four
  /// profile slices indexed [0, w.width) / [0, w.height).
  double deltaOverWindow(const Rect& w, const double* axOld,
                         const double* axNew, const double* byOld,
                         const double* byNew) const;
  /// Same contract as deltaOverWindow, but walks only the cells set in
  /// the interesting-band masks. Valid ONLY for replacements that move a
  /// single edge by +-1 nm (the masks' skip bound) and only after
  /// ensureLedgerFresh(); bit-identical to the full walk because every
  /// skipped cell fires none of the accumulator branches.
  double deltaOverWindowMasked(const Rect& w, const double* axOld,
                               const double* axNew, const double* byOld,
                               const double* byNew) const;
  /// Change window of a replacement, narrowed to the moved-edge strip
  /// when exactly one edge moved.
  static Rect changedRect(const Rect& oldShot, const Rect& replacement);

  const Problem* problem_;
  IntensityMap map_;
  std::vector<Rect> shots_;

  // --- violation ledger (lazily refreshed; see ensureLedgerFresh) ---
  mutable std::vector<Violations> rowViol_;  ///< one partial per grid row
  mutable Violations total_;                 ///< cached row-order fold
  mutable bool totalValid_ = false;
  mutable int dirtyLo_ = 0;  ///< dirty row band [dirtyLo_, dirtyHi_)
  mutable int dirtyHi_ = 0;
  std::uint64_t generation_ = 0;  ///< bumped by every mutation

  // --- interesting-band masks (maintained by the same refresh pass) ---
  // One bit per cell, row-major in 64-bit words: set when the cell's
  // on/off class and current intensity leave it within the model's
  // maxUnitStep (plus a safety margin) of rho — the only cells a +-1 nm
  // single-edge move can possibly affect.
  mutable std::vector<std::uint64_t> rowMask_;
  int maskStride_ = 0;  ///< words per row
  RowThresholds thresholds_;

  mutable PerfCounters perf_;
};

/// One-call convenience: evaluate `shots` against `problem`.
Violations evaluateShots(const Problem& problem, std::span<const Rect> shots);

}  // namespace mbf
