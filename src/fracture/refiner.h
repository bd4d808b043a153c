// Stage 2 of the paper's method: iterative shot refinement (section 4,
// Algorithm 1). Starting from the approximate coloring solution, the
// refiner repairs CD violations while keeping shot count low, using
//   - greedy per-edge +-dp moves with 2-sigma blocking (4.1),
//   - whole-solution bias when no single edge helps (4.2),
//   - shot addition / removal after N_H stagnant iterations (4.3, 4.4),
//   - shot merging (4.5).
// The cost driven down is Eq. 5: sum of |Itot - rho| over failing pixels.
#pragma once

#include <vector>

#include "fracture/problem.h"
#include "fracture/solution.h"
#include "fracture/verifier.h"

namespace mbf {

struct RefinerStats {
  int iterations = 0;  ///< iterations actually run
  int edgeMoves = 0;
  int biasSteps = 0;
  int shotsAdded = 0;
  int shotsRemoved = 0;
  int mergeEvents = 0;
  /// Runs that returned at an exact limit cycle instead of at Nmax (see
  /// refine()).
  int limitCycleExits = 0;

  // Wall-clock seconds per refinement stage (and overall), measured by
  // refine(); the bench/scaling thread sweep reports these so a parallel
  // run shows where the time went.
  double totalSeconds = 0.0;
  double setupSeconds = 0.0;       ///< initial setShots bulk application
  double violationSeconds = 0.0;   ///< violation queries (ledger folds)
  double edgeMoveSeconds = 0.0;    ///< greedyShotEdgeAdjustment
  double biasSeconds = 0.0;        ///< biasAllShots
  double structuralSeconds = 0.0;  ///< addShot / removeShot
  double mergeSeconds = 0.0;       ///< mergeShots

  /// Hot-path perf counters of the shape's Verifier (profile evals,
  /// ledger row refreshes, candidate evaluations and cache hits; see
  /// support/perf_counters.h). Aggregates across shapes like the rest.
  PerfCounters perf;

  /// Aggregation across shapes (mdp batch reporting).
  RefinerStats& operator+=(const RefinerStats& o) {
    iterations += o.iterations;
    edgeMoves += o.edgeMoves;
    biasSteps += o.biasSteps;
    shotsAdded += o.shotsAdded;
    shotsRemoved += o.shotsRemoved;
    mergeEvents += o.mergeEvents;
    limitCycleExits += o.limitCycleExits;
    totalSeconds += o.totalSeconds;
    setupSeconds += o.setupSeconds;
    violationSeconds += o.violationSeconds;
    edgeMoveSeconds += o.edgeMoveSeconds;
    biasSeconds += o.biasSeconds;
    structuralSeconds += o.structuralSeconds;
    mergeSeconds += o.mergeSeconds;
    perf += o.perf;
    return *this;
  }
};

class Refiner {
 public:
  explicit Refiner(const Problem& problem);

  /// Runs Algorithm 1 on `initialShots` and returns the visited solution
  /// with the fewest failing pixels (ties: fewer shots, then lower cost).
  /// Returns before Nmax once the loop state after a structural step or
  /// a feasible-merge restart repeats exactly (same shots in order, same
  /// intensity-grid bytes, same scalars, no better solution in between):
  /// the remaining iterations could only cycle, so the result is the one
  /// a run to Nmax returns.
  Solution refine(std::vector<Rect> initialShots);

  const RefinerStats& stats() const { return stats_; }

  // --- individual operations, exposed for unit tests and ablations ---

  /// One pass of greedy shot edge adjustment over `verifier`'s shots.
  /// Returns the number of accepted moves.
  int greedyShotEdgeAdjustment(Verifier& verifier) const;

  /// Uniformly expands (needMoreDose) or shrinks all shot edges by dp,
  /// honouring the minimum shot size. Returns number of shots changed.
  int biasAllShots(Verifier& verifier, bool expand) const;

  /// Adds the bounding-box shot over the best connected component of
  /// failing Pon pixels. Returns true when a shot was added.
  bool addShot(Verifier& verifier) const;

  /// Removes the shot with the most failing Poff pixels within sigma.
  /// Returns true when a shot was removed.
  bool removeShot(Verifier& verifier) const;

  /// Merge pass (extension merges + containment). Returns merges applied.
  int mergeShots(Verifier& verifier) const;

 private:
  const Problem* problem_;
  mutable RefinerStats stats_;
};

}  // namespace mbf
