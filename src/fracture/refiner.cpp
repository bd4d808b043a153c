#include "fracture/refiner.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>

#include "grid/connected_components.h"
#include "grid/prefix_sum.h"
#include "io/atomic_file.h"
#include "support/telemetry.h"

namespace mbf {
namespace {

// Accumulates the wall-clock time of a scope into one RefinerStats field.
class StageTimer {
 public:
  explicit StageTimer(double& acc)
      : acc_(&acc), start_(std::chrono::steady_clock::now()) {}
  ~StageTimer() {
    *acc_ += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start_)
                 .count();
  }
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  double* acc_;
  std::chrono::steady_clock::time_point start_;
};

// Geometric segment of one shot edge, for the 2-sigma blocking test.
struct EdgeSegment {
  Vec2 a, b;
};

EdgeSegment edgeSegment(const Rect& s, int edge) {
  // edge: 0 = left, 1 = right, 2 = bottom, 3 = top.
  switch (edge) {
    case 0:
      return {{double(s.x0), double(s.y0)}, {double(s.x0), double(s.y1)}};
    case 1:
      return {{double(s.x1), double(s.y0)}, {double(s.x1), double(s.y1)}};
    case 2:
      return {{double(s.x0), double(s.y0)}, {double(s.x1), double(s.y0)}};
    default:
      return {{double(s.x0), double(s.y1)}, {double(s.x1), double(s.y1)}};
  }
}

double segmentDistance(const EdgeSegment& p, const EdgeSegment& q) {
  // Axis-parallel segments: the max of the two directed point-segment
  // minima is exact enough for a blocking radius test; use the true min
  // over endpoint-to-segment distances (segments never properly cross in
  // a blocking context, and even then the value would be ~0 anyway).
  const double d1 = distPointSegment(p.a, q.a, q.b);
  const double d2 = distPointSegment(p.b, q.a, q.b);
  const double d3 = distPointSegment(q.a, p.a, p.b);
  const double d4 = distPointSegment(q.b, p.a, p.b);
  return std::min(std::min(d1, d2), std::min(d3, d4));
}

// Applies a +-delta move to one edge of `s`.
Rect moveEdge(const Rect& s, int edge, int delta) {
  Rect r = s;
  switch (edge) {
    case 0:
      r.x0 += delta;
      break;
    case 1:
      r.x1 += delta;
      break;
    case 2:
      r.y0 += delta;
      break;
    default:
      r.y1 += delta;
      break;
  }
  return r;
}

struct CandidateMove {
  double delta = 0.0;
  std::size_t shot = 0;
  int edge = 0;
  int dir = 0;  // +-1 (in units of dp = 1 nm)
};

struct Snapshot {
  std::vector<Rect> shots;
  Violations v;

  bool betterThan(const Snapshot& o) const {
    if (v.total() != o.v.total()) return v.total() < o.v.total();
    if (shots.size() != o.shots.size()) return shots.size() < o.shots.size();
    return v.cost < o.v.cost;
  }
};

/// The refine loop's state at an iteration that follows a structural
/// step or a feasible-merge restart: `stagnant` is 0 there and the
/// ledger, band masks and dirty band are fresh, so together with the
/// intensity grid these fields determine every later iteration.
struct LoopCheckpoint {
  std::vector<Rect> shots;  ///< the verifier's shots, in order
  double bestCostSeen = 0.0;
  std::int64_t bestTotalAtLastStruct = 0;
  /// SHA-256 of the intensity-grid bytes; taken only once the fields
  /// above repeat, empty before.
  std::string gridDigest;

  bool sameSmallState(const LoopCheckpoint& o) const {
    return std::bit_cast<std::uint64_t>(bestCostSeen) ==
               std::bit_cast<std::uint64_t>(o.bestCostSeen) &&
           bestTotalAtLastStruct == o.bestTotalAtLastStruct &&
           shots == o.shots;
  }
};

std::string gridDigest(const Grid<double>& grid) {
  Sha256 sha;
  sha.update(grid.data().data(), grid.size() * sizeof(double));
  return sha.hexDigest();
}

}  // namespace

Refiner::Refiner(const Problem& problem) : problem_(&problem) {}

int Refiner::greedyShotEdgeAdjustment(Verifier& verifier) const {
  const StageTimer timer(stats_.edgeMoveSeconds);
  problem_->checkpoint("edge-moves");
  const int lmin = problem_->params().lmin;
  const std::vector<Rect>& shots = verifier.shots();

  // Best of the two +-dp moves per edge (paper 4.1). One eval cache per
  // shot: the old-shot profiles are hoisted on the shot's first candidate
  // and reused by the remaining (up to seven) candidates; only the moved
  // edge's strip profile is recomputed per candidate.
  std::vector<CandidateMove> moves;
  CandidateEvalCache cache;
  for (std::size_t i = 0; i < shots.size(); ++i) {
    for (int edge = 0; edge < 4; ++edge) {
      CandidateMove best;
      best.delta = -1e-12;  // only strictly improving moves qualify
      bool found = false;
      for (const int dir : {-1, +1}) {
        const Rect cand = moveEdge(shots[i], edge, dir);
        if (cand.width() < lmin || cand.height() < lmin) continue;
        const double d = verifier.costDeltaForReplace(i, cand, cache);
        if (d < best.delta) {
          best = {d, i, edge, dir};
          found = true;
        }
      }
      if (found) moves.push_back(best);
    }
  }
  std::sort(moves.begin(), moves.end(),
            [](const CandidateMove& a, const CandidateMove& b) {
              return a.delta < b.delta;
            });

  const double blockRadius =
      problem_->params().blockingSigmas * problem_->model().sigma();
  std::vector<EdgeSegment> accepted;
  int applied = 0;
  for (const CandidateMove& m : moves) {
    const Rect current = verifier.shots()[m.shot];
    const EdgeSegment seg = edgeSegment(current, m.edge);
    bool blocked = false;
    for (const EdgeSegment& acc : accepted) {
      if (segmentDistance(seg, acc) < blockRadius) {
        blocked = true;
        break;
      }
    }
    if (blocked) continue;
    const Rect cand = moveEdge(current, m.edge, m.dir);
    if (cand.width() < lmin || cand.height() < lmin) continue;
    verifier.replaceShot(m.shot, cand);
    accepted.push_back(edgeSegment(cand, m.edge));
    ++applied;
  }
  stats_.edgeMoves += applied;
  return applied;
}

int Refiner::biasAllShots(Verifier& verifier, bool expand) const {
  const StageTimer timer(stats_.biasSeconds);
  const int lmin = problem_->params().lmin;
  int changed = 0;
  for (std::size_t i = 0; i < verifier.shots().size(); ++i) {
    Rect r = verifier.shots()[i];
    if (expand) {
      r = r.inflated(1);
    } else {
      // Shrink each axis only while the minimum size is preserved
      // (paper 4.2 footnote 3).
      if (r.width() - 2 >= lmin) {
        r.x0 += 1;
        r.x1 -= 1;
      }
      if (r.height() - 2 >= lmin) {
        r.y0 += 1;
        r.y1 -= 1;
      }
    }
    if (!(r == verifier.shots()[i])) {
      verifier.replaceShot(i, r);
      ++changed;
    }
  }
  if (changed > 0) ++stats_.biasSteps;
  return changed;
}

namespace {

// Largest axis-parallel rectangle inscribed in the non-zero cells of
// `mask` within `window`, via run extension (every maximal horizontal run
// stretched vertically while it stays fully covered).
Rect largestInscribedRect(const MaskGrid& mask, const PrefixSum2D& sum,
                          const Rect& window) {
  Rect best;
  std::int64_t bestArea = 0;
  for (int y = window.y0; y < window.y1; ++y) {
    int x = window.x0;
    while (x < window.x1) {
      if (!mask.at(x, y)) {
        ++x;
        continue;
      }
      int x1 = x;
      while (x1 < window.x1 && mask.at(x1, y)) ++x1;
      int yLo = y;
      int yHi = y + 1;
      while (yLo > window.y0 && sum.sum(x, yLo - 1, x1, yLo) == x1 - x) --yLo;
      while (yHi < window.y1 && sum.sum(x, yHi, x1, yHi + 1) == x1 - x) ++yHi;
      const std::int64_t area =
          static_cast<std::int64_t>(x1 - x) * (yHi - yLo);
      if (area > bestArea) {
        bestArea = area;
        best = {x, yLo, x1, yHi};
      }
      x = x1;
    }
  }
  return best;
}

}  // namespace

bool Refiner::addShot(Verifier& verifier) const {
  const StageTimer timer(stats_.structuralSeconds);
  const MaskGrid failing = verifier.failingOnMask();
  const ComponentLabels comps = labelComponents(failing);
  if (comps.components.empty()) return false;

  const PrefixSum2D failSum(failing);
  const int lmin = problem_->params().lmin;

  // Per component, two candidate shots: the paper's bounding box, and the
  // largest rectangle inscribed in the failing cluster. For rectangle-ish
  // clusters they coincide; for L-shaped clusters (e.g. after a shot
  // removal exposed a whole non-convex region) the bbox would blanket
  // don't-belong territory and refinement would just cycle. Candidates
  // are scored by failing pixels covered minus outside pixels swallowed.
  Rect bestShot;
  std::int64_t bestScore = std::numeric_limits<std::int64_t>::min();
  auto consider = [&](Rect shot) {
    if (shot.empty()) return;
    enforceMinSize(shot, lmin);
    const std::int64_t covered = failSum.sum(problem_->worldToGrid(shot));
    const std::int64_t outside =
        shot.area() - problem_->insideArea(shot);
    // Outside coverage is weighted heavily: a blanket shot that swallows
    // a notch re-creates the overexposure that triggered the structural
    // change in the first place.
    const std::int64_t score = covered - 3 * outside;
    if (score > bestScore) {
      bestScore = score;
      bestShot = shot;
    }
  };
  for (const Component& c : comps.components) {
    consider(problem_->gridToWorld(c.bbox));
    consider(problem_->gridToWorld(
        largestInscribedRect(failing, failSum, c.bbox)));
  }
  if (bestShot.empty()) return false;
  verifier.addShot(bestShot);
  ++stats_.shotsAdded;
  return true;
}

bool Refiner::removeShot(Verifier& verifier) const {
  const StageTimer timer(stats_.structuralSeconds);
  if (verifier.shots().empty()) return false;
  const double sigma = problem_->model().sigma();
  std::size_t bestIdx = 0;
  std::int64_t bestCount = -1;
  for (std::size_t i = 0; i < verifier.shots().size(); ++i) {
    const std::int64_t n = verifier.failingOffNear(verifier.shots()[i], sigma);
    if (n > bestCount) {
      bestCount = n;
      bestIdx = i;
    }
  }
  if (bestCount <= 0) return false;
  verifier.removeShot(bestIdx);
  ++stats_.shotsRemoved;
  return true;
}

int Refiner::mergeShots(Verifier& verifier) const {
  const StageTimer timer(stats_.mergeSeconds);
  const double gamma = problem_->params().gamma;
  const double insideFrac = problem_->params().mergeInsideFraction;
  int merges = 0;

  // Whether a pair can merge depends only on the two shots and the
  // target, never on the rest of the shot set, so a pair that failed the
  // test stays failed while both shots survive. The scan therefore
  // continues forward from the modified index after every merge instead
  // of restarting the full O(n^2) pair scan (which made a merge cascade
  // worst-case cubic). Shots appended by extension merges are picked up
  // by the closing pass: the outer loop repeats until one full pass
  // applies no merge.
  bool changedInPass = true;
  while (changedInPass) {
    problem_->checkpoint("merge");
    changedInPass = false;
    std::size_t i = 0;
    while (i < verifier.shots().size()) {
      bool removedI = false;
      std::size_t j = i + 1;
      while (j < verifier.shots().size()) {
        const Rect a = verifier.shots()[i];
        const Rect b = verifier.shots()[j];

        // Containment: the smaller shot is redundant (criterion 2).
        if (a.contains(b)) {
          verifier.removeShot(j);
          ++merges;
          changedInPass = true;
          continue;  // slot j now holds the next candidate
        }
        if (b.contains(a)) {
          verifier.removeShot(i);
          ++merges;
          changedInPass = true;
          removedI = true;
          break;  // rescan slot i against its new occupant
        }

        // Aligned extents (criterion 1): merge by extension when >= 90 %
        // of the merged shot lies inside the target (figure 5).
        const bool xAligned = std::abs(a.x0 - b.x0) <= gamma &&
                              std::abs(a.x1 - b.x1) <= gamma;
        const bool yAligned = std::abs(a.y0 - b.y0) <= gamma &&
                              std::abs(a.y1 - b.y1) <= gamma;
        if (xAligned || yAligned) {
          const Rect merged = a.unionWith(b);
          const std::int64_t inside = problem_->insideArea(merged);
          if (static_cast<double>(inside) >=
              insideFrac * static_cast<double>(merged.area())) {
            verifier.removeShot(j);
            verifier.removeShot(i);
            verifier.addShot(merged);
            ++merges;
            changedInPass = true;
            removedI = true;
            break;  // merged shot sits at the end; rescan slot i
          }
        }
        ++j;
      }
      if (!removedI) ++i;
    }
  }
  stats_.mergeEvents += merges;
  return merges;
}

Solution Refiner::refine(std::vector<Rect> initialShots) {
  TraceScope traceRefine("refine");
  const FractureParams& p = problem_->params();
  stats_ = RefinerStats{};
  const StageTimer totalTimer(stats_.totalSeconds);

  Verifier verifier(*problem_);
  {
    const StageTimer timer(stats_.setupSeconds);
    verifier.setShots(initialShots);
  }
  // The loop's violation queries are O(1) ledger reads (the mutations
  // already refreshed the touched row partials). In debug builds every
  // query is cross-checked bit for bit against a fresh full-grid scan —
  // the ledger's consistency oracle; release builds never rescan.
  auto scanViolations = [this, &verifier] {
    const StageTimer timer(stats_.violationSeconds);
    assert(verifier.ledgerMatchesScan());
    return verifier.violations();
  };

  Snapshot best{verifier.shots(), scanViolations()};
  // "Cost does not improve for N_H iterations" (Algorithm 1, line 5) is
  // tracked against the best cost seen since the last structural change;
  // comparing consecutive iterations would let a bias/edge-move
  // oscillation mask the stagnation forever.
  double bestCostSeen = best.v.cost;
  int stagnant = 0;
  std::int64_t bestTotalAtLastStruct = std::numeric_limits<std::int64_t>::max();

  // Limit-cycle exit. An iteration is a function of the verifier's shots
  // and intensity grid (the ledger, band masks and dirty band derive from
  // the grid; the candidate cache lives for one pass), bestCostSeen,
  // stagnant, bestTotalAtLastStruct and `best`. After a structural step
  // or a feasible-merge restart stagnant is 0, and every repeating
  // trajectory passes one. When the state there equals an earlier one
  // and `best` did not improve in between, a run to Nmax only replays
  // that cycle and returns this `best`, so the loop returns it now.
  // `checkpoints` holds the states since `best` last improved.
  std::vector<LoopCheckpoint> checkpoints;
  bool atCheckpoint = false;
  auto closesCycle = [&] {
    LoopCheckpoint now{verifier.shots(), bestCostSeen, bestTotalAtLastStruct,
                       {}};
    for (const LoopCheckpoint& earlier : checkpoints) {
      if (!earlier.sameSmallState(now)) continue;
      if (now.gridDigest.empty()) {
        now.gridDigest = gridDigest(verifier.intensity().grid());
      }
      if (earlier.gridDigest == now.gridDigest) return true;
    }
    checkpoints.push_back(std::move(now));
    return false;
  };
  auto offer = [&](Snapshot&& snap) {
    if (!snap.betterThan(best)) return;
    best = std::move(snap);
    checkpoints.clear();
  };

  int iter = 0;
  for (; iter < p.nmax; ++iter) {
    if (atCheckpoint && closesCycle()) {
      ++stats_.limitCycleExits;
      break;
    }
    atCheckpoint = false;
    // Cooperative per-shape budget: when the deadline passed, this throws
    // and the mdp driver degrades the shape to the baseline fracturer.
    problem_->checkpoint("refine");
    const Violations v = scanViolations();
    if (v.total() == 0) {
      // Feasible: keep the snapshot (it may beat `best` on shot count).
      offer(Snapshot{verifier.shots(), v});
      // Redundant shots (e.g. fully contained ones) may remain; try a
      // merge pass and keep refining if it changed the solution --
      // feasibility may need re-establishing after a merge.
      if (p.enableMerge && mergeShots(verifier) > 0) {
        bestCostSeen = scanViolations().cost;
        stagnant = 0;
        atCheckpoint = true;
        continue;
      }
      break;
    }
    offer(Snapshot{verifier.shots(), v});

    if (v.cost < bestCostSeen - p.stagnationEps) {
      bestCostSeen = v.cost;
      stagnant = 0;
    } else {
      ++stagnant;
    }

    if (stagnant >= p.nh && p.enableAddRemove) {
      // Paper rule: add when Pon failures dominate, else remove. Cycle
      // breaker (extension, see DESIGN.md): when the previous structural
      // change produced no new best solution, the chosen operation is
      // part of a remove/re-add limit cycle -- invert the choice to
      // explore the other branch.
      bool preferAdd = v.failOn > v.failOff;
      if (best.v.total() >= bestTotalAtLastStruct) preferAdd = !preferAdd;
      bestTotalAtLastStruct = best.v.total();
      if (preferAdd) {
        if (!addShot(verifier)) removeShot(verifier);
      } else if (!removeShot(verifier)) {
        // No shot qualifies for removal (no Poff failures near any shot);
        // fall back to adding if there is underdose to fix.
        if (v.failOn > 0) addShot(verifier);
      }
      if (p.enableMerge) mergeShots(verifier);
      stagnant = 0;
      bestCostSeen = scanViolations().cost;
      atCheckpoint = true;
      continue;
    }

    const int moved = greedyShotEdgeAdjustment(verifier);
    if (moved == 0 && p.enableBias) {
      // Paper 4.2, with the direction made physically consistent: failing
      // Pon pixels mean underdose, so expand (see DESIGN.md deviation 1).
      biasAllShots(verifier, /*expand=*/v.failOn >= v.failOff);
    } else if (moved == 0 && !p.enableBias && !p.enableAddRemove) {
      break;  // nothing else can change the solution; avoid spinning
    }
  }
  stats_.iterations = iter;

  Solution sol;
  sol.method = "refined";
  sol.shots = std::move(best.shots);
  Verifier finalCheck(*problem_);
  finalCheck.setShots(sol.shots);
  finalCheck.writeStats(sol);
  stats_.perf += verifier.perfCounters();
  stats_.perf += finalCheck.perfCounters();
  return sol;
}

}  // namespace mbf
