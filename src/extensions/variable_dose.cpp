#include "extensions/variable_dose.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace mbf {
namespace {

// Candidate move: one edge nudged +-1 nm, or the dose nudged +-doseStep.
struct Move {
  double delta = 0.0;
  std::size_t shot = 0;
  DosedShot replacement;
};

DosedShot moveEdge(const DosedShot& s, int edge, int d) {
  DosedShot r = s;
  switch (edge) {
    case 0: r.rect.x0 += d; break;
    case 1: r.rect.x1 += d; break;
    case 2: r.rect.y0 += d; break;
    default: r.rect.y1 += d; break;
  }
  return r;
}

}  // namespace

DoseVerifier::DoseVerifier(const Problem& problem)
    : problem_(&problem),
      map_(problem.model(), problem.origin(), problem.gridWidth(),
           problem.gridHeight()) {}

void DoseVerifier::setShots(std::span<const DosedShot> shots) {
  shots_.assign(shots.begin(), shots.end());
  // Bulk rebuild through the dose-aware row-parallel path; byte-identical
  // to the sequential addShot(rect, dose) loop for any thread count.
  std::vector<Rect> rects;
  std::vector<double> doses;
  rects.reserve(shots_.size());
  doses.reserve(shots_.size());
  for (const DosedShot& s : shots_) {
    rects.push_back(s.rect);
    doses.push_back(s.dose);
  }
  map_.setShots(rects, doses, problem_->params().numThreads);
}

void DoseVerifier::addShot(const DosedShot& shot) {
  shots_.push_back(shot);
  map_.addShot(shot.rect, shot.dose);
}

void DoseVerifier::removeShot(std::size_t index) {
  assert(index < shots_.size());
  map_.removeShot(shots_[index].rect, shots_[index].dose);
  shots_.erase(shots_.begin() + static_cast<std::ptrdiff_t>(index));
}

void DoseVerifier::replaceShot(std::size_t index,
                               const DosedShot& replacement) {
  assert(index < shots_.size());
  map_.removeShot(shots_[index].rect, shots_[index].dose);
  map_.addShot(replacement.rect, replacement.dose);
  shots_[index] = replacement;
}

Violations DoseVerifier::violations() const {
  Violations v;
  const double rho = problem_->model().rho();
  const auto& classes = problem_->classGrid();
  for (int y = 0; y < problem_->gridHeight(); ++y) {
    const std::uint8_t* cls = classes.row(y);
    const double* inten = map_.grid().row(y);
    for (int x = 0; x < problem_->gridWidth(); ++x) {
      switch (static_cast<PixelClass>(cls[x])) {
        case PixelClass::kOn:
          if (inten[x] < rho) {
            ++v.failOn;
            v.cost += rho - inten[x];
          }
          break;
        case PixelClass::kOff:
          if (inten[x] >= rho) {
            ++v.failOff;
            v.cost += inten[x] - rho;
          }
          break;
        case PixelClass::kDontCare:
          break;
      }
    }
  }
  return v;
}

double DoseVerifier::costDeltaForReplace(std::size_t index,
                                         const DosedShot& replacement) const {
  assert(index < shots_.size());
  const DosedShot& oldShot = shots_[index];
  // Same change-window narrowing as Verifier::costDeltaForReplace: a
  // single-edge move only disturbs the strip around that edge. A dose
  // change disturbs the whole footprint, so it keeps the full window.
  Rect changed = oldShot.rect.unionWith(replacement.rect);
  if (oldShot.dose == replacement.dose) {
    const Rect& a = oldShot.rect;
    const Rect& b = replacement.rect;
    const bool xSame = a.x0 == b.x0 && a.x1 == b.x1;
    const bool ySame = a.y0 == b.y0 && a.y1 == b.y1;
    if (xSame && !ySame) {
      if (a.y0 == b.y0) {
        changed.y0 = std::min(a.y1, b.y1);
      } else if (a.y1 == b.y1) {
        changed.y1 = std::max(a.y0, b.y0);
      }
    } else if (ySame && !xSame) {
      if (a.x0 == b.x0) {
        changed.x0 = std::min(a.x1, b.x1);
      } else if (a.x1 == b.x1) {
        changed.x1 = std::max(a.x0, b.x0);
      }
    }
  }
  const Rect w = map_.influenceWindow(changed);
  if (w.empty()) return 0.0;

  const ProximityModel& model = problem_->model();
  const double rho = model.rho();
  const std::int64_t px = std::int64_t{problem_->origin().x} + w.x0;
  const std::int64_t py = std::int64_t{problem_->origin().y} + w.y0;

  const std::size_t nw = static_cast<std::size_t>(w.width());
  const std::size_t nh = static_cast<std::size_t>(w.height());
  std::vector<double> axOld(nw), axNew(nw), byOld(nh), byNew(nh);
  const Rect& a = oldShot.rect;
  const Rect& b = replacement.rect;
  model.pixelProfile(a.x0, a.x1, px, w.width(), 1.0, axOld.data());
  model.pixelProfile(b.x0, b.x1, px, w.width(), 1.0, axNew.data());
  model.pixelProfile(a.y0, a.y1, py, w.height(), 1.0, byOld.data());
  model.pixelProfile(b.y0, b.y1, py, w.height(), 1.0, byNew.data());

  double delta = 0.0;
  const auto& classes = problem_->classGrid();
  for (int y = w.y0; y < w.y1; ++y) {
    const std::uint8_t* cls = classes.row(y);
    const double* inten = map_.grid().row(y);
    const double bo = byOld[static_cast<std::size_t>(y - w.y0)] * oldShot.dose;
    const double bn =
        byNew[static_cast<std::size_t>(y - w.y0)] * replacement.dose;
    for (int x = w.x0; x < w.x1; ++x) {
      const PixelClass c = static_cast<PixelClass>(cls[x]);
      if (c == PixelClass::kDontCare) continue;
      const double iOld = inten[x];
      const double iNew = iOld -
                          axOld[static_cast<std::size_t>(x - w.x0)] * bo +
                          axNew[static_cast<std::size_t>(x - w.x0)] * bn;
      if (c == PixelClass::kOn) {
        if (iOld < rho) delta -= rho - iOld;
        if (iNew < rho) delta += rho - iNew;
      } else {
        if (iOld >= rho) delta -= iOld - rho;
        if (iNew >= rho) delta += iNew - rho;
      }
    }
  }
  return delta;
}

VariableDoseRefiner::VariableDoseRefiner(const Problem& problem,
                                         VariableDoseConfig config)
    : problem_(&problem), config_(config) {}

VariableDoseResult VariableDoseRefiner::refine(
    std::vector<DosedShot> initial) const {
  DoseVerifier verifier(*problem_);
  verifier.setShots(initial);

  VariableDoseResult best{verifier.shots(), verifier.violations()};
  const int lmin = problem_->params().lmin;

  for (int iter = 0; iter < config_.nmax; ++iter) {
    const Violations v = verifier.violations();
    const bool better =
        v.total() < best.violations.total() ||
        (v.total() == best.violations.total() &&
         v.cost < best.violations.cost);
    if (better) {
      best.shots = verifier.shots();
      best.violations = v;
    }
    if (v.total() == 0) break;

    // Best single move across all shots: 8 edge moves + 2 dose moves.
    Move bestMove;
    bestMove.delta = -1e-12;
    bool found = false;
    for (std::size_t i = 0; i < verifier.shots().size(); ++i) {
      const DosedShot& s = verifier.shots()[i];
      auto consider = [&](const DosedShot& cand) {
        if (cand.rect.width() < lmin || cand.rect.height() < lmin) return;
        if (cand.dose < config_.doseMin - 1e-9 ||
            cand.dose > config_.doseMax + 1e-9) {
          return;
        }
        const double d = verifier.costDeltaForReplace(i, cand);
        if (d < bestMove.delta) {
          bestMove = {d, i, cand};
          found = true;
        }
      };
      for (int edge = 0; edge < 4; ++edge) {
        consider(moveEdge(s, edge, -1));
        consider(moveEdge(s, edge, +1));
      }
      DosedShot up = s;
      up.dose += config_.doseStep;
      consider(up);
      DosedShot down = s;
      down.dose -= config_.doseStep;
      consider(down);
    }
    if (!found) break;  // local optimum for single moves
    verifier.replaceShot(bestMove.shot, bestMove.replacement);
  }

  const Violations v = verifier.violations();
  if (v.total() < best.violations.total() ||
      (v.total() == best.violations.total() &&
       v.cost < best.violations.cost)) {
    best.shots = verifier.shots();
    best.violations = v;
  }
  return best;
}

VariableDoseResult VariableDoseRefiner::reduceShots(
    std::vector<DosedShot> initial) const {
  VariableDoseResult current = refine(std::move(initial));
  if (!current.feasible()) return current;

  while (current.shots.size() > 1) {
    // Try removing the shot whose absence is cheapest after re-refining.
    bool removedOne = false;
    // Order candidates by smallest area (slivers first) -- a good greedy
    // proxy for "least load-bearing".
    std::vector<std::size_t> order(current.shots.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return current.shots[a].rect.area() < current.shots[b].rect.area();
    });
    for (const std::size_t drop : order) {
      std::vector<DosedShot> trial;
      trial.reserve(current.shots.size() - 1);
      for (std::size_t i = 0; i < current.shots.size(); ++i) {
        if (i != drop) trial.push_back(current.shots[i]);
      }
      VariableDoseResult refined = refine(std::move(trial));
      if (refined.feasible()) {
        current = std::move(refined);
        removedOne = true;
        break;
      }
    }
    if (!removedOne) break;
  }
  return current;
}

std::vector<DosedShot> withUnitDose(std::span<const Rect> shots) {
  std::vector<DosedShot> out;
  out.reserve(shots.size());
  for (const Rect& r : shots) out.push_back({r, 1.0});
  return out;
}

}  // namespace mbf
