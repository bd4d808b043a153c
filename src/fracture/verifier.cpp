#include "fracture/verifier.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "parallel/parallel_for.h"
#include "support/telemetry.h"

namespace mbf {
namespace {

constexpr std::uint8_t kOnClass = static_cast<std::uint8_t>(PixelClass::kOn);
constexpr std::uint8_t kOffClass = static_cast<std::uint8_t>(PixelClass::kOff);

// One cell's ledger term and band bit: on-cells fail below rho and are
// interesting below bandHi, off-cells fail at or above rho and are
// interesting at or above bandLo, don't-care cells are neither.
inline void classifyCell(std::uint8_t c, double i, int x,
                         const RowThresholds& t, Violations& v,
                         std::uint64_t* mask) {
  bool interesting = false;
  if (c == kOnClass) {
    if (i < t.rho) {
      ++v.failOn;
      v.cost += t.rho - i;
    }
    interesting = i < t.bandHi;
  } else if (c == kOffClass) {
    if (i >= t.rho) {
      ++v.failOff;
      v.cost += i - t.rho;
    }
    interesting = i >= t.bandLo;
  }
  mask[x >> 6] |= static_cast<std::uint64_t>(interesting) << (x & 63);
}

}  // namespace

Violations classifyRowScalar(const std::uint8_t* cls, const double* inten,
                             int width, const RowThresholds& t,
                             std::uint64_t* mask) {
  std::fill(mask, mask + (width + 63) / 64, 0);
  Violations v;
  for (int x = 0; x < width; ++x) classifyCell(cls[x], inten[x], x, t, v, mask);
  return v;
}

Violations classifyRow(const std::uint8_t* cls, const double* inten,
                       int width, const RowThresholds& t,
                       std::uint64_t* mask) {
#if defined(__SSE2__)
  assert(t.bandLo <= t.rho && t.rho <= t.bandHi);
  std::fill(mask, mask + (width + 63) / 64, 0);
  Violations v;
  const __m128d lo = _mm_set1_pd(t.bandLo);
  const __m128d hi = _mm_set1_pd(t.bandHi);
  const __m128i onClass = _mm_set1_epi8(static_cast<char>(kOnClass));
  const __m128i offClass = _mm_set1_epi8(static_cast<char>(kOffClass));
  int x = 0;
  // 16 cells per step: one byte compare per class and two band compares
  // per cell pair, each folded to bits with movemask; only the cells in
  // the band (few: those near rho) take the scalar step.
  for (; x + 16 <= width; x += 16) {
    const __m128i c =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(cls + x));
    const unsigned on = static_cast<unsigned>(
        _mm_movemask_epi8(_mm_cmpeq_epi8(c, onClass)));
    const unsigned off = static_cast<unsigned>(
        _mm_movemask_epi8(_mm_cmpeq_epi8(c, offClass)));
    unsigned belowHi = 0;
    unsigned aboveLo = 0;
    for (int k = 0; k < 16; k += 2) {
      const __m128d i = _mm_loadu_pd(inten + x + k);
      belowHi |= static_cast<unsigned>(_mm_movemask_pd(_mm_cmplt_pd(i, hi)))
                 << k;
      aboveLo |= static_cast<unsigned>(_mm_movemask_pd(_mm_cmpge_pd(i, lo)))
                 << k;
    }
    // Every failing cell lies in the band (bandLo <= rho <= bandHi), so
    // the scalar step run on just the band cells, in x order, sets their
    // bits and adds the failing terms in the scalar loop's exact
    // sequence: the partial is bitwise equal to it.
    for (unsigned band = (on & belowHi) | (off & aboveLo); band != 0;
         band &= band - 1) {
      const int xb = x + std::countr_zero(band);
      classifyCell(cls[xb], inten[xb], xb, t, v, mask);
    }
  }
  for (; x < width; ++x) classifyCell(cls[x], inten[x], x, t, v, mask);
  return v;
#else
  return classifyRowScalar(cls, inten, width, t, mask);
#endif
}

Verifier::Verifier(const Problem& problem)
    : problem_(&problem),
      map_(problem.model(), problem.origin(), problem.gridWidth(),
           problem.gridHeight()),
      rowViol_(static_cast<std::size_t>(problem.gridHeight())),
      dirtyLo_(0),
      dirtyHi_(problem.gridHeight()),
      maskStride_((problem.gridWidth() + 63) / 64) {
  map_.setPerfSink(&perf_);
  rowMask_.assign(static_cast<std::size_t>(problem.gridHeight()) *
                      static_cast<std::size_t>(maskStride_),
                  0);
  // Safety-inflated skip bound: the true bound is the model's max +-1 nm
  // profile step times an unmoved-axis factor <= 1; the margin dwarfs
  // every rounding error in the iNew expression while excluding almost
  // nothing extra from the band.
  const double stepBound = problem.model().maxUnitStep() * (1.0 + 1e-9) + 1e-9;
  thresholds_.rho = problem.model().rho();
  thresholds_.bandLo = thresholds_.rho - stepBound;
  thresholds_.bandHi = thresholds_.rho + stepBound;
}

void Verifier::setShots(std::span<const Rect> shots) {
  TraceScope traceSetShots("verify-set-shots");
  shots_.assign(shots.begin(), shots.end());
  map_.setShots(shots_, problem_->params().numThreads);
  ++generation_;
  dirtyLo_ = 0;
  dirtyHi_ = problem_->gridHeight();
  totalValid_ = false;
}

void Verifier::addShot(const Rect& shot) {
  shots_.push_back(shot);
  map_.addShot(shot);
  ++generation_;
  markDirtyFor(shot);
}

void Verifier::removeShot(std::size_t index) {
  assert(index < shots_.size());
  const Rect old = shots_[index];
  map_.removeShot(old);
  shots_.erase(shots_.begin() + static_cast<std::ptrdiff_t>(index));
  ++generation_;
  markDirtyFor(old);
}

void Verifier::replaceShot(std::size_t index, const Rect& replacement) {
  assert(index < shots_.size());
  const Rect old = shots_[index];
  map_.removeShot(old);
  map_.addShot(replacement);
  shots_[index] = replacement;
  ++generation_;
  // One dirty band over the union window covers both applications' rows.
  markDirtyFor(old.unionWith(replacement));
}

void Verifier::markDirtyFor(const Rect& shot) {
  const Rect w = map_.influenceWindow(shot);
  if (w.empty()) return;
  dirtyLo_ = std::min(dirtyLo_, w.y0);
  dirtyHi_ = std::max(dirtyHi_, w.y1);
  totalValid_ = false;
}

void Verifier::ensureLedgerFresh() const {
  if (dirtyLo_ >= dirtyHi_) return;
  refreshLedgerRows(dirtyLo_, dirtyHi_);
  dirtyLo_ = problem_->gridHeight();
  dirtyHi_ = 0;
}

void Verifier::refreshLedgerRows(int y0, int y1) const {
  if (y0 >= y1) return;
  // Same cooperative budget granularity the full scans used to provide.
  problem_->checkpoint("ledger");
  const PerfTimer timer(&perf_, &PerfCounters::ledgerNanos);
  const int width = problem_->gridWidth();
  const int rows = y1 - y0;
  const int threads = ThreadPool::resolveThreads(problem_->params().numThreads);
  const std::int64_t cells = static_cast<std::int64_t>(rows) * width;
  // One pass per row yields both its partial (bitwise equal to the row
  // scan a fresh violation scan performs) and its band bits. Rows are
  // independent, so the parallel refresh is bitwise-deterministic for
  // any thread count.
  const auto refreshRow = [&](int y) {
    rowViol_[static_cast<std::size_t>(y)] = classifyRow(
        problem_->classGrid().row(y), map_.grid().row(y), width, thresholds_,
        maskRow(y));
  };
  if (threads <= 1 || rows < 2 || cells < 4096) {
    for (int y = y0; y < y1; ++y) refreshRow(y);
  } else {
    parallelFor(y0, y1, threads, 16, refreshRow);
  }
  perf_.ledgerRowUpdates += static_cast<std::uint64_t>(rows);
  totalValid_ = false;
}

Violations Verifier::violations() const {
  ensureLedgerFresh();
  if (!totalValid_) {
    // Fold the row partials in row order: the exact addition sequence a
    // fresh serial (or row-parallel) scan performs, hence bitwise equal.
    Violations v;
    for (const Violations& p : rowViol_) v += p;
    total_ = v;
    totalValid_ = true;
    ++perf_.ledgerFolds;
  }
  return total_;
}

Violations Verifier::scanViolations() const {
  TraceScope traceScan("verify-scan");
  ++perf_.fullScans;
  const PerfTimer timer(&perf_, &PerfCounters::scanNanos);
  return violationsInWindow(
      {0, 0, problem_->gridWidth(), problem_->gridHeight()});
}

bool Verifier::ledgerMatchesScan() const {
  if (!(violations() == scanViolations())) return false;
  // The maintained band bits must equal a fresh (scalar) classification.
  const int width = problem_->gridWidth();
  std::vector<std::uint64_t> fresh(static_cast<std::size_t>(maskStride_));
  for (int y = 0; y < problem_->gridHeight(); ++y) {
    classifyRowScalar(problem_->classGrid().row(y), map_.grid().row(y), width,
                      thresholds_, fresh.data());
    if (!std::equal(fresh.begin(), fresh.end(), maskRow(y))) return false;
  }
  return true;
}

Violations Verifier::violationsRow(int y, int x0, int x1) const {
  Violations v;
  const double rho = problem_->model().rho();
  const std::uint8_t* cls = problem_->classGrid().row(y);
  const double* inten = map_.grid().row(y);
  for (int x = x0; x < x1; ++x) {
    const double i = inten[x];
    switch (static_cast<PixelClass>(cls[x])) {
      case PixelClass::kOn:
        if (i < rho) {
          ++v.failOn;
          v.cost += rho - i;
        }
        break;
      case PixelClass::kOff:
        if (i >= rho) {
          ++v.failOff;
          v.cost += i - rho;
        }
        break;
      case PixelClass::kDontCare:
        break;
    }
  }
  return v;
}

Violations Verifier::violationsInWindow(const Rect& gridWindow) const {
  problem_->checkpoint("verify");
  ++perf_.windowScans;
  // Per-row partials folded in row order: the serial and row-parallel
  // paths perform the identical sequence of double additions, so the
  // reported cost is byte-identical for every thread count.
  Violations v;
  const int rows = gridWindow.y1 - gridWindow.y0;
  const int threads = ThreadPool::resolveThreads(problem_->params().numThreads);
  const std::int64_t cells =
      static_cast<std::int64_t>(rows) * (gridWindow.x1 - gridWindow.x0);
  if (threads <= 1 || rows < 2 || cells < 4096) {
    for (int y = gridWindow.y0; y < gridWindow.y1; ++y) {
      v += violationsRow(y, gridWindow.x0, gridWindow.x1);
    }
    return v;
  }
  std::vector<Violations> partials(static_cast<std::size_t>(rows));
  parallelFor(gridWindow.y0, gridWindow.y1, threads, 16, [&](int y) {
    partials[static_cast<std::size_t>(y - gridWindow.y0)] =
        violationsRow(y, gridWindow.x0, gridWindow.x1);
  });
  for (const Violations& p : partials) v += p;
  return v;
}

Rect Verifier::changedRect(const Rect& oldShot, const Rect& replacement) {
  // Intensity only changes near coordinates that moved; when a single
  // edge moved (the refiner's bread-and-butter query) the change window
  // is a thin strip around that edge instead of the whole shot halo.
  Rect changed = oldShot.unionWith(replacement);
  const bool xSame =
      oldShot.x0 == replacement.x0 && oldShot.x1 == replacement.x1;
  const bool ySame =
      oldShot.y0 == replacement.y0 && oldShot.y1 == replacement.y1;
  if (xSame && !ySame) {
    if (oldShot.y0 == replacement.y0) {
      changed.y0 = std::min(oldShot.y1, replacement.y1);  // top edge moved
    } else if (oldShot.y1 == replacement.y1) {
      changed.y1 = std::max(oldShot.y0, replacement.y0);  // bottom edge
    }
  } else if (ySame && !xSame) {
    if (oldShot.x0 == replacement.x0) {
      changed.x0 = std::min(oldShot.x1, replacement.x1);  // right edge
    } else if (oldShot.x1 == replacement.x1) {
      changed.x1 = std::max(oldShot.x0, replacement.x0);  // left edge
    }
  }
  return changed;
}

void Verifier::xProfile(const Rect& shot, int x0, int x1, double* out) const {
  problem_->model().pixelProfile(shot.x0, shot.x1,
                                 std::int64_t{problem_->origin().x} + x0,
                                 x1 - x0, 1.0, out);
  perf_.profileEvals += 2 * static_cast<std::uint64_t>(x1 - x0);
}

void Verifier::yProfile(const Rect& shot, int y0, int y1, double* out) const {
  problem_->model().pixelProfile(shot.y0, shot.y1,
                                 std::int64_t{problem_->origin().y} + y0,
                                 y1 - y0, 1.0, out);
  perf_.profileEvals += 2 * static_cast<std::uint64_t>(y1 - y0);
}

double Verifier::deltaOverWindow(const Rect& w, const double* axOld,
                                 const double* axNew, const double* byOld,
                                 const double* byNew) const {
  double delta = 0.0;
  const double rho = problem_->model().rho();
  const auto& classes = problem_->classGrid();
  for (int y = w.y0; y < w.y1; ++y) {
    const std::uint8_t* cls = classes.row(y);
    const double* inten = map_.grid().row(y);
    const double bo = byOld[y - w.y0];
    const double bn = byNew[y - w.y0];
    for (int x = w.x0; x < w.x1; ++x) {
      const PixelClass c = static_cast<PixelClass>(cls[x]);
      if (c == PixelClass::kDontCare) continue;
      const double iOld = inten[x];
      const double iNew = iOld - axOld[x - w.x0] * bo + axNew[x - w.x0] * bn;
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

double Verifier::costDeltaForReplace(std::size_t index,
                                     const Rect& replacement) const {
  assert(index < shots_.size());
  ++perf_.candidateEvals;
  const PerfTimer timer(&perf_, &PerfCounters::candidateNanos);
  const Rect& oldShot = shots_[index];
  const Rect w = map_.influenceWindow(changedRect(oldShot, replacement));
  if (w.empty()) return 0.0;

  // 1D edge profiles of the old and new shot over the window.
  const std::size_t nw = static_cast<std::size_t>(w.width());
  const std::size_t nh = static_cast<std::size_t>(w.height());
  std::vector<double> axOld(nw), axNew(nw), byOld(nh), byNew(nh);
  xProfile(oldShot, w.x0, w.x1, axOld.data());
  xProfile(replacement, w.x0, w.x1, axNew.data());
  yProfile(oldShot, w.y0, w.y1, byOld.data());
  yProfile(replacement, w.y0, w.y1, byNew.data());
  return deltaOverWindow(w, axOld.data(), axNew.data(), byOld.data(),
                         byNew.data());
}

double Verifier::deltaOverWindowMasked(const Rect& w, const double* axOld,
                                       const double* axNew,
                                       const double* byOld,
                                       const double* byNew) const {
  double delta = 0.0;
  const double rho = problem_->model().rho();
  const auto& classes = problem_->classGrid();
  const std::uint8_t on = static_cast<std::uint8_t>(PixelClass::kOn);
  const int j0 = w.x0 >> 6;
  const int j1 = (w.x1 - 1) >> 6;
  const std::uint64_t headMask = ~0ULL << (w.x0 & 63);
  const std::uint64_t tailMask =
      (w.x1 & 63) != 0 ? ~0ULL >> (64 - (w.x1 & 63)) : ~0ULL;
  for (int y = w.y0; y < w.y1; ++y) {
    const std::uint64_t* mask = maskRow(y);
    const std::uint8_t* cls = classes.row(y);
    const double* inten = map_.grid().row(y);
    const double bo = byOld[y - w.y0];
    const double bn = byNew[y - w.y0];
    for (int j = j0; j <= j1; ++j) {
      std::uint64_t bits = mask[j];
      if (j == j0) bits &= headMask;
      if (j == j1) bits &= tailMask;
      while (bits != 0) {
        const int x = (j << 6) + std::countr_zero(bits);
        bits &= bits - 1;
        // Same per-cell arithmetic and left-to-right, top-to-bottom
        // accumulation order as deltaOverWindow; cells the masks skip
        // fire none of these branches, so the sum is bit-identical.
        const double iOld = inten[x];
        const double iNew = iOld - axOld[x - w.x0] * bo + axNew[x - w.x0] * bn;
        if (cls[x] == on) {
          if (iOld < rho) delta -= rho - iOld;
          if (iNew < rho) delta += rho - iNew;
        } else {
          if (iOld >= rho) delta -= iOld - rho;
          if (iNew >= rho) delta += iNew - rho;
        }
      }
    }
  }
  return delta;
}

namespace {

// True when `replacement` differs from `oldShot` by exactly one edge
// moved by exactly +-1 nm — the only geometry the interesting-band skip
// bound (ProximityModel::maxUnitStep) is valid for.
bool isUnitSingleEdgeMove(const Rect& oldShot, const Rect& replacement) {
  const int dx0 = replacement.x0 - oldShot.x0;
  const int dx1 = replacement.x1 - oldShot.x1;
  const int dy0 = replacement.y0 - oldShot.y0;
  const int dy1 = replacement.y1 - oldShot.y1;
  const int moved =
      (dx0 != 0 ? 1 : 0) + (dx1 != 0 ? 1 : 0) + (dy0 != 0 ? 1 : 0) +
      (dy1 != 0 ? 1 : 0);
  return moved == 1 && std::abs(dx0 + dx1 + dy0 + dy1) == 1;
}

}  // namespace

double Verifier::costDeltaForReplace(std::size_t index, const Rect& replacement,
                                     CandidateEvalCache& cache) const {
  assert(index < shots_.size());
  ++perf_.candidateEvals;
  const PerfTimer timer(&perf_, &PerfCounters::candidateNanos);
  const Rect& oldShot = shots_[index];
  const Rect w = map_.influenceWindow(changedRect(oldShot, replacement));
  if (w.empty()) return 0.0;
  // The interesting-band masks must reflect the current intensity map
  // before they can prune the walk (no-op when nothing is dirty).
  ensureLedgerFresh();

  if (cache.primed_ && cache.generation_ == generation_ &&
      cache.shotIndex_ == index) {
    ++perf_.candidateCacheHits;
  } else {
    // Prime: hoist the old-shot profiles over the widest window any
    // +-1 nm single-edge candidate can touch (the shot inflated by the
    // move margin). Every candidate's change strip is a sub-range, so
    // slicing these arrays is bitwise-identical to recomputing them.
    cache.window_ = map_.influenceWindow(oldShot.inflated(1));
    cache.axOld_.resize(static_cast<std::size_t>(cache.window_.width()));
    cache.byOld_.resize(static_cast<std::size_t>(cache.window_.height()));
    xProfile(oldShot, cache.window_.x0, cache.window_.x1, cache.axOld_.data());
    yProfile(oldShot, cache.window_.y0, cache.window_.y1, cache.byOld_.data());
    cache.primed_ = true;
    cache.generation_ = generation_;
    cache.shotIndex_ = index;
  }

  const Rect& cw = cache.window_;
  if (w.x0 < cw.x0 || w.x1 > cw.x1 || w.y0 < cw.y0 || w.y1 > cw.y1) {
    // The replacement moved further than the hoisted margin (not a +-1
    // candidate); evaluate it generically. Rare by construction.
    const std::size_t nw = static_cast<std::size_t>(w.width());
    const std::size_t nh = static_cast<std::size_t>(w.height());
    cache.axOldScratch_.resize(nw);
    cache.axNew_.resize(nw);
    cache.byOldScratch_.resize(nh);
    cache.byNew_.resize(nh);
    xProfile(oldShot, w.x0, w.x1, cache.axOldScratch_.data());
    xProfile(replacement, w.x0, w.x1, cache.axNew_.data());
    yProfile(oldShot, w.y0, w.y1, cache.byOldScratch_.data());
    yProfile(replacement, w.y0, w.y1, cache.byNew_.data());
    return deltaOverWindow(w, cache.axOldScratch_.data(), cache.axNew_.data(),
                           cache.byOldScratch_.data(), cache.byNew_.data());
  }

  const double* axOld = cache.axOld_.data() + (w.x0 - cw.x0);
  const double* byOld = cache.byOld_.data() + (w.y0 - cw.y0);

  // The unmoved axis of a candidate has the old shot's extent, so its
  // profile *is* the hoisted old profile; only the moved axis needs a
  // fresh evaluation, over the thin change strip.
  const bool xSame =
      oldShot.x0 == replacement.x0 && oldShot.x1 == replacement.x1;
  const bool ySame =
      oldShot.y0 == replacement.y0 && oldShot.y1 == replacement.y1;
  const double* axNew = axOld;
  const double* byNew = byOld;
  if (!xSame) {
    cache.axNew_.resize(static_cast<std::size_t>(w.width()));
    xProfile(replacement, w.x0, w.x1, cache.axNew_.data());
    axNew = cache.axNew_.data();
  }
  if (!ySame) {
    cache.byNew_.resize(static_cast<std::size_t>(w.height()));
    yProfile(replacement, w.y0, w.y1, cache.byNew_.data());
    byNew = cache.byNew_.data();
  }
  if (isUnitSingleEdgeMove(oldShot, replacement)) {
    return deltaOverWindowMasked(w, axOld, axNew, byOld, byNew);
  }
  return deltaOverWindow(w, axOld, axNew, byOld, byNew);
}

MaskGrid Verifier::failingOnMask() const {
  const double rho = problem_->model().rho();
  MaskGrid out(problem_->gridWidth(), problem_->gridHeight(), 0);
  const auto& classes = problem_->classGrid();
  for (int y = 0; y < out.height(); ++y) {
    const std::uint8_t* cls = classes.row(y);
    const double* inten = map_.grid().row(y);
    for (int x = 0; x < out.width(); ++x) {
      if (static_cast<PixelClass>(cls[x]) == PixelClass::kOn &&
          inten[x] < rho) {
        out.at(x, y) = 1;
      }
    }
  }
  return out;
}

std::int64_t Verifier::failingOffNear(const Rect& shot, double radius) const {
  const double rho = problem_->model().rho();
  const int r = static_cast<int>(std::ceil(radius)) + 1;
  Rect w = problem_->worldToGrid(shot.inflated(r));
  w.x0 = std::max(w.x0, 0);
  w.y0 = std::max(w.y0, 0);
  w.x1 = std::min(w.x1, problem_->gridWidth());
  w.y1 = std::min(w.y1, problem_->gridHeight());

  std::int64_t n = 0;
  const auto& classes = problem_->classGrid();
  const Point origin = problem_->origin();
  for (int y = w.y0; y < w.y1; ++y) {
    const std::uint8_t* cls = classes.row(y);
    const double* inten = map_.grid().row(y);
    for (int x = w.x0; x < w.x1; ++x) {
      if (static_cast<PixelClass>(cls[x]) != PixelClass::kOff) continue;
      if (inten[x] < rho) continue;
      if (shot.distanceTo(origin.x + x + 0.5, origin.y + y + 0.5) < radius) {
        ++n;
      }
    }
  }
  return n;
}

void Verifier::writeStats(Solution& solution) const {
  const Violations v = violations();
  solution.failOn = v.failOn;
  solution.failOff = v.failOff;
  solution.cost = v.cost;
}

Violations evaluateShots(const Problem& problem, std::span<const Rect> shots) {
  Verifier verifier(problem);
  verifier.setShots(shots);
  return verifier.violations();
}

}  // namespace mbf
