#include "ebeam/intensity_map.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "parallel/parallel_for.h"

namespace mbf {
namespace {

// 1D edge profiles of one shot over its influence window. Shared by the
// incremental applyShot and the bulk setShots paths so both round
// identically (the determinism tests compare their grids bit for bit).
void computeProfiles(const ProximityModel& model, Point origin,
                     const Rect& shot, const Rect& w, double sign,
                     std::vector<double>& ax, std::vector<double>& by) {
  ax.resize(static_cast<std::size_t>(w.width()));
  by.resize(static_cast<std::size_t>(w.height()));
  model.pixelProfile(shot.x0, shot.x1, std::int64_t{origin.x} + w.x0,
                     w.width(), sign, ax.data());
  model.pixelProfile(shot.y0, shot.y1, std::int64_t{origin.y} + w.y0,
                     w.height(), 1.0, by.data());
}

}  // namespace

IntensityMap::IntensityMap(const ProximityModel& model, Point origin,
                           int width, int height)
    : model_(&model), origin_(origin), grid_(width, height, 0.0) {}

Rect IntensityMap::influenceWindow(const Rect& shot) const {
  const int r = model_->influenceRadiusPx();
  Rect w{shot.x0 - origin_.x - r, shot.y0 - origin_.y - r,
         shot.x1 - origin_.x + r, shot.y1 - origin_.y + r};
  w.x0 = std::max(w.x0, 0);
  w.y0 = std::max(w.y0, 0);
  w.x1 = std::min(w.x1, grid_.width());
  w.y1 = std::min(w.y1, grid_.height());
  if (w.x1 < w.x0) w.x1 = w.x0;
  if (w.y1 < w.y0) w.y1 = w.y0;
  return w;
}

void IntensityMap::applyShot(const Rect& shot, double sign) {
  const Rect w = influenceWindow(shot);
  if (w.empty()) return;

  // Separable evaluation: one pass of 1D profiles per axis, then the
  // outer product over the window.
  std::vector<double> ax;
  std::vector<double> by;
  {
    const PerfTimer timer(perf_, &PerfCounters::profileNanos);
    computeProfiles(*model_, origin_, shot, w, sign, ax, by);
    if (perf_ != nullptr) {
      // 2 table reads per profile entry.
      perf_->profileEvals +=
          2 * static_cast<std::uint64_t>(w.width() + w.height());
    }
  }
  for (int y = w.y0; y < w.y1; ++y) {
    const double b = by[static_cast<std::size_t>(y - w.y0)];
    double* row = grid_.row(y);
    for (int x = w.x0; x < w.x1; ++x) {
      row[x] += ax[static_cast<std::size_t>(x - w.x0)] * b;
    }
  }
}

void IntensityMap::setShots(std::span<const Rect> shots,
                            std::span<const double> doses, int numThreads) {
  assert(doses.empty() || doses.size() == shots.size());
  clear();
  const auto doseOf = [&doses](std::size_t i) {
    return doses.empty() ? 1.0 : doses[i];
  };
  const int threads = ThreadPool::resolveThreads(numThreads);
  if (threads <= 1 || shots.size() < 2 || grid_.height() < 2) {
    for (std::size_t i = 0; i < shots.size(); ++i) {
      applyShot(shots[i], +doseOf(i));
    }
    return;
  }

  // Stage 1: per-shot windows and 1D profiles, independent across shots.
  // The dose folds into the x-profile exactly like applyShot's sign does,
  // so the bulk and sequential paths round identically. Profile-eval
  // accounting happens after the join (a shared sink must not be written
  // from inside the parallelFor).
  struct ShotProfile {
    Rect window;
    std::vector<double> ax;
    std::vector<double> by;
  };
  std::vector<ShotProfile> profiles(shots.size());
  {
    const PerfTimer timer(perf_, &PerfCounters::profileNanos);
    parallelFor(0, static_cast<int>(shots.size()), threads, 1, [&](int i) {
      ShotProfile& p = profiles[static_cast<std::size_t>(i)];
      p.window = influenceWindow(shots[static_cast<std::size_t>(i)]);
      if (p.window.empty()) return;
      computeProfiles(*model_, origin_, shots[static_cast<std::size_t>(i)],
                      p.window, +doseOf(static_cast<std::size_t>(i)), p.ax,
                      p.by);
    });
  }
  if (perf_ != nullptr) {
    for (const ShotProfile& p : profiles) {
      if (p.window.empty()) continue;
      perf_->profileEvals += 2 * static_cast<std::uint64_t>(
                                     p.window.width() + p.window.height());
    }
  }

  // Stage 2: row-parallel outer products. Every grid row is owned by one
  // task, and the per-row shot lists are built in input order, so each
  // pixel receives its contributions in exactly the order the serial
  // addShot loop would apply them.
  std::vector<std::vector<std::uint32_t>> rowShots(
      static_cast<std::size_t>(grid_.height()));
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    const Rect& w = profiles[i].window;
    for (int y = w.y0; y < w.y1; ++y) {
      rowShots[static_cast<std::size_t>(y)].push_back(
          static_cast<std::uint32_t>(i));
    }
  }
  parallelFor(0, grid_.height(), threads, 8, [&](int y) {
    double* row = grid_.row(y);
    for (const std::uint32_t idx : rowShots[static_cast<std::size_t>(y)]) {
      const ShotProfile& p = profiles[idx];
      const Rect& w = p.window;
      const double b = p.by[static_cast<std::size_t>(y - w.y0)];
      for (int x = w.x0; x < w.x1; ++x) {
        row[x] += p.ax[static_cast<std::size_t>(x - w.x0)] * b;
      }
    }
  });
}

}  // namespace mbf
