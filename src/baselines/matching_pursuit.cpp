#include "baselines/matching_pursuit.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <vector>

#include "fracture/verifier.h"

namespace mbf {
namespace {

// Per-candidate separable profile over the full grid, in float to keep
// the pool memory-light.
struct CandidateState {
  Rect shot;
  std::vector<float> ax;  // A(x) per grid column
  std::vector<float> by;  // B(y) per grid row
  double norm = 0.0;      // ||I_c|| over the grid
  double num = 0.0;       // <R, I_c>, maintained incrementally
  bool used = false;
};

}  // namespace

Solution MatchingPursuit::fracture(const Problem& problem) const {
  const auto start = std::chrono::steady_clock::now();

  const std::vector<Rect> pool =
      generateCandidateShots(problem, config_.candidates);
  const ProximityModel& model = problem.model();
  const Point origin = problem.origin();
  const int w = problem.gridWidth();
  const int h = problem.gridHeight();

  // Row runs of the target indicator T (the inside mask), for the fast
  // initial correlation pass.
  const MaskGrid& inside = problem.insideMask();
  std::vector<std::vector<std::pair<int, int>>> rowRuns(
      static_cast<std::size_t>(h));
  for (int y = 0; y < h; ++y) {
    int x = 0;
    while (x < w) {
      if (!inside.at(x, y)) {
        ++x;
        continue;
      }
      int x1 = x;
      while (x1 < w && inside.at(x1, y)) ++x1;
      rowRuns[static_cast<std::size_t>(y)].push_back({x, x1});
      x = x1;
    }
  }

  std::vector<CandidateState> cands(pool.size());
  std::vector<double> prefix(static_cast<std::size_t>(w) + 1);
  std::vector<double> profile(static_cast<std::size_t>(std::max(w, h)));
  for (std::size_t i = 0; i < pool.size(); ++i) {
    CandidateState& c = cands[i];
    c.shot = pool[i];
    c.ax.resize(static_cast<std::size_t>(w));
    c.by.resize(static_cast<std::size_t>(h));
    double sumA2 = 0.0;
    double sumB2 = 0.0;
    model.pixelProfile(c.shot.x0, c.shot.x1, origin.x, w, 1.0, profile.data());
    for (int x = 0; x < w; ++x) {
      const double a = profile[static_cast<std::size_t>(x)];
      c.ax[static_cast<std::size_t>(x)] = static_cast<float>(a);
      sumA2 += a * a;
    }
    model.pixelProfile(c.shot.y0, c.shot.y1, origin.y, h, 1.0, profile.data());
    for (int y = 0; y < h; ++y) {
      const double b = profile[static_cast<std::size_t>(y)];
      c.by[static_cast<std::size_t>(y)] = static_cast<float>(b);
      sumB2 += b * b;
    }
    c.norm = std::sqrt(sumA2 * sumB2);

    // <T, I_c> via row runs and a prefix sum of A.
    prefix[0] = 0.0;
    for (int x = 0; x < w; ++x) {
      prefix[static_cast<std::size_t>(x) + 1] =
          prefix[static_cast<std::size_t>(x)] +
          c.ax[static_cast<std::size_t>(x)];
    }
    double num = 0.0;
    for (int y = 0; y < h; ++y) {
      const double b = c.by[static_cast<std::size_t>(y)];
      if (b < 1e-9) continue;
      double rowSum = 0.0;
      for (const auto& [r0, r1] : rowRuns[static_cast<std::size_t>(y)]) {
        rowSum += prefix[static_cast<std::size_t>(r1)] -
                  prefix[static_cast<std::size_t>(r0)];
      }
      num += b * rowSum;
    }
    c.num = num;
  }

  Verifier verifier(problem);
  while (static_cast<int>(verifier.shots().size()) < config_.maxShots) {
    if (verifier.violations().failOn == 0 && !verifier.shots().empty()) break;

    // Best normalized correlation against the residual.
    CandidateState* best = nullptr;
    double bestScore = config_.minCorrelation;
    for (CandidateState& c : cands) {
      if (c.used || c.norm <= 0.0) continue;
      const double score = c.num / c.norm;
      if (score > bestScore) {
        bestScore = score;
        best = &c;
      }
    }
    if (!best) break;
    best->used = true;
    verifier.addShot(best->shot);

    // Residual update: R -= I_best, so every candidate's numerator drops
    // by <I_best, I_c> = (sum_x A A') (sum_y B B').
    for (CandidateState& c : cands) {
      if (c.used && &c != best) continue;
      double sa = 0.0;
      for (int x = 0; x < w; ++x) {
        sa += static_cast<double>(best->ax[static_cast<std::size_t>(x)]) *
              c.ax[static_cast<std::size_t>(x)];
      }
      if (sa < 1e-12) continue;
      double sb = 0.0;
      for (int y = 0; y < h; ++y) {
        sb += static_cast<double>(best->by[static_cast<std::size_t>(y)]) *
              c.by[static_cast<std::size_t>(y)];
      }
      c.num -= sa * sb;
    }
  }

  Solution sol;
  sol.method = "MP";
  sol.shots = verifier.shots();
  verifier.writeStats(sol);
  sol.runtimeSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return sol;
}

}  // namespace mbf
