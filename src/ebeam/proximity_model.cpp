#include "ebeam/proximity_model.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>

#include "support/telemetry.h"

namespace mbf {
namespace {

/// Process-wide Lth values, keyed by the bits of (sigma, rho, eta,
/// sigma_back, gamma): a sweep touches a handful of models, a run one.
struct LthMemo {
  std::mutex mutex;
  std::map<std::array<std::uint64_t, 5>, double> values;
};

LthMemo& lthMemo() {
  static LthMemo memo;
  return memo;
}

}  // namespace

ProximityModel::ProximityModel(double sigma, double rho, double backscatterEta,
                               double backscatterSigma)
    : sigma_(sigma),
      rho_(rho),
      eta_(backscatterEta),
      sigmaBack_(backscatterSigma > 0.0 ? backscatterSigma : sigma) {
  assert(sigma > 0.0);
  assert(rho > 0.0 && rho < 1.0);
  assert(eta_ >= 0.0 && eta_ < 1.0);
  maxSigma_ = eta_ > 0.0 ? std::max(sigma_, sigmaBack_) : sigma_;
  influencePx_ = static_cast<int>(std::ceil(3.0 * maxSigma_)) + 1;
  // T[k] = F(k - 1/2), exact while |k - 1/2| < 4 maxSigma (F is within
  // 1e-8 of its limits there) and saturated beyond. The first slot
  // (t <= -range) holds 0 and the last (t >= range) holds 1, so clamping
  // an index onto the table serves every k.
  const double range = 4.0 * maxSigma_;
  tableBase_ = static_cast<std::int64_t>(std::floor(0.5 - range));
  const std::int64_t top = static_cast<std::int64_t>(std::ceil(range + 0.5));
  table_.resize(static_cast<std::size_t>(top - tableBase_ + 1));
  for (std::int64_t k = tableBase_; k <= top; ++k) {
    const double t = static_cast<double>(k) - 0.5;
    table_[static_cast<std::size_t>(k - tableBase_)] =
        t <= -range ? 0.0 : t >= range ? 1.0 : edgeProfileExact(t);
  }
  // Max of T[k + 1] - T[k]; steps outside the table are 0. The profile's
  // slope peaks at t = 0, so the maximum sits at k = 0 (t = -1/2 to +1/2).
  double m = 0.0;
  for (std::size_t i = 0; i + 1 < table_.size(); ++i) {
    m = std::max(m, table_[i + 1] - table_[i]);
  }
  maxUnitStep_ = m;
}

double ProximityModel::edgeProfileExact(double t) const {
  const double forward = 0.5 * (1.0 + std::erf(t / sigma_));
  if (eta_ <= 0.0) return forward;
  const double back = 0.5 * (1.0 + std::erf(t / sigmaBack_));
  return (1.0 - eta_) * forward + eta_ * back;
}

void ProximityModel::pixelProfile(std::int64_t s0, std::int64_t s1,
                                  std::int64_t p, int n, double scale,
                                  double* out) const {
  // F(s - (p + i + 1/2)) = T[s - p - i]: both indices fall by one per
  // pixel.
  const double* table = table_.data();
  const std::int64_t hi = s1 - p;
  const std::int64_t lo = s0 - p;
  for (int i = 0; i < n; ++i) {
    out[i] = scale * (table[tableIndex(hi - i)] - table[tableIndex(lo - i)]);
  }
}

double ProximityModel::shotIntensity(const Rect& s, double x, double y) const {
  const double a = edgeProfileExact(s.x1 - x) - edgeProfileExact(s.x0 - x);
  const double b = edgeProfileExact(s.y1 - y) - edgeProfileExact(s.y0 - y);
  return a * b;
}

std::vector<Vec2> ProximityModel::cornerContour(double extent,
                                                double step) const {
  // Shot occupies x <= 0, y <= 0 (arms much longer than 3 sigma). The
  // intensity is F(-x) * F(-y); solve F(-y) = rho / F(-x) by bisection.
  std::vector<Vec2> pts;
  auto solveY = [&](double fx) -> double {
    const double target = rho_ / fx;  // required F(-y), in (0, 1)
    double lo = -extent;              // F(-lo) close to 1
    double hi = extent;               // F(-hi) close to 0
    for (int it = 0; it < 80; ++it) {
      const double mid = 0.5 * (lo + hi);
      if (edgeProfileExact(-mid) > target) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    return 0.5 * (lo + hi);
  };
  for (double x = -extent; x <= extent; x += step) {
    const double fx = edgeProfileExact(-x);
    if (fx <= rho_) break;  // beyond this x the contour has no solution
    const double y = solveY(fx);
    if (y < -extent) continue;
    pts.push_back({x, y});
  }
  return pts;
}

double ProximityModel::cornerErosionDepth() const {
  // On the diagonal x = y = -t: F(t)^2 = rho  =>  F(t) = sqrt(rho).
  const double target = std::sqrt(rho_);
  double lo = 0.0;
  double hi = 4.0 * maxSigma_;
  for (int it = 0; it < 80; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (edgeProfileExact(mid) < target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  const double t = 0.5 * (lo + hi);
  return t * std::sqrt(2.0);  // diagonal distance from corner to contour
}

std::array<std::uint64_t, 5> ProximityModel::lthKey(double gamma) const {
  return {std::bit_cast<std::uint64_t>(sigma_),
          std::bit_cast<std::uint64_t>(rho_), std::bit_cast<std::uint64_t>(eta_),
          std::bit_cast<std::uint64_t>(sigmaBack_),
          std::bit_cast<std::uint64_t>(gamma)};
}

double ProximityModel::computeLth(double gamma) const {
  // Lth is a constant of the model, but the contour walk behind it costs
  // ~150k erf evaluations and every Problem asks for it. Computed once
  // per exact parameter set, under the lock so concurrent first callers
  // wait instead of repeating the walk; every caller gets the same bits.
  const std::array<std::uint64_t, 5> key = lthKey(gamma);
  LthMemo& memo = lthMemo();
  const std::lock_guard<std::mutex> lock(memo.mutex);
  const auto known = memo.values.find(key);
  if (known != memo.values.end()) return known->second;
  TraceScope span("lth");
  const double lth = contourLth(gamma);
  memo.values.emplace(key, lth);
  return lth;
}

double ProximityModel::contourLth(double gamma) const {
  // Work in coordinates rotated 45 degrees: u along the candidate segment,
  // v perpendicular. The corner contour is symmetric in u; v(u) peaks at
  // u = 0 and falls off toward the edges. The best-positioned 45-degree
  // line covers the window where (v_max - v_min) <= 2 * gamma, and Lth is
  // that window's extent in u.
  const std::vector<Vec2> contour = cornerContour(6.0 * maxSigma_, 0.02);
  if (contour.empty()) return 0.0;

  const double inv = 1.0 / std::sqrt(2.0);
  double vMax = -1e30;
  for (const Vec2& p : contour) vMax = std::max(vMax, (p.x + p.y) * inv);

  // Find the largest |u| with v(u) >= vMax - 2 gamma.
  double best = 0.0;
  for (const Vec2& p : contour) {
    const double u = (p.x - p.y) * inv;
    const double v = (p.x + p.y) * inv;
    if (v >= vMax - 2.0 * gamma) best = std::max(best, std::abs(u));
  }
  return 2.0 * best;
}

}  // namespace mbf
