// E-beam proximity model (paper section 2, equations 1-3).
//
// A shot is a unit-amplitude rectangle R_s convolved with the forward-
// scattering Gaussian kernel G(x, y) = 1/(pi sigma^2) exp(-(x^2+y^2)/
// sigma^2). Because the kernel is separable, the shot intensity factors
// into two 1D edge profiles:
//
//   I_s(x, y) = A(x) * B(y),
//   A(x) = F(x1 - x) - F(x0 - x),   F(t) = 0.5 * (1 + erf(t / sigma)),
//
// so an isolated long shot edge prints exactly at intensity 0.5 on the
// edge. The paper truncates G at radius 3*sigma; we evaluate the exact
// erf product (tail mass < 1.3e-4) and keep 3*sigma as the locality
// horizon for incremental updates (see DESIGN.md, deviation 2).
//
// Extension beyond the paper: an optional backscatter term turns the PSF
// into the standard two-Gaussian proximity model,
//
//   PSF = (1 - eta) * G(sigma) + eta * G(backscatterSigma),
//
// which mixes the same way into the 1D profile. eta = 0 (the default)
// reproduces the paper's single-Gaussian model exactly. Note the
// separable-product decomposition of a two-Gaussian PSF is approximate
// for the cross terms; we define the model *as* the product of mixed 1D
// profiles, which preserves every property the algorithms rely on
// (monotone edge profiles, 0.5-at-edge for eta-balanced profiles,
// locality) and is how production PEC models tabulate kernels anyway.
//
// F is tabulated once per model ("lookup table based method", paper 4.1)
// at half-integer arguments only: shot edges sit on integer coordinates
// and pixel centres at integer + 1/2, so every profile the pipeline
// samples on the grid is F(k - 1/2) for an integer k, and the table holds
// those values exactly (no interpolation).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "geometry/rect.h"

namespace mbf {

class ProximityModel {
 public:
  /// sigma: forward-scattering kernel parameter in nm (paper: 6.25).
  /// rho:   print threshold (0.5 places the contour on an isolated edge).
  /// backscatterEta / backscatterSigma: optional two-Gaussian PSF term
  /// (eta = 0 reproduces the paper's model).
  explicit ProximityModel(double sigma = 6.25, double rho = 0.5,
                          double backscatterEta = 0.0,
                          double backscatterSigma = 0.0);

  double sigma() const { return sigma_; }
  double rho() const { return rho_; }
  double backscatterEta() const { return eta_; }
  double backscatterSigma() const { return sigmaBack_; }

  /// Locality horizon: beyond this distance a shot contributes < ~1e-4.
  double influenceRadius() const { return 3.0 * maxSigma_; }
  /// influenceRadius rounded up to whole pixels.
  int influenceRadiusPx() const { return influencePx_; }

  /// Integrated 1D edge profile, exact:
  /// F(t) = (1-eta) Phi(t/sigma) + eta Phi(t/sigmaBack),
  /// Phi(u) = 0.5 (1 + erf(u)).
  double edgeProfileExact(double t) const;

  /// The tabulated profile at a half-integer argument, T[k] = F(k - 1/2):
  /// edgeProfileExact(k - 1/2) where |k - 1/2| < 4 * maxSigma, exactly 0
  /// below and exactly 1 above that range.
  double halfIntegerProfile(std::int64_t k) const {
    return table_[tableIndex(k)];
  }

  /// 1D pixel profile of the shot extent [s0, s1] along one axis at the
  /// `n` pixels whose centres sit at p + i + 1/2:
  ///   out[i] = scale * (T[s1 - p - i] - T[s0 - p - i]).
  /// The one profile routine of every grid-sampled path (intensity map,
  /// verifiers, matching pursuit). Index arithmetic is int64, so the
  /// result depends only on s0 - p and s1 - p: geometry near +-2^31 gets
  /// exactly the profile it would get at the origin.
  void pixelProfile(std::int64_t s0, std::int64_t s1, std::int64_t p, int n,
                    double scale, double* out) const;

  /// Tight upper bound of T[k + 1] - T[k] over all k. This bounds how
  /// far a +-1 nm single-edge shot move can change the intensity of any
  /// pixel (the unmoved-axis factor is <= 1), which is what lets the
  /// candidate evaluator skip pixels whose intensity is farther than this
  /// from rho (see Verifier's interesting-band masks).
  double maxUnitStep() const { return maxUnitStep_; }

  /// Intensity of shot `s` (geometric rect, nm) at an arbitrary point
  /// (x, y), from the exact profile (off-grid callers: EPE, PEC).
  double shotIntensity(const Rect& s, double x, double y) const;

  /// Longest 45-degree boundary segment a single shot corner can print
  /// within CD tolerance `gamma` (paper figure 2). Computed numerically,
  /// once per process for each (sigma, rho, eta, sigma_back, gamma):
  /// later calls, from any thread, return the memoized value (a forked
  /// --isolate worker inherits its supervisor's memo).
  double computeLth(double gamma) const;

  /// Depth (nm) by which the printed contour erodes a convex shot corner
  /// along the diagonal (distance from corner to contour along x = y).
  double cornerErosionDepth() const;

  /// Perpendicular distance from a shot corner to the 45-degree line its
  /// rounding prints best (centre of the +-gamma tolerance window around
  /// the rounded contour): cornerErosionDepth() + gamma. Shot corner
  /// points are placed this far outside the target boundary.
  double cornerLineOffset(double gamma) const {
    return cornerErosionDepth() + gamma;
  }

  /// Printed contour of an isolated shot corner at the origin, for a shot
  /// occupying the quadrant x <= 0, y <= 0. Returned as (x, y) samples
  /// with F(-x) F(-y) = rho, ordered by increasing x. `extent` bounds the
  /// sampled arm length along each edge.
  std::vector<Vec2> cornerContour(double extent, double step = 0.05) const;

 private:
  /// The contour walk behind computeLth, uncached.
  double contourLth(double gamma) const;
  /// Memo key of Lth: the bits of (sigma, rho, eta, sigma_back, gamma).
  std::array<std::uint64_t, 5> lthKey(double gamma) const;

  /// Table slot of T[k]; out-of-range k clamps onto the saturated end
  /// entries (0 below, 1 above).
  std::size_t tableIndex(std::int64_t k) const {
    return static_cast<std::size_t>(std::clamp<std::int64_t>(
        k - tableBase_, 0, static_cast<std::int64_t>(table_.size()) - 1));
  }

  double sigma_;
  double rho_;
  double eta_;
  double sigmaBack_;
  double maxSigma_;
  int influencePx_;

  // table_[i] = T[tableBase_ + i]; the first entry is 0, the last is 1.
  std::int64_t tableBase_ = 0;
  std::vector<double> table_;
  double maxUnitStep_ = 0.0;
};

}  // namespace mbf
