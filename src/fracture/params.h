// All knobs of the fracturing flow in one place, defaulted to the paper's
// experimental setup (section 5): gamma = 2 nm, sigma = 6.25 nm,
// dp = 1 nm. Values the paper leaves unstated are documented in
// DESIGN.md section 8.
#pragma once

#include <cstdint>
#include <type_traits>

#include "ebeam/proximity_model.h"
#include "graph/coloring.h"

namespace mbf {

class FaultInjector;

struct FractureParams {
  // --- model (section 2) ---
  double gamma = 2.0;   ///< CD tolerance band around the target boundary, nm
  double sigma = 6.25;  ///< proximity kernel parameter, nm
  double rho = 0.5;     ///< print threshold
  int lmin = 12;        ///< minimum shot side length, nm
  /// Optional two-Gaussian PSF extension (0 = the paper's single-Gaussian
  /// model): PSF = (1 - eta) G(sigma) + eta G(backscatterSigma).
  double backscatterEta = 0.0;
  double backscatterSigma = 0.0;  ///< <= 0 means "same as sigma"

  // --- coloring-based approximate fracturing (section 3) ---
  /// Longest printable 45-degree segment; <= 0 means "derive from the
  /// model and gamma" (the normal case).
  double lth = 0.0;
  /// Minimum fraction of a test-shot's area that must overlap the target
  /// for a graph edge to exist (paper footnote 2: 80 %).
  double overlapFraction = 0.8;
  ColoringOrder coloringOrder = ColoringOrder::kSequential;

  // --- iterative shot refinement (section 4) ---
  int nmax = 1500;  ///< max refinement iterations (N_max)
  int nh = 8;      ///< stagnant iterations before add/remove (N_H)
  /// Improvement below this counts as stagnation (paper: 1e-6).
  double stagnationEps = 1e-6;
  /// Edges within this many sigmas of an accepted move are blocked for
  /// the rest of the iteration (paper 4.1: 2 sigma).
  double blockingSigmas = 2.0;
  /// Fraction of a merged shot that must lie inside the target (4.5: 90 %).
  double mergeInsideFraction = 0.9;

  // --- operation toggles (for the ablation benches; all on by default) ---
  bool enableBias = true;
  bool enableAddRemove = true;
  bool enableMerge = true;

  // --- execution (src/parallel) ---
  /// Worker threads for the in-problem scans (Verifier violation scans,
  /// IntensityMap bulk application): 0 = hardware concurrency, 1 = the
  /// serial path. Results are byte-identical for every value; see
  /// DESIGN.md "Parallel architecture".
  int numThreads = 1;

  // --- robustness budgets (DESIGN.md "Failure model") -------------------
  /// Wall-clock budget per shape, milliseconds; 0 = unlimited. Enforced
  /// cooperatively at stage boundaries (Refiner iterations, merge passes,
  /// Verifier full-grid scans, coloring stages); on exhaustion the shape
  /// degrades to the rectangular-partition baseline instead of aborting
  /// the batch. nmax above is the companion iteration budget.
  double shapeTimeBudgetMs = 0.0;
  /// Cap on the estimated per-shape grid memory (bytes across the inside
  /// mask, class grid, prefix sums and intensity map); 0 = unlimited.
  /// A shape whose halo-inflated grid would exceed the cap degrades
  /// before the allocation happens.
  std::int64_t maxGridBytes = 0;
  /// Deterministic fault-injection hook (tests only; see
  /// support/fault_injector.h). Non-owning; nullptr = no faults.
  const FaultInjector* faultInjector = nullptr;

  ProximityModel makeModel() const {
    return ProximityModel(sigma, rho, backscatterEta, backscatterSigma);
  }

  /// Lth actually used: the explicit override, or the model-derived value.
  double resolvedLth(const ProximityModel& model) const {
    return lth > 0.0 ? lth : model.computeLth(gamma);
  }

  /// These parameters without the execution limits: no time budget, no
  /// grid cap, no fault injector (the fallback ladder, the audit).
  FractureParams withoutLimits() const {
    FractureParams p = *this;
    p.shapeTimeBudgetMs = 0.0;
    p.maxGridBytes = 0;
    p.faultInjector = nullptr;
    return p;
  }
};

/// The one list of what a fracture's result depends on, read by cell
/// keys, the plan fingerprint, the run manifest and --verify: calls
/// `visit(name, field)` on each such field of `p` in declaration order,
/// `name` being its manifest key. The rest are execution knobs:
/// numThreads and the limits withoutLimits() clears. A const `p` is
/// recorded or hashed, a mutable one read back.
template <typename Params, typename Visit>
  requires std::is_same_v<std::remove_const_t<Params>, FractureParams>
void forEachResultField(Params& p, Visit&& visit) {
  visit("gamma", p.gamma);
  visit("sigma", p.sigma);
  visit("rho", p.rho);
  visit("lmin", p.lmin);
  visit("eta", p.backscatterEta);
  visit("sigma_back", p.backscatterSigma);
  visit("lth", p.lth);
  visit("overlap_fraction", p.overlapFraction);
  visit("coloring_order", p.coloringOrder);
  visit("nmax", p.nmax);
  visit("nh", p.nh);
  visit("stagnation_eps", p.stagnationEps);
  visit("blocking_sigmas", p.blockingSigmas);
  visit("merge_inside_fraction", p.mergeInsideFraction);
  visit("enable_bias", p.enableBias);
  visit("enable_add_remove", p.enableAddRemove);
  visit("enable_merge", p.enableMerge);
}

}  // namespace mbf
