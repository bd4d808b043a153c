// Independent output audit (DESIGN.md section 16). Re-reads an emitted
// `.shots` artifact and re-verifies every shape's Eq. 4 feasibility
// claims with a deliberately separate dense evaluator that shares no
// code with fracture/verifier's incremental violation ledger or
// ebeam/intensity_map's scatter pipeline: a second, gather-formulated
// implementation of the same mathematical contract, written against the
// published accumulation-order spec (shot-index order per pixel, row
// partials folded in row order) so that on an uncorrupted artifact it
// agrees with the pipeline's Verifier BIT FOR BIT — any discrepancy is a
// real defect (bug, bit rot, tampering), never float noise.
//
// What is checked per shape:
//   - the section header's claimed shot count vs the shots present;
//   - the claimed failing-pixel count (and, from the manifest, the
//     claimed fail_on / fail_off / cost) vs the dense re-evaluation;
//   - the degraded tag in the artifact vs the manifest;
//   - shot geometry: every shot non-empty, and — for non-degraded
//     primary-method shapes — every side >= Lmin;
//   - shapes the run reported as failed/interrupted must be empty.
// Dose bounds and the shot-count budget are structural in this artifact
// format (every shot carries unit dose; counts are validated against
// the claims above), so no separate check is needed.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "fracture/params.h"
#include "fracture/problem.h"
#include "geometry/rect.h"
#include "mdp/layout.h"
#include "support/status.h"

namespace mbf {

/// One "# shape i: N shots, M failing px[, degraded]" section of a
/// .shots artifact, as written by writeBatchShots.
struct ShotSection {
  int index = -1;
  int claimedShots = 0;
  std::int64_t claimedFailingPx = 0;
  bool claimedDegraded = false;
  std::vector<Rect> shots;
};

/// Strict sectioned parse of a .shots artifact. Every content line must
/// be a section header or an "x0 y0 x1 y1" shot inside a section;
/// anything else is a kParseError carrying the 1-based line number.
/// A section holding fewer shots than its header claims parses fine —
/// that mismatch is the audit's job to report, not the parser's.
Status parseShotSections(const std::string& content,
                         std::vector<ShotSection>& out);

/// Dense re-evaluation result for one shape.
struct DenseViolations {
  std::int64_t failOn = 0;   ///< Pon pixels below rho
  std::int64_t failOff = 0;  ///< Poff pixels at or above rho
  double cost = 0.0;         ///< sum of |I - rho| over failing pixels
};

/// The independent dense evaluator: per grid row, gathers every shot's
/// separable 1D edge-profile contribution in shot-index order, then
/// classifies the row against rho and folds the per-row partials in row
/// order. Shares no code with Verifier/IntensityMap but reproduces
/// their accumulation order exactly, so the result is bitwise equal to
/// Verifier::setShots + violations() at any thread count (pinned by
/// tests/audit_test.cpp).
DenseViolations denseViolations(const Problem& problem,
                                std::span<const Rect> shots);

/// What the run claimed about one shape (from the manifest, or from the
/// in-memory BatchResult in --selfcheck mode).
struct ShapeExpectation {
  std::string method;        ///< "ours", "rect_partition", "empty", ...
  std::int64_t failOn = 0;
  std::int64_t failOff = 0;
  double cost = 0.0;
  bool degraded = false;
  /// True when the shape completed (status ok, or degraded with a
  /// fallback result): its shots must satisfy the claims. False for
  /// strict-mode failures and interrupted shapes, whose solutions are
  /// empty by design — the audit then only checks that they ARE empty.
  bool completed = true;
  /// Compare `cost` bitwise. Cleared when the run post-processed the
  /// shot order (--order): the set is unchanged but the floating-point
  /// accumulation sequence is not, so only the integer counts remain
  /// exactly comparable.
  bool exactCost = true;
};

struct AuditFinding {
  int shapeIndex = -1;  ///< original layout index; -1 = file-level
  std::string what;
};

struct AuditReport {
  int shapesAudited = 0;
  /// Problems built and densely evaluated: one per distinct (target,
  /// shots) content among the audited shapes, so translated repeats —
  /// hierarchical instances, flat copies — cost one evaluation.
  int denseEvaluations = 0;
  /// Shots the audited sections hold.
  std::int64_t shots = 0;
  std::vector<AuditFinding> findings;

  bool clean() const { return findings.empty(); }
  /// One "shape N: ..." / "file: ..." line per finding.
  std::string str() const;
};

/// Audits the parsed sections of one .shots artifact against the input
/// layout and the per-shape claims. `shapes[i]` pairs with
/// `sections[i]` and `expectations[i]`, and findings for it name shape
/// i. Every check runs per shape, but shapes whose sanitized rings and
/// shots are equal up to an integer translation share one Problem and
/// one dense evaluation (AuditReport::denseEvaluations). Checks and
/// evaluations run concurrently (`threads` as in BatchConfig::threads);
/// findings are merged in shape order, so the report is deterministic
/// and equals auditing every shape on its own.
AuditReport auditShotSections(const std::vector<LayoutShape>& shapes,
                              const FractureParams& params,
                              std::span<const ShotSection> sections,
                              std::span<const ShapeExpectation> expectations,
                              int threads);

}  // namespace mbf
