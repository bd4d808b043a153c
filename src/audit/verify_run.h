// The `mbf_cli --verify` acceptance gate (DESIGN.md section 16): given a
// finished run's manifest (or the directory holding it), re-hash every
// artifact the manifest lists against its recorded SHA-256, re-read the
// input layout and the emitted `.shots` artifact, and re-verify every
// per-shape claim with the independent dense checker. A clean report
// means the bytes on disk are the bytes the run wrote AND those bytes
// satisfy the feasibility/claims contract — checked by code that shares
// nothing with the emission path.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "audit/independent_checker.h"
#include "mdp/hierarchy.h"
#include "support/status.h"

namespace mbf {

/// One plan cell's claims as a run states them: how often the cell is
/// placed and one claim per cell shape, in cell order.
template <typename Claim>
struct CellClaims {
  std::int64_t instances = 0;
  std::vector<Claim> shapes;
};

/// The claims of every instance shape of `plan`, in instance order (the
/// order of the run's results and `.shots` sections): each instance
/// repeats its cell's claims. `cells` holds one entry per plan cell, in
/// plan order. When it does not describe the plan (another cell count,
/// or a cell placed or holding claims another number of times) the
/// first mismatch is appended to `issues` and no claims are returned.
template <typename Claim>
std::vector<Claim> expandCellClaims(const HierPlan& plan,
                                    const std::vector<CellClaims<Claim>>& cells,
                                    std::vector<std::string>& issues) {
  const std::vector<RunManifestInfo::CellGroup> groups = planCellGroups(plan);
  const std::size_t known = issues.size();
  if (cells.size() != groups.size()) {
    issues.push_back("manifest lists " + std::to_string(cells.size()) +
                     " plan cell(s) but the input plans " +
                     std::to_string(groups.size()) +
                     " — the input layout has changed since the run");
  }
  for (std::size_t c = 0; issues.size() == known && c < groups.size(); ++c) {
    const std::string at = "manifest cells[" + std::to_string(c) + "]";
    if (cells[c].instances != groups[c].instances) {
      issues.push_back(at + ".instances = " +
                       std::to_string(cells[c].instances) +
                       " but the plan places cell " + std::to_string(c) +
                       " " + std::to_string(groups[c].instances) + " time(s)");
    }
    if (cells[c].shapes.size() != static_cast<std::size_t>(groups[c].shapes)) {
      issues.push_back(at + ".shapes does not hold the " +
                       std::to_string(groups[c].shapes) +
                       " claim(s) of plan cell " + std::to_string(c));
    }
  }
  if (issues.size() != known) return {};
  std::vector<Claim> claims;
  for (const HierPlan::Instance& inst : plan.instances) {
    const std::vector<Claim>& cell =
        cells[static_cast<std::size_t>(inst.cell)].shapes;
    claims.insert(claims.end(), cell.begin(), cell.end());
  }
  return claims;
}

/// The one audit of a written run, for --verify and --selfcheck alike:
/// reads the `.shots` file at `path` back, parses its sections and
/// audits them against `shapes` and `expectations` (auditShotSections).
/// A file that cannot be read or parsed is the returned Status, which
/// names the file, and leaves `out` empty.
Status auditShotsFile(const std::string& path,
                      const std::vector<LayoutShape>& shapes,
                      const FractureParams& params,
                      std::span<const ShapeExpectation> expectations,
                      int threads, AuditReport& out);

struct VerifyOptions {
  /// Run-manifest JSON path, or a directory containing exactly one.
  std::string target;
  /// Shape-level audit parallelism (as BatchConfig::threads).
  int threads = 1;
};

struct VerifyReport {
  std::string manifestPath;
  /// Artifact/file-level problems: missing files, sidecar mismatches,
  /// SHA-256 mismatches, unparseable artifacts, totals that disagree.
  std::vector<std::string> fileIssues;
  /// Per-shape findings from the independent checker.
  AuditReport audit;
  int artifactsChecked = 0;
  /// The manifest is stamped "interrupted" (graceful drain): partial by
  /// design; the audit still validates whatever was written.
  bool interrupted = false;

  bool clean() const { return fileIssues.empty() && audit.clean(); }
  /// Every issue, one per line.
  std::string str() const;
};

/// Runs the gate. A non-ok Status means verification could not even
/// start (no manifest found, manifest unreadable/unparseable, input
/// layout unreadable) — callers should treat that as a failed
/// verification, not a clean one. When the Status is ok, `out.clean()`
/// is the verdict.
Status verifyRun(const VerifyOptions& options, VerifyReport& out);

}  // namespace mbf
