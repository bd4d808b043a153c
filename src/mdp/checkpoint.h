// Cell records and run fingerprints (DESIGN.md sections 14, 17 and 19).
// A CellRecord — every shape's shots, quality stats and causal Status
// for one plan cell — is the only form a cell's result takes outside a
// running fracture. A journaled run (mdp/hierarchy's plan executor, in
// process or supervised) appends one encoded CellRecord to a support/journal
// file the moment a plan cell completes; `--resume` replays every intact
// record, fractures only the missing cells, and instantiates both
// populations in plan order, so an interrupted-then-resumed run produces
// byte-identical final output to an uninterrupted one (tested at 1/4/8
// threads and against SIGKILL at randomized points in
// tests/crash_drill_test.cpp). Flat layouts journal the same frames:
// their plan has one cell per shape. A cell-cache entry (mdp/cell_cache)
// is the same frame behind a digest line.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "mdp/layout.h"
#include "support/journal.h"
#include "support/status.h"

namespace mbf {

/// One shape's solution and report: the codec nested inside every
/// CellRecord frame (with the cell-local index), and the outcome an
/// --isolate worker streams for each distinct shape it fractures (with
/// the shape's plan-shape ordinal; mdp/hierarchy).
struct ShapeRecord {
  int shapeIndex = -1;
  Solution solution;
  ShapeReport report;
};

/// Binary little-endian serialization of a ShapeRecord. Doubles round
/// trip bit-for-bit (memcpy, no text formatting), which is what makes a
/// replayed shape byte-identical to a freshly fractured one. The Status
/// source location is not serialized (it is a pointer into the binary
/// that wrote the record); code, message, shapeIndex and byteOffset are.
std::string encodeShapeRecord(const ShapeRecord& record);
Status decodeShapeRecord(std::string_view bytes, ShapeRecord& out);

/// The run manifest's config fingerprint (config.fingerprint), which
/// `mbf_cli --verify` recomputes over the re-derived layout: shape count
/// and an FNV-1a hash over every ring vertex and the result-relevant
/// FractureParams. A mismatch means the input or the parameters changed
/// since the run, so the audit would check against the wrong oracle.
std::string journalMetaFor(const std::vector<LayoutShape>& shapes,
                           const BatchConfig& config);

/// A plan cell's complete fracture result: one solution and one report
/// per shape of the cell, in groupRings order. It is addressed by its
/// index in the plan (the first-visit order of unique cells: under the
/// top structure for GDS, in layout order for flat input; -1 in a
/// cell-cache entry)
/// and stamped with the cell-cache content key so replay can prove the
/// record still describes the cell it claims to. Shots are cell-local;
/// instantiation translates them and re-stamps failing statuses.
struct CellRecord {
  int cellIndex = -1;
  std::string key;  ///< cellFractureKey of the cell's shapes + config
  std::vector<Solution> solutions;
  std::vector<ShapeReport> reports;
};

/// Binary serialization of a CellRecord. The frame starts with version
/// byte 2 where ShapeRecord frames start with 1, so the two record
/// kinds are self-discriminating: decoding a frame with the wrong
/// decoder fails cleanly instead of misreading.
std::string encodeCellRecord(const CellRecord& record);
Status decodeCellRecord(std::string_view bytes, CellRecord& out);

/// Header meta for a cell journal: cell count, the [begin, end) cell
/// range this journal covers (a run journal covers 0:n; other ranges
/// are refused on resume), the top structure, and an FNV-1a hash over the
/// top name and every cell's content key in plan order. The keys
/// already commit to the cell geometry and the result-relevant
/// FractureParams, so a parameter or layout change reshapes the
/// fingerprint, and resume refuses the journal: replaying records of a
/// different layout or parameter set would silently corrupt the output.
/// A journal of another format (such as the per-shape journals older
/// flat runs wrote) differs in its meta and is refused the same way.
std::string cellJournalMetaFor(const std::string& topStruct,
                               const std::vector<std::string>& cellKeys,
                               int rangeBegin, int rangeEnd);

/// Crash-recovery bookkeeping surfaced in the mbf_cli degradation
/// report. The plan executor fills the journal and cell counts; the
/// supervisor (mdp/supervisor) fills the worker counts, whose "ranges"
/// are ranges of fill units (distinct shapes).
struct RunCounters {
  int resumedShapes = 0;   ///< replayed from the journal, not recomputed
  int freshShapes = 0;     ///< fractured by this run
  int resumedCells = 0;    ///< plan cells replayed from the journal
  int freshCells = 0;      ///< plan cells fractured this run
  bool tornTail = false;   ///< recovery truncated a partial record
  int retriedRanges = 0;   ///< worker ranges relaunched after a failure
  int bisectedRanges = 0;  ///< failing ranges split to localize a culprit
  int crashedWorkers = 0;  ///< abnormal worker exits (signal / bad code)
  int hungWorkers = 0;     ///< workers SIGKILLed by the watchdog
  int crashedShapes = 0;   ///< culprit distinct shapes isolated by bisection
  /// Orphaned `*.tmp.<pid>` files of dead writers removed by the
  /// stale-temp sweep of --resume.
  int staleTempsRemoved = 0;
  /// A journal append (or close under kEachRecord) failed mid-batch and
  /// the run completed unjournaled: every shape's result is in the
  /// output, but the journal on disk is not a faithful checkpoint and
  /// its seal was dropped. A later --resume recomputes what is missing.
  bool journalDowngraded = false;
};

}  // namespace mbf
