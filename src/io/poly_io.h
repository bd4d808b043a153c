// Plain-text polygon and shot-list I/O. Stands in for the OpenAccess API
// the paper used: shapes move between tools as simple vertex lists.
//
// .poly format:   one "x y" vertex pair per line, '#' comments, blank
//                 lines separate multiple polygons.
// .shots format:  one "x0 y0 x1 y1" shot per line, '#' comments.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "fracture/solution.h"
#include "geometry/polygon.h"
#include "geometry/rect.h"
#include "support/status.h"

namespace mbf {

/// What parsePolygons encountered besides the polygons it returned:
/// rings dropped for having fewer than 3 vertices, and content lines
/// that were not an "x y" pair.
struct PolyReadStats {
  int polygons = 0;
  int skippedRings = 0;
  int badLines = 0;
};

void writePolygons(std::ostream& os, std::span<const Polygon> polygons);

/// Status-reporting parse: well-formed polygons land in `out` even when
/// the Status is an error (parsing is line-tolerant); the Status is the
/// first problem found — a malformed content line (kParseError, with the
/// 1-based line number in the message) or a ring with fewer than 3
/// vertices (kInvalidArgument). `stats`, when non-null, counts
/// everything that was skipped.
Status parsePolygons(std::istream& is, std::vector<Polygon>& out,
                     PolyReadStats* stats = nullptr);
Status parsePolygonsFile(const std::string& path, std::vector<Polygon>& out,
                         PolyReadStats* stats = nullptr);

bool savePolygons(const std::string& path, std::span<const Polygon> polygons);

/// The sectioned .shots layout mbf_cli emits: one "# shape i: N shots,
/// M failing px[, degraded]" comment per shape followed by its shots,
/// formatted into the one buffer the atomic writer consumes. Every
/// driver (plain, resumed, supervised) formats output through this
/// code — the resume byte-identity contract covers its exact bytes.
std::string formatBatchShots(std::span<const Solution> solutions);

/// formatBatchShots written to a stream.
void writeBatchShots(std::ostream& os, std::span<const Solution> solutions);

bool saveShots(const std::string& path, std::span<const Rect> shots);

}  // namespace mbf
