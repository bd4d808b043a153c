// Minimal GDSII stream-format subset: BOUNDARY elements and SREF cell
// references across multiple structures -- what a mask-layer fracturing
// flow needs (the paper's flow reads mask shapes through OpenAccess;
// GDSII is the interchange format every layout tool emits, and cell
// references are how layouts with billions of polygons stay tractable).
// Big-endian binary records, 4-byte signed coordinates, 8-byte excess-64
// floating point for UNITS.
//
// Supported records: HEADER, BGNLIB, LIBNAME, UNITS, BGNSTR, STRNAME,
// BOUNDARY, SREF, AREF, SNAME, COLROW, LAYER, DATATYPE, XY, ENDEL,
// ENDSTR, ENDLIB. Everything else (PATH, magnification, rotation, ...)
// is skipped on read; records are self-describing.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "geometry/polygon.h"
#include "support/status.h"

namespace mbf {

struct GdsPolygon {
  Polygon polygon;
  std::int16_t layer = 0;
  std::int16_t datatype = 0;
};

/// Unrotated, unmagnified cell reference.
struct GdsSref {
  std::string structName;
  Point offset;
};

/// Unrotated array reference: columns x rows instances on an axis-
/// parallel pitch grid starting at `origin`.
struct GdsAref {
  std::string structName;
  Point origin;
  int columns = 1;
  int rows = 1;
  Point columnPitch{0, 0};  ///< step per column
  Point rowPitch{0, 0};     ///< step per row
};

struct GdsStructure {
  std::string name = "TOP";
  std::vector<GdsPolygon> polygons;
  std::vector<GdsSref> srefs;
  std::vector<GdsAref> arefs;
};

struct GdsLibrary {
  std::string libName = "MBF";
  /// Database unit in user units (GDSII convention; 1e-3 = 1 nm when the
  /// user unit is a micron).
  double userUnitsPerDbUnit = 1e-3;
  /// Database unit in meters (1e-9 = 1 nm).
  double metersPerDbUnit = 1e-9;
  std::vector<GdsStructure> structures;

  GdsStructure* findStructure(const std::string& name);
  const GdsStructure* findStructure(const std::string& name) const;
};

/// Serializes the library (structures in order, BOUNDARY + SREF records).
void writeGds(std::ostream& os, const GdsLibrary& lib);
bool saveGds(const std::string& path, const GdsLibrary& lib);

/// Parses a GDSII stream. Unknown record types are skipped. On
/// malformed input the Status names the offending record type and
/// carries the byte offset of its record header (Status::byteOffset());
/// a record whose declared payload exceeds the remaining stream is
/// rejected as kTruncated before any of it is consumed.
Status parseGds(std::istream& is, GdsLibrary& out);
Status parseGdsFile(const std::string& path, GdsLibrary& out);

/// Deepest reference chain the checked traversals follow before calling
/// the hierarchy malformed. Real masks nest a handful of levels; 64 is
/// far past any legitimate design while still bounding recursion.
inline constexpr int kGdsMaxDepth = 64;

/// Resolves the top structure: the unique structure not referenced by
/// any SREF/AREF in the library. Real GDS files usually list the top
/// cell LAST, so "first structure" is the wrong default. Errors:
/// kInvalidArgument when the library is empty, when every structure is
/// referenced (a reference cycle with no root), or when multiple roots
/// exist (the diagnostic lists their names — pass one explicitly).
Status findGdsTopStructure(const GdsLibrary& lib, std::string& out);

/// Checked flatten: resolves SREF/AREF recursively from `topStruct`
/// (empty = auto-detected via findGdsTopStructure) with on-path cycle
/// detection and 64-bit placement arithmetic. Reference cycles and
/// chains deeper than kGdsMaxDepth are kInvalidArgument errors naming
/// the cell chain; placements that land outside the int32 coordinate
/// space and AREFs declaring more than 2^22 instances are
/// kInvalidArgument instead of silently dropped geometry. References to
/// structures absent from the library are skipped (a subset extraction
/// convention shared with planGdsHierarchy). On error `out` holds whatever
/// geometry was gathered before the failure (partial, do not ship).
Status flattenGdsChecked(const GdsLibrary& lib, const std::string& topStruct,
                         std::vector<GdsPolygon>& out);

}  // namespace mbf
