// Minimal GDSII stream-format subset: BOUNDARY elements and SREF/AREF
// cell references across multiple structures -- what a mask-layer
// fracturing flow needs (the paper's flow reads mask shapes through
// OpenAccess; GDSII is the interchange format every layout tool emits,
// and cell references are how layouts with billions of polygons stay
// tractable). Record I/O and top-structure resolution only: the one
// structure walk is mdp/hierarchy's expansion. Big-endian binary
// records, 4-byte signed coordinates, 8-byte excess-64 floating point.
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

  const GdsStructure* findStructure(const std::string& name) const;
};

/// Serializes the library (structures in order, BOUNDARY, SREF and AREF
/// records). An AREF's XY corner points, origin + count * pitch, are
/// computed in int64 and its counts must lie in 1..32767: GDSII stores
/// the corners in 4 bytes and the counts in 2. An AREF outside either
/// range sets the stream's failbit and ends the write.
void writeGds(std::ostream& os, const GdsLibrary& lib);
bool saveGds(const std::string& path, const GdsLibrary& lib);

/// Parses a GDSII stream. Unknown record types are skipped. On
/// malformed input the Status names the offending record type and
/// carries the byte offset of its record header (Status::byteOffset());
/// a record whose declared payload exceeds the remaining stream is
/// rejected as kTruncated before any of it is consumed. A repeated
/// STRNAME, a COLROW count outside 1..32767, and an AREF whose XY
/// corner points are not the origin plus a whole number of int32
/// pitches, are kParseError.
Status parseGds(std::istream& is, GdsLibrary& out);
Status parseGdsFile(const std::string& path, GdsLibrary& out);

/// Deepest reference chain the structure walk (mdp/hierarchy) follows
/// before calling the hierarchy malformed. Real masks nest a handful of
/// levels; 64 is far past any legitimate design while still bounding
/// recursion.
inline constexpr int kGdsMaxDepth = 64;

/// Resolves the top structure: the unique structure not referenced by
/// any SREF/AREF in the library. Real GDS files usually list the top
/// cell LAST, so "first structure" is the wrong default. Errors:
/// kInvalidArgument when the library is empty, when every structure is
/// referenced (a reference cycle with no root), or when multiple roots
/// exist (the diagnostic lists their names — pass one explicitly).
Status findGdsTopStructure(const GdsLibrary& lib, std::string& out);

}  // namespace mbf
