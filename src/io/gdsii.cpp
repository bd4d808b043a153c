#include "io/gdsii.h"

#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <unordered_set>

#include "io/atomic_file.h"
#include <istream>
#include <ostream>

namespace mbf {
namespace {

// Record types (high byte) and data types (low byte) of the subset.
enum : std::uint16_t {
  kHeader = 0x0002,
  kBgnLib = 0x0102,
  kLibName = 0x0206,
  kUnits = 0x0305,
  kEndLib = 0x0400,
  kBgnStr = 0x0502,
  kStrName = 0x0606,
  kEndStr = 0x0700,
  kBoundary = 0x0800,
  kSref = 0x0A00,
  kAref = 0x0B00,
  kColrow = 0x1302,
  kLayer = 0x0D02,
  kDatatype = 0x0E02,
  kXy = 0x1003,
  kEndEl = 0x1100,
  kSname = 0x1206,
};

void putU16(std::string& buf, std::uint16_t v) {
  buf.push_back(static_cast<char>(v >> 8));
  buf.push_back(static_cast<char>(v & 0xFF));
}

void putI32(std::string& buf, std::int32_t v) {
  const auto u = static_cast<std::uint32_t>(v);
  buf.push_back(static_cast<char>(u >> 24));
  buf.push_back(static_cast<char>((u >> 16) & 0xFF));
  buf.push_back(static_cast<char>((u >> 8) & 0xFF));
  buf.push_back(static_cast<char>(u & 0xFF));
}

// GDSII 8-byte real: sign bit, 7-bit excess-64 base-16 exponent, 56-bit
// mantissa with value = mantissa * 16^(exp-64), 0.0625 <= mantissa < 1.
void putReal8(std::string& buf, double v) {
  std::uint64_t bits = 0;
  if (v != 0.0) {
    std::uint64_t sign = 0;
    if (v < 0) {
      sign = 1ULL << 63;
      v = -v;
    }
    int exp = 64;
    while (v >= 1.0) {
      v /= 16.0;
      ++exp;
    }
    while (v < 0.0625) {
      v *= 16.0;
      --exp;
    }
    const auto mantissa =
        static_cast<std::uint64_t>(std::llround(v * 72057594037927936.0));
    bits = sign | (static_cast<std::uint64_t>(exp) << 56) |
           (mantissa & 0x00FFFFFFFFFFFFFFULL);
  }
  for (int i = 7; i >= 0; --i) {
    buf.push_back(static_cast<char>((bits >> (8 * i)) & 0xFF));
  }
}

void emitRecord(std::ostream& os, std::uint16_t type,
                const std::string& payload) {
  const auto len = static_cast<std::uint16_t>(4 + payload.size());
  std::string head;
  putU16(head, len);
  putU16(head, type);
  os.write(head.data(), static_cast<std::streamsize>(head.size()));
  os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
}

void emitString(std::ostream& os, std::uint16_t type, std::string s) {
  if (s.size() % 2) s.push_back('\0');  // records are even-length
  emitRecord(os, type, s);
}

void emitTimestamps(std::string& buf) {
  // 12 int16 fields (modification + access time); fixed epoch keeps
  // output deterministic.
  for (int i = 0; i < 12; ++i) putU16(buf, 0);
}

struct Reader {
  std::istream& is;
  bool ok = true;
  std::int64_t offset = 0;  ///< bytes consumed so far (for diagnostics)

  std::uint8_t u8() {
    const int c = is.get();
    if (c < 0) {
      ok = false;
      return 0;
    }
    ++offset;
    return static_cast<std::uint8_t>(c);
  }
  std::uint16_t u16() {
    const std::uint16_t hi = u8();
    const std::uint16_t lo = u8();
    return static_cast<std::uint16_t>((hi << 8) | lo);
  }
  std::int32_t i32() {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v = (v << 8) | u8();
    return static_cast<std::int32_t>(v);
  }
  double real8() {
    std::uint64_t bits = 0;
    for (int i = 0; i < 8; ++i) bits = (bits << 8) | u8();
    if (bits == 0) return 0.0;
    const bool neg = (bits >> 63) != 0;
    const int exp = static_cast<int>((bits >> 56) & 0x7F) - 64;
    const double mantissa =
        static_cast<double>(bits & 0x00FFFFFFFFFFFFFFULL) /
        72057594037927936.0;
    const double v = mantissa * std::pow(16.0, exp);
    return neg ? -v : v;
  }
  std::string str(std::size_t n) {
    std::string s(n, '\0');
    is.read(s.data(), static_cast<std::streamsize>(n));
    offset += is.gcount();
    if (!is) ok = false;
    while (!s.empty() && s.back() == '\0') s.pop_back();
    return s;
  }
  void skip(std::size_t n) {
    is.ignore(static_cast<std::streamsize>(n));
    offset += is.gcount();
    if (is.gcount() != static_cast<std::streamsize>(n)) ok = false;
  }
};

const char* recordName(std::uint16_t type) {
  switch (type) {
    case kHeader: return "HEADER";
    case kBgnLib: return "BGNLIB";
    case kLibName: return "LIBNAME";
    case kUnits: return "UNITS";
    case kEndLib: return "ENDLIB";
    case kBgnStr: return "BGNSTR";
    case kStrName: return "STRNAME";
    case kEndStr: return "ENDSTR";
    case kBoundary: return "BOUNDARY";
    case kSref: return "SREF";
    case kAref: return "AREF";
    case kColrow: return "COLROW";
    case kLayer: return "LAYER";
    case kDatatype: return "DATATYPE";
    case kXy: return "XY";
    case kEndEl: return "ENDEL";
    case kSname: return "SNAME";
    default: return "UNKNOWN";
  }
}

Status badPayload(std::uint16_t type, std::size_t payload,
                  const char* expected, std::int64_t recordStart) {
  return Status(StatusCode::kParseError,
                std::string(recordName(type)) + " record has a " +
                    std::to_string(payload) + "-byte payload, expected " +
                    expected)
      .withOffset(recordStart);
}

/// GDSII stores an AREF's column and row counts as positive int16s.
bool validArefCount(int count) { return count >= 1 && count <= 32767; }

/// An AREF's step along one axis from its XY corner point, which GDSII
/// defines as origin + count * pitch. In int64: two int32 points can be
/// more than 2^31 apart.
Status arefPitch(Point origin, Point corner, int count, const char* axis,
                 Point& pitch) {
  const std::int64_t dx = std::int64_t{corner.x} - origin.x;
  const std::int64_t dy = std::int64_t{corner.y} - origin.y;
  const std::int64_t px = dx / count;
  const std::int64_t py = dy / count;
  if (dx % count != 0 || dy % count != 0 ||
      px != static_cast<std::int32_t>(px) ||
      py != static_cast<std::int32_t>(py)) {
    return Status(StatusCode::kParseError,
                  std::string("AREF ") + axis + " corner (" +
                      std::to_string(corner.x) + ", " +
                      std::to_string(corner.y) + ") is not its origin plus " +
                      std::to_string(count) + " whole int32 " + axis +
                      " pitches");
  }
  pitch = {static_cast<std::int32_t>(px), static_cast<std::int32_t>(py)};
  return {};
}

}  // namespace

const GdsStructure* GdsLibrary::findStructure(const std::string& name) const {
  for (const GdsStructure& s : structures) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

void writeGds(std::ostream& os, const GdsLibrary& lib) {
  {
    std::string p;
    putU16(p, 600);  // stream version
    emitRecord(os, kHeader, p);
  }
  {
    std::string p;
    emitTimestamps(p);
    emitRecord(os, kBgnLib, p);
  }
  emitString(os, kLibName, lib.libName);
  {
    std::string p;
    putReal8(p, lib.userUnitsPerDbUnit);
    putReal8(p, lib.metersPerDbUnit);
    emitRecord(os, kUnits, p);
  }
  for (const GdsStructure& s : lib.structures) {
    {
      std::string p;
      emitTimestamps(p);
      emitRecord(os, kBgnStr, p);
    }
    emitString(os, kStrName, s.name);
    for (const GdsPolygon& gp : s.polygons) {
      emitRecord(os, kBoundary, {});
      {
        std::string p;
        putU16(p, static_cast<std::uint16_t>(gp.layer));
        emitRecord(os, kLayer, p);
      }
      {
        std::string p;
        putU16(p, static_cast<std::uint16_t>(gp.datatype));
        emitRecord(os, kDatatype, p);
      }
      {
        // XY: closed ring (first point repeated).
        std::string p;
        for (const Point& v : gp.polygon.vertices()) {
          putI32(p, v.x);
          putI32(p, v.y);
        }
        if (!gp.polygon.empty()) {
          putI32(p, gp.polygon[0].x);
          putI32(p, gp.polygon[0].y);
        }
        emitRecord(os, kXy, p);
      }
      emitRecord(os, kEndEl, {});
    }
    for (const GdsSref& ref : s.srefs) {
      emitRecord(os, kSref, {});
      emitString(os, kSname, ref.structName);
      {
        std::string p;
        putI32(p, ref.offset.x);
        putI32(p, ref.offset.y);
        emitRecord(os, kXy, p);
      }
      emitRecord(os, kEndEl, {});
    }
    for (const GdsAref& ref : s.arefs) {
      // COLROW, then XY: origin, origin + columns*colPitch,
      // origin + rows*rowPitch, each sum in int64. An AREF whose counts
      // or corners GDSII cannot store fails the stream instead.
      std::string colrow;
      putU16(colrow, static_cast<std::uint16_t>(ref.columns));
      putU16(colrow, static_cast<std::uint16_t>(ref.rows));
      std::string xy;
      bool fits = validArefCount(ref.columns) && validArefCount(ref.rows);
      const auto corner = [&](int count, std::int32_t o, std::int32_t d) {
        const std::int64_t v = std::int64_t{o} + std::int64_t{count} * d;
        fits = fits && v == static_cast<std::int32_t>(v);
        putI32(xy, static_cast<std::int32_t>(v));
      };
      putI32(xy, ref.origin.x);
      putI32(xy, ref.origin.y);
      corner(ref.columns, ref.origin.x, ref.columnPitch.x);
      corner(ref.columns, ref.origin.y, ref.columnPitch.y);
      corner(ref.rows, ref.origin.x, ref.rowPitch.x);
      corner(ref.rows, ref.origin.y, ref.rowPitch.y);
      if (!fits) {
        os.setstate(std::ios::failbit);
        return;
      }
      emitRecord(os, kAref, {});
      emitString(os, kSname, ref.structName);
      emitRecord(os, kColrow, colrow);
      emitRecord(os, kXy, xy);
      emitRecord(os, kEndEl, {});
    }
    emitRecord(os, kEndStr, {});
  }
  emitRecord(os, kEndLib, {});
}

bool saveGds(const std::string& path, const GdsLibrary& lib) {
  // Serialize in memory, then write atomically (temp + fsync + rename):
  // a crash or ENOSPC mid-write never leaves a truncated GDS behind.
  std::ostringstream os;
  writeGds(os, lib);
  if (!os) return false;
  return atomicWriteFile(path, os.str()).ok();
}

Status parseGds(std::istream& is, GdsLibrary& out) {
  Reader r{is};
  bool sawHeader = false;
  GdsStructure* cur = nullptr;
  std::unordered_set<std::string> names;  ///< STRNAMEs read so far

  // Remaining stream length, when the stream is seekable: the cheap
  // up-front defence against records whose declared payload runs past
  // the end of the file.
  std::int64_t streamSize = -1;
  {
    const std::streampos pos = is.tellg();
    if (pos != std::streampos(-1)) {
      is.seekg(0, std::ios::end);
      const std::streampos end = is.tellg();
      is.seekg(pos);
      if (end != std::streampos(-1) && is) {
        streamSize = static_cast<std::int64_t>(end - pos);
      }
      is.clear();
    }
  }

  enum class Element { kNone, kBoundary, kSref, kAref };
  Element element = Element::kNone;
  GdsPolygon curPoly;
  GdsSref curSref;
  GdsAref curAref;

  while (true) {
    const std::int64_t recordStart = r.offset;
    const std::uint16_t len = r.u16();
    if (!r.ok) {
      if (r.offset == recordStart && sawHeader) return {};  // clean EOF
      if (r.offset == recordStart) {
        return Status(StatusCode::kParseError,
                      "stream ended before any HEADER record")
            .withOffset(recordStart);
      }
      return Status(StatusCode::kTruncated,
                    "stream ended inside a record header")
          .withOffset(recordStart);
    }
    const std::uint16_t type = r.u16();
    if (!r.ok) {
      return Status(StatusCode::kTruncated,
                    "stream ended inside a record header")
          .withOffset(recordStart);
    }
    if (len < 4) {
      return Status(StatusCode::kParseError,
                    std::string("record length ") + std::to_string(len) +
                        " is smaller than the 4-byte record header (" +
                        recordName(type) + ")")
          .withOffset(recordStart);
    }
    const std::size_t payload = len - 4;
    if (streamSize >= 0 &&
        recordStart + len > streamSize) {
      return Status(StatusCode::kTruncated,
                    std::string(recordName(type)) + " record declares " +
                        std::to_string(payload) + " payload bytes but only " +
                        std::to_string(streamSize - r.offset) +
                        " remain in the stream")
          .withOffset(recordStart);
    }

    switch (type) {
      case kHeader:
        sawHeader = true;
        r.skip(payload);
        break;
      case kLibName:
        out.libName = r.str(payload);
        break;
      case kBgnStr:
        r.skip(payload);
        out.structures.emplace_back();
        cur = &out.structures.back();
        break;
      case kStrName: {
        const std::string name = r.str(payload);
        if (cur && !names.insert(name).second) {
          return Status(StatusCode::kParseError,
                        "STRNAME '" + name +
                            "' repeats an earlier structure's name")
              .withOffset(recordStart);
        }
        if (cur) cur->name = name;
        break;
      }
      case kUnits:
        if (payload != 16) return badPayload(type, payload, "16", recordStart);
        out.userUnitsPerDbUnit = r.real8();
        out.metersPerDbUnit = r.real8();
        break;
      case kBoundary:
        element = Element::kBoundary;
        curPoly = GdsPolygon{};
        break;
      case kSref:
        element = Element::kSref;
        curSref = GdsSref{};
        break;
      case kAref:
        element = Element::kAref;
        curAref = GdsAref{};
        break;
      case kColrow:
        if (payload != 4) return badPayload(type, payload, "4", recordStart);
        curAref.columns = r.u16();
        curAref.rows = r.u16();
        if (r.ok && (!validArefCount(curAref.columns) ||
                     !validArefCount(curAref.rows))) {
          return Status(StatusCode::kParseError,
                        "COLROW " + std::to_string(curAref.columns) + " x " +
                            std::to_string(curAref.rows) +
                            " is outside GDSII's 1..32767 per axis")
              .withOffset(recordStart);
        }
        break;
      case kSname:
        if (element == Element::kAref) {
          curAref.structName = r.str(payload);
        } else {
          curSref.structName = r.str(payload);
        }
        break;
      case kLayer:
        if (payload != 2) return badPayload(type, payload, "2", recordStart);
        curPoly.layer = static_cast<std::int16_t>(r.u16());
        break;
      case kDatatype:
        if (payload != 2) return badPayload(type, payload, "2", recordStart);
        curPoly.datatype = static_cast<std::int16_t>(r.u16());
        break;
      case kXy: {
        if (payload % 8 != 0) {
          return badPayload(type, payload, "a multiple of 8", recordStart);
        }
        const std::size_t n = payload / 8;
        if (element == Element::kSref) {
          if (n >= 1) {
            curSref.offset.x = r.i32();
            curSref.offset.y = r.i32();
            r.skip(payload - 8);
          }
          break;
        }
        if (element == Element::kAref) {
          if (n >= 3) {
            curAref.origin = {r.i32(), r.i32()};
            const Point columnCorner{r.i32(), r.i32()};
            const Point rowCorner{r.i32(), r.i32()};
            r.skip(payload - 24);
            // COLROW kept both counts in 1..32767.
            Status st = arefPitch(curAref.origin, columnCorner,
                                  curAref.columns, "column",
                                  curAref.columnPitch);
            if (st.ok()) {
              st = arefPitch(curAref.origin, rowCorner, curAref.rows, "row",
                             curAref.rowPitch);
            }
            if (r.ok && !st.ok()) return st.withOffset(recordStart);
          }
          break;
        }
        std::vector<Point> pts;
        pts.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
          const std::int32_t x = r.i32();
          const std::int32_t y = r.i32();
          pts.push_back({x, y});
        }
        // Drop the closing repeat of the first vertex.
        if (pts.size() >= 2 && pts.front() == pts.back()) pts.pop_back();
        curPoly.polygon = Polygon(std::move(pts));
        break;
      }
      case kEndEl:
        if (cur) {
          if (element == Element::kBoundary && curPoly.polygon.size() >= 3) {
            cur->polygons.push_back(std::move(curPoly));
          } else if (element == Element::kSref &&
                     !curSref.structName.empty()) {
            cur->srefs.push_back(std::move(curSref));
          } else if (element == Element::kAref &&
                     !curAref.structName.empty()) {
            cur->arefs.push_back(std::move(curAref));
          }
        }
        element = Element::kNone;
        break;
      case kEndStr:
        cur = nullptr;
        break;
      case kEndLib:
        if (!sawHeader) {
          return Status(StatusCode::kParseError,
                        "ENDLIB without a preceding HEADER record")
              .withOffset(recordStart);
        }
        if (!r.ok) {
          return Status(StatusCode::kTruncated,
                        "stream ended inside an ENDLIB record")
              .withOffset(recordStart);
        }
        return {};
      default:
        r.skip(payload);  // unsupported record: self-describing, skip
        break;
    }
    if (!r.ok) {
      return Status(StatusCode::kTruncated,
                    std::string("stream ended inside a ") +
                        recordName(type) + " record")
          .withOffset(recordStart);
    }
  }
}

Status parseGdsFile(const std::string& path, GdsLibrary& out) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    return Status(StatusCode::kIoError,
                  "cannot open '" + path + "' for reading");
  }
  return parseGds(is, out);
}

Status findGdsTopStructure(const GdsLibrary& lib, std::string& out) {
  out.clear();
  if (lib.structures.empty()) {
    return Status(StatusCode::kInvalidArgument,
                  "GDS library has no structures");
  }
  std::unordered_set<std::string> referenced;
  for (const GdsStructure& s : lib.structures) {
    for (const GdsSref& ref : s.srefs) referenced.insert(ref.structName);
    for (const GdsAref& ref : s.arefs) referenced.insert(ref.structName);
  }
  std::vector<const GdsStructure*> roots;
  for (const GdsStructure& s : lib.structures) {
    if (referenced.count(s.name) == 0) roots.push_back(&s);
  }
  if (roots.empty()) {
    return Status(StatusCode::kInvalidArgument,
                  "no top structure: every structure is referenced "
                  "(reference cycle); pass a top cell explicitly");
  }
  if (roots.size() > 1) {
    std::string names;
    for (const GdsStructure* root : roots) {
      if (!names.empty()) names += ", ";
      names += root->name;
    }
    return Status(StatusCode::kInvalidArgument,
                  std::to_string(roots.size()) +
                      " candidate top structures (" + names +
                      "); pass a top cell explicitly");
  }
  out = roots.front()->name;
  return {};
}

}  // namespace mbf
