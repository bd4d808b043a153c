#include "mdp/checkpoint.h"

#include <cstring>

namespace mbf {
namespace {

// --- little-endian primitives (host is LE, the only target) -----------

void putU8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}
void putI32(std::string& out, std::int32_t v) {
  char b[4];
  std::memcpy(b, &v, 4);
  out.append(b, 4);
}
void putI64(std::string& out, std::int64_t v) {
  char b[8];
  std::memcpy(b, &v, 8);
  out.append(b, 8);
}
void putF64(std::string& out, double v) {
  char b[8];
  std::memcpy(b, &v, 8);
  out.append(b, 8);
}
void putString(std::string& out, const std::string& s) {
  putI32(out, static_cast<std::int32_t>(s.size()));
  out.append(s);
}

/// Cursor with bounds checking; any overrun flips `ok` and sticks.
struct Reader {
  std::string_view bytes;
  std::size_t at = 0;
  bool ok = true;

  bool take(void* dst, std::size_t n) {
    if (!ok || at + n > bytes.size()) {
      ok = false;
      return false;
    }
    std::memcpy(dst, bytes.data() + at, n);
    at += n;
    return true;
  }
  std::uint8_t u8() {
    std::uint8_t v = 0;
    take(&v, 1);
    return v;
  }
  std::int32_t i32() {
    std::int32_t v = 0;
    take(&v, 4);
    return v;
  }
  std::int64_t i64() {
    std::int64_t v = 0;
    take(&v, 8);
    return v;
  }
  double f64() {
    double v = 0;
    take(&v, 8);
    return v;
  }
  std::string str() {
    const std::int32_t n = i32();
    if (!ok || n < 0 || at + static_cast<std::size_t>(n) > bytes.size()) {
      ok = false;
      return {};
    }
    std::string s(bytes.data() + at, static_cast<std::size_t>(n));
    at += static_cast<std::size_t>(n);
    return s;
  }
};

constexpr std::uint8_t kRecordVersion = 1;
// CellRecord frames lead with a different version byte so the two
// record kinds never decode as each other (see checkpoint.h).
constexpr std::uint8_t kCellRecordVersion = 2;
// A cell-cache key is a 64-char sha256 hex digest; anything much longer
// in a CellRecord frame is corruption, not a future format.
constexpr std::int32_t kMaxCellKeyBytes = 256;
constexpr std::int32_t kMaxCellShapes = 1 << 24;

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

std::uint64_t fnv1aF64(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, 8);
  return fnv1a(h, &bits, 8);
}

std::string hex(std::uint64_t v) {
  static const char* kDigits = "0123456789abcdef";
  std::string s(16, '0');
  for (int i = 15; i >= 0; --i) {
    s[static_cast<std::size_t>(i)] = kDigits[v & 0xF];
    v >>= 4;
  }
  return s;
}

}  // namespace

std::string encodeShapeRecord(const ShapeRecord& record) {
  std::string out;
  putU8(out, kRecordVersion);
  putI32(out, record.shapeIndex);
  // Solution.
  const Solution& sol = record.solution;
  putString(out, sol.method);
  putU8(out, sol.degraded ? 1 : 0);
  putI64(out, sol.failOn);
  putI64(out, sol.failOff);
  putF64(out, sol.cost);
  putF64(out, sol.runtimeSeconds);
  putI32(out, static_cast<std::int32_t>(sol.shots.size()));
  for (const Rect& r : sol.shots) {
    putI32(out, r.x0);
    putI32(out, r.y0);
    putI32(out, r.x1);
    putI32(out, r.y1);
  }
  // Report.
  putU8(out, record.report.degraded ? 1 : 0);
  putU8(out, static_cast<std::uint8_t>(record.report.status.code()));
  putI32(out, record.report.status.shapeIndex());
  putI64(out, record.report.status.byteOffset());
  putString(out, record.report.status.message());
  return out;
}

Status decodeShapeRecord(std::string_view bytes, ShapeRecord& out) {
  Reader r{bytes};
  const std::uint8_t version = r.u8();
  if (r.ok && version != kRecordVersion) {
    return Status(StatusCode::kParseError,
                  "unknown shape-record version " + std::to_string(version));
  }
  out = {};
  out.shapeIndex = r.i32();
  out.solution.method = r.str();
  out.solution.degraded = r.u8() != 0;
  out.solution.failOn = r.i64();
  out.solution.failOff = r.i64();
  out.solution.cost = r.f64();
  out.solution.runtimeSeconds = r.f64();
  const std::int32_t shots = r.i32();
  if (r.ok && (shots < 0 || static_cast<std::size_t>(shots) * 16 >
                                bytes.size() - r.at)) {
    r.ok = false;
  }
  if (r.ok) {
    out.solution.shots.reserve(static_cast<std::size_t>(shots));
    for (std::int32_t i = 0; i < shots; ++i) {
      Rect rect;
      rect.x0 = r.i32();
      rect.y0 = r.i32();
      rect.x1 = r.i32();
      rect.y1 = r.i32();
      out.solution.shots.push_back(rect);
    }
  }
  out.report.degraded = r.u8() != 0;
  const std::uint8_t code = r.u8();
  const std::int32_t shapeIndex = r.i32();
  const std::int64_t byteOffset = r.i64();
  const std::string message = r.str();
  if (!r.ok || r.at != bytes.size()) {
    return Status(StatusCode::kParseError,
                  "shape record is truncated or has trailing bytes");
  }
  if (code > static_cast<std::uint8_t>(StatusCode::kNotFound)) {
    return Status(StatusCode::kParseError,
                  "shape record carries unknown status code " +
                      std::to_string(code));
  }
  if (static_cast<StatusCode>(code) == StatusCode::kOk && message.empty()) {
    out.report.status = Status();
  } else {
    out.report.status = Status(static_cast<StatusCode>(code), message);
  }
  if (shapeIndex >= 0) out.report.status.withShape(shapeIndex);
  if (byteOffset >= 0) out.report.status.withOffset(byteOffset);
  return {};
}

std::string encodeCellRecord(const CellRecord& record) {
  std::string out;
  putU8(out, kCellRecordVersion);
  putI32(out, record.cellIndex);
  putString(out, record.key);
  putI32(out, static_cast<std::int32_t>(record.solutions.size()));
  for (std::size_t i = 0; i < record.solutions.size(); ++i) {
    // Each cell-local result rides as a nested ShapeRecord frame with
    // the cell-local index, reusing the tested shape codec verbatim.
    ShapeRecord shape{static_cast<int>(i), record.solutions[i],
                      i < record.reports.size() ? record.reports[i]
                                                : ShapeReport{}};
    putString(out, encodeShapeRecord(shape));
  }
  return out;
}

Status decodeCellRecord(std::string_view bytes, CellRecord& out) {
  Reader r{bytes};
  const std::uint8_t version = r.u8();
  if (r.ok && version != kCellRecordVersion) {
    return Status(StatusCode::kParseError,
                  "unknown cell-record version " + std::to_string(version));
  }
  out = {};
  out.cellIndex = r.i32();
  out.key = r.str();
  if (r.ok && static_cast<std::int32_t>(out.key.size()) > kMaxCellKeyBytes) {
    return Status(StatusCode::kParseError,
                  "cell record key is implausibly long (" +
                      std::to_string(out.key.size()) + " bytes)");
  }
  const std::int32_t shapeCount = r.i32();
  if (r.ok && (shapeCount < 0 || shapeCount > kMaxCellShapes)) {
    return Status(StatusCode::kParseError,
                  "cell record claims " + std::to_string(shapeCount) +
                      " shapes");
  }
  if (r.ok) {
    out.solutions.reserve(static_cast<std::size_t>(shapeCount));
    out.reports.reserve(static_cast<std::size_t>(shapeCount));
    for (std::int32_t i = 0; i < shapeCount && r.ok; ++i) {
      const std::string frame = r.str();
      if (!r.ok) break;
      ShapeRecord shape;
      Status dec = decodeShapeRecord(frame, shape);
      if (!dec.ok()) {
        return Status(StatusCode::kParseError,
                      "cell record shape " + std::to_string(i) + ": " +
                          dec.message());
      }
      if (shape.shapeIndex != i) {
        return Status(StatusCode::kParseError,
                      "cell record shape " + std::to_string(i) +
                          " carries index " +
                          std::to_string(shape.shapeIndex));
      }
      out.solutions.push_back(std::move(shape.solution));
      out.reports.push_back(std::move(shape.report));
    }
  }
  if (!r.ok || r.at != bytes.size()) {
    return Status(StatusCode::kParseError,
                  "cell record is truncated or has trailing bytes");
  }
  return {};
}

std::string cellJournalMetaFor(const std::string& topStruct,
                               const std::vector<std::string>& cellKeys,
                               int rangeBegin, int rangeEnd) {
  std::uint64_t h = 0xCBF29CE484222325ULL;  // FNV offset basis
  h = fnv1a(h, topStruct.data(), topStruct.size());
  for (const std::string& key : cellKeys) {
    h = fnv1a(h, key.data(), key.size());
    const char sep = '\n';
    h = fnv1a(h, &sep, 1);
  }
  return "mbf-cell-journal v1 cells=" + std::to_string(cellKeys.size()) +
         " range=" + std::to_string(rangeBegin) + ":" +
         std::to_string(rangeEnd) + " top=" + topStruct + " fp=" + hex(h);
}

std::string journalMetaFor(const std::vector<LayoutShape>& shapes,
                           const BatchConfig& config) {
  std::uint64_t h = 0xCBF29CE484222325ULL;  // FNV offset basis
  for (const LayoutShape& shape : shapes) {
    const std::int32_t rings = static_cast<std::int32_t>(shape.rings.size());
    h = fnv1a(h, &rings, 4);
    for (const Polygon& ring : shape.rings) {
      for (const Point& v : ring.vertices()) {
        h = fnv1a(h, &v.x, sizeof(v.x));
        h = fnv1a(h, &v.y, sizeof(v.y));
      }
    }
  }
  // Every parameter that changes the computed result belongs in the
  // fingerprint; execution knobs (threads, budgets, fsync) do not — a
  // run verifies the same at any thread count.
  const FractureParams& p = config.params;
  h = fnv1aF64(h, p.gamma);
  h = fnv1aF64(h, p.sigma);
  h = fnv1aF64(h, p.rho);
  const std::int32_t lmin = p.lmin;
  h = fnv1a(h, &lmin, 4);
  h = fnv1aF64(h, p.backscatterEta);
  h = fnv1aF64(h, p.backscatterSigma);
  h = fnv1aF64(h, p.lth);
  h = fnv1aF64(h, p.overlapFraction);
  const std::int32_t nmax = p.nmax;
  h = fnv1a(h, &nmax, 4);
  const std::int32_t nh = p.nh;
  h = fnv1a(h, &nh, 4);
  const std::uint8_t flags =
      static_cast<std::uint8_t>((config.allowDegradation ? 1 : 0) |
                                (config.fallbackOnly ? 2 : 0) |
                                (p.enableBias ? 4 : 0) |
                                (p.enableAddRemove ? 8 : 0) |
                                (p.enableMerge ? 16 : 0));
  h = fnv1a(h, &flags, 1);
  const std::int32_t method = static_cast<std::int32_t>(config.method);
  h = fnv1a(h, &method, 4);
  return "mbf-layout v1 shapes=" + std::to_string(shapes.size()) +
         " fp=" + hex(h);
}

}  // namespace mbf
