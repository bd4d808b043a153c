#include "io/poly_io.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string_view>

#include "io/atomic_file.h"

namespace mbf {
namespace {

// Strips comments and returns true for content lines.
bool contentLine(const std::string& raw, std::string& out) {
  const std::size_t hash = raw.find('#');
  out = raw.substr(0, hash);
  for (const char c : out) {
    if (!std::isspace(static_cast<unsigned char>(c))) return true;
  }
  return false;
}

}  // namespace

void writePolygons(std::ostream& os, std::span<const Polygon> polygons) {
  bool first = true;
  for (const Polygon& p : polygons) {
    if (!first) os << "\n";
    first = false;
    for (const Point& v : p.vertices()) os << v.x << " " << v.y << "\n";
  }
}

Status parsePolygons(std::istream& is, std::vector<Polygon>& out,
                     PolyReadStats* stats) {
  Status first;
  PolyReadStats local;
  std::vector<Point> cur;
  std::string raw;
  std::string line;
  int lineNo = 0;
  int ringStartLine = 0;
  auto flush = [&] {
    if (cur.size() >= 3) {
      out.emplace_back(cur);
      ++local.polygons;
    } else if (!cur.empty()) {
      ++local.skippedRings;
      if (first.ok()) {
        first = Status(StatusCode::kInvalidArgument,
                       "ring starting at line " +
                           std::to_string(ringStartLine) + " has only " +
                           std::to_string(cur.size()) +
                           " vertex/vertices, need at least 3");
      }
    }
    cur.clear();
  };
  while (std::getline(is, raw)) {
    ++lineNo;
    if (!contentLine(raw, line)) {
      flush();
      continue;
    }
    std::istringstream ls(line);
    Point p;
    if (ls >> p.x >> p.y) {
      if (cur.empty()) ringStartLine = lineNo;
      cur.push_back(p);
    } else {
      ++local.badLines;
      if (first.ok()) {
        first = Status(StatusCode::kParseError,
                       "line " + std::to_string(lineNo) +
                           " is not an \"x y\" vertex pair: '" + line + "'");
      }
    }
  }
  flush();
  if (stats != nullptr) *stats = local;
  return first;
}

Status parsePolygonsFile(const std::string& path, std::vector<Polygon>& out,
                         PolyReadStats* stats) {
  std::ifstream is(path);
  if (!is) {
    return Status(StatusCode::kIoError,
                  "cannot open '" + path + "' for reading");
  }
  return parsePolygons(is, out, stats);
}

bool savePolygons(const std::string& path, std::span<const Polygon> polygons) {
  std::ostringstream os;
  writePolygons(os, polygons);
  return atomicWriteFile(path, os.str()).ok();
}

namespace {

/// Appends "x0 y0 x1 y1\n" per shot. One line is at most 4 * 11 + 4
/// bytes, so each is formatted on the stack and appended whole.
void appendShots(std::string& out, std::span<const Rect> shots) {
  char line[48];
  for (const Rect& s : shots) {
    char* p = std::to_chars(line, line + 11, s.x0).ptr;
    *p++ = ' ';
    p = std::to_chars(p, p + 11, s.y0).ptr;
    *p++ = ' ';
    p = std::to_chars(p, p + 11, s.x1).ptr;
    *p++ = ' ';
    p = std::to_chars(p, p + 11, s.y1).ptr;
    *p++ = '\n';
    out.append(line, p);
  }
}

}  // namespace

std::string formatBatchShots(std::span<const Solution> solutions) {
  std::size_t shots = 0;
  for (const Solution& sol : solutions) shots += sol.shots.size();
  std::string out;
  // Typical lines: ~40 bytes per section comment, ~28 per shot.
  out.reserve(40 * solutions.size() + 28 * shots);
  char head[96];
  for (std::size_t i = 0; i < solutions.size(); ++i) {
    const Solution& sol = solutions[i];
    char* p = head;
    const auto put = [&p](std::string_view text) {
      p = std::copy(text.begin(), text.end(), p);
    };
    put("# shape ");
    p = std::to_chars(p, head + sizeof head, i).ptr;
    put(": ");
    p = std::to_chars(p, head + sizeof head, sol.shotCount()).ptr;
    put(" shots, ");
    p = std::to_chars(p, head + sizeof head, sol.failingPixels()).ptr;
    put(sol.degraded ? " failing px, degraded\n" : " failing px\n");
    out.append(head, p);
    appendShots(out, sol.shots);
  }
  return out;
}

void writeBatchShots(std::ostream& os, std::span<const Solution> solutions) {
  const std::string text = formatBatchShots(solutions);
  os.write(text.data(), static_cast<std::streamsize>(text.size()));
}

bool saveShots(const std::string& path, std::span<const Rect> shots) {
  std::string out;
  appendShots(out, shots);
  return atomicWriteFile(path, out).ok();
}

}  // namespace mbf
