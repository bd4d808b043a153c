#include "io/poly_io.h"

#include <fstream>
#include <sstream>

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

void writeShots(std::ostream& os, std::span<const Rect> shots) {
  for (const Rect& s : shots) {
    os << s.x0 << " " << s.y0 << " " << s.x1 << " " << s.y1 << "\n";
  }
}

void writeBatchShots(std::ostream& os, std::span<const Solution> solutions) {
  for (std::size_t i = 0; i < solutions.size(); ++i) {
    os << "# shape " << i << ": " << solutions[i].shotCount() << " shots, "
       << solutions[i].failingPixels() << " failing px"
       << (solutions[i].degraded ? ", degraded" : "") << "\n";
    writeShots(os, solutions[i].shots);
  }
}

bool saveShots(const std::string& path, std::span<const Rect> shots) {
  std::ostringstream os;
  writeShots(os, shots);
  return atomicWriteFile(path, os.str()).ok();
}

}  // namespace mbf
