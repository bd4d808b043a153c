#include "audit/independent_checker.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"

namespace mbf {
namespace {

// --- .shots section parser --------------------------------------------

/// Reads one decimal integer. Fails when there is none, and — setting
/// `outOfRange` — when it lies outside [lo, hi] (strtoll's own overflow,
/// reported through ERANGE, included).
bool parseIntToken(const char*& p, long long lo, long long hi, long long& out,
                   bool& outOfRange) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(p, &end, 10);
  if (end == p) return false;
  if (errno == ERANGE || v < lo || v > hi) {
    outOfRange = true;
    return false;
  }
  p = end;
  out = v;
  return true;
}

constexpr long long kInt32Min = std::numeric_limits<std::int32_t>::min();
constexpr long long kInt32Max = std::numeric_limits<std::int32_t>::max();

bool consume(const char*& p, const char* literal) {
  const char* q = p;
  while (*literal != '\0') {
    if (*q != *literal) return false;
    ++q;
    ++literal;
  }
  p = q;
  return true;
}

/// "# shape <i>: <n> shots, <m> failing px[, degraded]"; <i> and <n>
/// must fit int32, <m> int64.
bool parseSectionHeader(const std::string& line, ShotSection& out,
                        bool& outOfRange) {
  const char* p = line.c_str();
  long long index = 0;
  long long shots = 0;
  long long failing = 0;
  if (!consume(p, "# shape ")) return false;
  if (!parseIntToken(p, kInt32Min, kInt32Max, index, outOfRange)) {
    return false;
  }
  if (!consume(p, ": ")) return false;
  if (!parseIntToken(p, kInt32Min, kInt32Max, shots, outOfRange)) {
    return false;
  }
  if (!consume(p, " shots, ")) return false;
  if (!parseIntToken(p, std::numeric_limits<long long>::min(),
                     std::numeric_limits<long long>::max(), failing,
                     outOfRange)) {
    return false;
  }
  if (!consume(p, " failing px")) return false;
  bool degraded = false;
  if (*p != '\0') {
    if (!consume(p, ", degraded") || *p != '\0') return false;
    degraded = true;
  }
  out.index = static_cast<int>(index);
  out.claimedShots = static_cast<int>(shots);
  out.claimedFailingPx = failing;
  out.claimedDegraded = degraded;
  out.shots.clear();
  return true;
}

/// "x0 y0 x1 y1": four int32s with nothing but whitespace around them.
bool parseShotLine(const std::string& line, Rect& out, bool& outOfRange) {
  const char* p = line.c_str();
  long long v[4];
  for (int i = 0; i < 4; ++i) {
    while (*p == ' ' || *p == '\t') ++p;
    if (!parseIntToken(p, kInt32Min, kInt32Max, v[i], outOfRange)) {
      return false;
    }
  }
  while (*p == ' ' || *p == '\t') ++p;
  if (*p != '\0') return false;
  out = {static_cast<int>(v[0]), static_cast<int>(v[1]),
         static_cast<int>(v[2]), static_cast<int>(v[3])};
  return true;
}

// --- audit helpers ----------------------------------------------------

/// The sanitation the per-shape driver applies before rasterizing
/// (mdp/layout sanitizeShape): normalize every ring, drop the ones that
/// collapse (< 3 vertices or zero area). Replicated here so the audit
/// reconstructs exactly the Problem the pipeline solved. The
/// self-intersection scan is deliberately NOT replicated — it only
/// selects the fallback path, it never changes the grid.
std::vector<Polygon> sanitizedRings(const LayoutShape& shape) {
  std::vector<Polygon> rings;
  for (const Polygon& original : shape.rings) {
    Polygon ring = original;
    ring.normalize();
    if (ring.size() < 3 || ring.area() == 0.0) continue;
    rings.push_back(std::move(ring));
  }
  return rings;
}

/// The auditor's own half-integer edge-profile table, derived from the
/// run's sigma / eta / sigma_back alone: T(k) = F(k - 1/2) with
/// F(t) = (1 - eta) Phi(t / sigma) + eta Phi(t / sigma_back), evaluated
/// while |t| < 4 * max sigma and saturated to 0 / 1 beyond — the profile
/// the model defines (DESIGN.md section 13). Built here rather than read
/// from ProximityModel, so a defect in the model's table cannot hide
/// from the audit.
class AuditProfileTable {
 public:
  explicit AuditProfileTable(const FractureParams& params) {
    const double sigma = params.sigma;
    const double eta = params.backscatterEta;
    const double sigmaBack =
        params.backscatterSigma > 0.0 ? params.backscatterSigma : sigma;
    const double reach = 4.0 * (eta > 0.0 ? std::max(sigma, sigmaBack) : sigma);
    half_ = static_cast<std::int64_t>(std::ceil(reach)) + 1;
    values_.reserve(static_cast<std::size_t>(2 * half_ + 1));
    for (std::int64_t k = -half_; k <= half_; ++k) {
      const double t = static_cast<double>(k) - 0.5;
      double f = t <= -reach ? 0.0 : 1.0;
      if (-reach < t && t < reach) {
        f = 0.5 * (1.0 + std::erf(t / sigma));
        if (eta > 0.0) {
          f = (1.0 - eta) * f + eta * (0.5 * (1.0 + std::erf(t / sigmaBack)));
        }
      }
      values_.push_back(f);
    }
  }

  double operator()(std::int64_t k) const {
    if (k < -half_) return 0.0;
    if (k > half_) return 1.0;
    return values_[static_cast<std::size_t>(k + half_)];
  }

 private:
  std::int64_t half_ = 0;  ///< the table covers k in [-half_, half_]
  std::vector<double> values_;
};

/// The audit's sameness key of one shape: its sanitized rings (counts,
/// then vertices) and its section's shots in order, every coordinate
/// minus the rings' bbox min corner, as raw int64 bytes. Two shapes with
/// equal keys are one (target, shots) pair translated by an integer
/// vector, which Problem's grid-local construction and the dense
/// evaluator's int64 table offsets score identically (DESIGN.md section
/// 16). Exact bytes, not a digest, and derived from what is audited
/// rather than from the run's cell keys.
std::string auditKey(const std::vector<Polygon>& rings,
                     std::span<const Rect> shots) {
  Rect box = rings.front().bbox();
  for (const Polygon& ring : rings) box = box.unionWith(ring.bbox());
  std::string key;
  const auto put = [&key](std::int64_t v) {
    key.append(reinterpret_cast<const char*>(&v), sizeof v);
  };
  put(static_cast<std::int64_t>(rings.size()));
  for (const Polygon& ring : rings) {
    put(static_cast<std::int64_t>(ring.size()));
    for (const Point& p : ring.vertices()) {
      put(std::int64_t{p.x} - box.x0);
      put(std::int64_t{p.y} - box.y0);
    }
  }
  put(static_cast<std::int64_t>(shots.size()));
  for (const Rect& shot : shots) {
    put(std::int64_t{shot.x0} - box.x0);
    put(std::int64_t{shot.y0} - box.y0);
    put(std::int64_t{shot.x1} - box.x0);
    put(std::int64_t{shot.y1} - box.y0);
  }
  return key;
}

std::string fmtDouble(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

}  // namespace

Status parseShotSections(const std::string& content,
                         std::vector<ShotSection>& out) {
  out.clear();
  std::istringstream is(content);
  std::string line;
  int lineNo = 0;
  while (std::getline(is, line)) {
    ++lineNo;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    std::size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos) continue;  // blank line
    const auto error = [&](const std::string& what) {
      return Status(StatusCode::kParseError,
                    "line " + std::to_string(lineNo) + ": " + what);
    };
    bool outOfRange = false;
    if (line[first] == '#') {
      ShotSection section;
      if (parseSectionHeader(line.substr(first), section, outOfRange)) {
        out.push_back(std::move(section));
        continue;
      }
      return error((outOfRange ? "section header number out of range: '"
                               : "malformed section header: '") +
                   line + "'");
    }
    Rect shot;
    if (!parseShotLine(line, shot, outOfRange)) {
      return error((outOfRange ? "shot coordinate outside the 32-bit range: '"
                               : "not an 'x0 y0 x1 y1' shot: '") +
                   line + "'");
    }
    if (out.empty()) return error("shot before the first '# shape' header");
    out.back().shots.push_back(shot);
  }
  return Status();
}

DenseViolations denseViolations(const Problem& problem,
                                std::span<const Rect> shots) {
  const ProximityModel& model = problem.model();
  const Point origin = problem.origin();
  const int width = problem.gridWidth();
  const int height = problem.gridHeight();
  const int radius = model.influenceRadiusPx();
  const double rho = model.rho();
  const AuditProfileTable profile(problem.params());

  // Per-shot influence window and separable 1D edge profiles: the same
  // truncation and the same scalar arithmetic the emission pipeline
  // applies, re-derived here from the model parameters alone.
  struct ShotProfile {
    Rect window;
    std::vector<double> ax;
    std::vector<double> by;
  };
  std::vector<ShotProfile> profiles(shots.size());
  for (std::size_t i = 0; i < shots.size(); ++i) {
    const Rect& shot = shots[i];
    // In int64: a shot anywhere in the plane (a tampered one included)
    // clamps onto the grid without overflowing.
    const auto onGrid = [](std::int64_t v, int size) {
      return static_cast<int>(std::clamp<std::int64_t>(v, 0, size));
    };
    Rect w{onGrid(std::int64_t{shot.x0} - origin.x - radius, width),
           onGrid(std::int64_t{shot.y0} - origin.y - radius, height),
           onGrid(std::int64_t{shot.x1} - origin.x + radius, width),
           onGrid(std::int64_t{shot.y1} - origin.y + radius, height)};
    if (w.x1 < w.x0) w.x1 = w.x0;
    if (w.y1 < w.y0) w.y1 = w.y0;
    ShotProfile& p = profiles[i];
    p.window = w;
    if (w.empty()) continue;
    p.ax.resize(static_cast<std::size_t>(w.width()));
    p.by.resize(static_cast<std::size_t>(w.height()));
    // Pixel x's centre is origin.x + x + 1/2, so an edge at e sits at
    // t = e - origin.x - x - 1/2: table entry k = e - origin.x - x.
    for (int x = w.x0; x < w.x1; ++x) {
      const std::int64_t c = std::int64_t{origin.x} + x;
      p.ax[static_cast<std::size_t>(x - w.x0)] =
          profile(shot.x1 - c) - profile(shot.x0 - c);
    }
    for (int y = w.y0; y < w.y1; ++y) {
      const std::int64_t c = std::int64_t{origin.y} + y;
      p.by[static_cast<std::size_t>(y - w.y0)] =
          profile(shot.y1 - c) - profile(shot.y0 - c);
    }
  }

  // Row-major gather: each pixel accumulates its covering shots in
  // shot-index order — the per-cell addition sequence of the pipeline —
  // then the row classifies against rho and its partial folds into the
  // total in row order.
  DenseViolations total;
  std::vector<double> row(static_cast<std::size_t>(width));
  const Grid<std::uint8_t>& classes = problem.classGrid();
  for (int y = 0; y < height; ++y) {
    std::fill(row.begin(), row.end(), 0.0);
    for (const ShotProfile& p : profiles) {
      const Rect& w = p.window;
      // An empty window (possible in x alone) has no profiles to read.
      if (w.empty() || y < w.y0 || y >= w.y1) continue;
      const double b = p.by[static_cast<std::size_t>(y - w.y0)];
      for (int x = w.x0; x < w.x1; ++x) {
        row[static_cast<std::size_t>(x)] +=
            p.ax[static_cast<std::size_t>(x - w.x0)] * b;
      }
    }
    DenseViolations partial;
    const std::uint8_t* cls = classes.row(y);
    for (int x = 0; x < width; ++x) {
      const double i = row[static_cast<std::size_t>(x)];
      switch (static_cast<PixelClass>(cls[x])) {
        case PixelClass::kOn:
          if (i < rho) {
            ++partial.failOn;
            partial.cost += rho - i;
          }
          break;
        case PixelClass::kOff:
          if (i >= rho) {
            ++partial.failOff;
            partial.cost += i - rho;
          }
          break;
        case PixelClass::kDontCare:
          break;
      }
    }
    total.failOn += partial.failOn;
    total.failOff += partial.failOff;
    total.cost += partial.cost;
  }
  return total;
}

std::string AuditReport::str() const {
  std::string out;
  for (const AuditFinding& f : findings) {
    if (f.shapeIndex >= 0) {
      out += "shape " + std::to_string(f.shapeIndex) + ": " + f.what + "\n";
    } else {
      out += "file: " + f.what + "\n";
    }
  }
  return out;
}

AuditReport auditShotSections(const std::vector<LayoutShape>& shapes,
                              const FractureParams& params,
                              std::span<const ShotSection> sections,
                              std::span<const ShapeExpectation> expectations,
                              int threads) {
  AuditReport report;
  for (const ShotSection& section : sections) {
    report.shots += static_cast<std::int64_t>(section.shots.size());
  }
  if (sections.size() != shapes.size()) {
    report.findings.push_back(
        {-1, "artifact holds " + std::to_string(sections.size()) +
                 " shape section(s) but the input layout has " +
                 std::to_string(shapes.size())});
  }
  if (expectations.size() != shapes.size()) {
    report.findings.push_back(
        {-1, "claims cover " + std::to_string(expectations.size()) +
                 " shape(s) but the input layout has " +
                 std::to_string(shapes.size())});
  }

  const std::size_t n = std::min(
      shapes.size(), std::min(sections.size(), expectations.size()));
  report.shapesAudited = static_cast<int>(n);

  // The audit must never trip the pipeline's execution budgets or fault
  // hooks — it re-derives grids with the result-relevant model
  // parameters only.
  FractureParams auditParams = params.withoutLimits();
  auditParams.numThreads = 1;

  // Pass 1, per shape: the checks that read the section and the claims
  // alone, then the audit key of every shape the dense check applies to.
  std::vector<std::vector<std::string>> findings(n);
  std::vector<std::string> keys(n);
  const int resolved = ThreadPool::resolveThreads(threads);
  parallelFor(0, static_cast<int>(n), resolved, 1, [&](int idx) {
    const auto i = static_cast<std::size_t>(idx);
    std::vector<std::string>& out = findings[i];
    const ShotSection& section = sections[i];
    const ShapeExpectation& expect = expectations[i];
    if (section.index != idx) {
      out.push_back("section header says shape " +
                    std::to_string(section.index) + ", expected " +
                    std::to_string(idx));
    }
    if (section.claimedShots !=
        static_cast<int>(section.shots.size())) {
      out.push_back("header claims " + std::to_string(section.claimedShots) +
                    " shots but the section contains " +
                    std::to_string(section.shots.size()));
    }
    if (section.claimedDegraded != expect.degraded) {
      out.push_back(std::string("degraded tag mismatch: artifact says ") +
                    (section.claimedDegraded ? "degraded" : "not degraded") +
                    ", claims say " +
                    (expect.degraded ? "degraded" : "not degraded"));
    }
    for (const Rect& shot : section.shots) {
      if (shot.x1 <= shot.x0 || shot.y1 <= shot.y0) {
        out.push_back("empty/inverted shot " + std::to_string(shot.x0) + " " +
                      std::to_string(shot.y0) + " " + std::to_string(shot.x1) +
                      " " + std::to_string(shot.y1));
        break;
      }
    }
    if (expect.method == "ours" && !expect.degraded) {
      for (const Rect& shot : section.shots) {
        if (shot.width() < params.lmin || shot.height() < params.lmin) {
          out.push_back("shot " + std::to_string(shot.x0) + " " +
                        std::to_string(shot.y0) + " " +
                        std::to_string(shot.x1) + " " +
                        std::to_string(shot.y1) + " violates Lmin=" +
                        std::to_string(params.lmin));
          break;
        }
      }
    }

    if (!expect.completed || expect.method == "empty") {
      // Failed / interrupted / nothing-printable shapes carry no shots
      // by design; their zeroed claims are not re-derivable from the
      // target, so the dense check does not apply.
      if (!section.shots.empty()) {
        out.push_back("run reported no result for this shape but the "
                      "artifact holds " +
                      std::to_string(section.shots.size()) + " shot(s)");
      }
      return;
    }

    const std::vector<Polygon> rings = sanitizedRings(shapes[i]);
    if (rings.empty()) {
      if (!section.shots.empty()) {
        out.push_back("every ring is degenerate, yet the artifact holds " +
                      std::to_string(section.shots.size()) + " shot(s)");
      }
      return;
    }
    keys[i] = auditKey(rings, section.shots);
  });

  // Pass 2: one Problem and one dense evaluation per distinct key, in
  // first-occurrence order.
  struct Evaluation {
    std::size_t shape = 0;  ///< the first shape with this key
    DenseViolations dense;
    std::optional<std::string> error;  ///< set when it could not be gridded
  };
  std::vector<Evaluation> evaluations;
  std::vector<int> evaluationOf(n, -1);
  {
    std::unordered_map<std::string_view, int> byKey;
    for (std::size_t i = 0; i < n; ++i) {
      if (keys[i].empty()) continue;
      const auto [it, added] =
          byKey.try_emplace(keys[i], static_cast<int>(evaluations.size()));
      if (added) evaluations.push_back({i, {}, {}});
      evaluationOf[i] = it->second;
    }
  }
  const int distinct = static_cast<int>(evaluations.size());
  report.denseEvaluations = distinct;
  parallelFor(0, distinct, resolved, 1, [&](int e) {
    Evaluation& ev = evaluations[static_cast<std::size_t>(e)];
    try {
      const Problem problem(sanitizedRings(shapes[ev.shape]), auditParams);
      ev.dense = denseViolations(problem, sections[ev.shape].shots);
    } catch (const std::exception& ex) {
      ev.error = ex.what();
    }
  });

  // Pass 3, per shape: its claims against its key's dense result.
  for (std::size_t i = 0; i < n; ++i) {
    if (evaluationOf[i] < 0) continue;
    const Evaluation& ev =
        evaluations[static_cast<std::size_t>(evaluationOf[i])];
    const ShotSection& section = sections[i];
    const ShapeExpectation& expect = expectations[i];
    std::vector<std::string>& out = findings[i];
    if (ev.error) {
      out.push_back("audit could not rasterize the shape: " + *ev.error);
      continue;
    }
    const DenseViolations& dense = ev.dense;
    if (dense.failOn + dense.failOff != section.claimedFailingPx) {
      out.push_back("header claims " +
                    std::to_string(section.claimedFailingPx) +
                    " failing px, dense re-evaluation finds " +
                    std::to_string(dense.failOn + dense.failOff));
    }
    if (dense.failOn != expect.failOn || dense.failOff != expect.failOff) {
      out.push_back("claimed fail_on/fail_off " +
                    std::to_string(expect.failOn) + "/" +
                    std::to_string(expect.failOff) +
                    ", dense re-evaluation finds " +
                    std::to_string(dense.failOn) + "/" +
                    std::to_string(dense.failOff));
    }
    if (expect.exactCost && dense.cost != expect.cost) {
      out.push_back("claimed cost " + fmtDouble(expect.cost) +
                    ", dense re-evaluation finds " + fmtDouble(dense.cost));
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    for (std::string& what : findings[i]) {
      report.findings.push_back({static_cast<int>(i), std::move(what)});
    }
  }
  return report;
}

}  // namespace mbf
