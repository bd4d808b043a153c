#include "mdp/layout.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <thread>
#include <utility>

#include "baselines/eda_proxy.h"
#include "baselines/greedy_set_cover.h"
#include "baselines/matching_pursuit.h"
#include "fracture/fallback.h"
#include "fracture/model_based_fracturer.h"
#include "mdp/hierarchy.h"
#include "support/fault_injector.h"
#include "support/interrupt.h"
#include "support/telemetry.h"

namespace mbf {

namespace {

/// The active boxes of an x sweep whose y range covers a point: a
/// segment tree over the distinct y coordinates, in which each box sits
/// in the O(log n) nodes that tile its range. A stab visits the nodes on
/// one root-to-leaf path. Erased boxes leave their nodes lazily: a node
/// is compacted once its dead entries outnumber its live ones, so a stab
/// costs O(log n) plus the live boxes covering the point.
class YStabbingTree {
 public:
  explicit YStabbingTree(std::vector<std::int32_t> ys) : ys_(std::move(ys)) {
    while (leaves_ < ys_.size()) leaves_ *= 2;
    nodes_.resize(2 * leaves_);
    dead_.resize(2 * leaves_, 0);
  }

  void insert(int id, const Rect& box) {
    forEachNode(box, [&](std::size_t node) { nodes_[node].push_back(id); });
  }

  /// `alive` must already say false for `id`.
  void erase(const Rect& box, const std::vector<char>& alive) {
    forEachNode(box, [&](std::size_t node) {
      std::vector<int>& list = nodes_[node];
      if (2 * ++dead_[node] > list.size()) {
        std::erase_if(list, [&](int id) {
          return alive[static_cast<std::size_t>(id)] == 0;
        });
        dead_[node] = 0;
      }
    });
  }

  /// Calls visit(id) for every box inserted and not erased whose y range
  /// holds `y` (a coordinate of some inserted box), and possibly for
  /// erased ones, which `alive` tells apart.
  template <typename Visit>
  void stab(std::int32_t y, Visit&& visit) const {
    for (std::size_t node = leaves_ + leaf(y); node >= 1; node /= 2) {
      for (const int id : nodes_[node]) visit(id);
    }
  }

 private:
  std::size_t leaf(std::int32_t y) const {
    return static_cast<std::size_t>(
        std::lower_bound(ys_.begin(), ys_.end(), y) - ys_.begin());
  }

  /// The canonical nodes of [leaf(y0), leaf(y1)].
  template <typename Fn>
  void forEachNode(const Rect& box, Fn&& fn) {
    std::size_t lo = leaves_ + leaf(box.y0);
    std::size_t hi = leaves_ + leaf(box.y1) + 1;
    for (; lo < hi; lo /= 2, hi /= 2) {
      if (lo & 1) fn(lo++);
      if (hi & 1) fn(--hi);
    }
  }

  std::vector<std::int32_t> ys_;  ///< sorted, distinct
  std::size_t leaves_ = 1;
  std::vector<std::vector<int>> nodes_;
  std::vector<std::size_t> dead_;
};

}  // namespace

std::vector<LayoutShape> groupRings(std::vector<Polygon> rings) {
  const std::size_t n = rings.size();
  std::vector<Rect> boxes;
  boxes.reserve(n);
  for (const Polygon& ring : rings) boxes.push_back(ring.bbox());
  // parent[i] = the lowest index j != i whose bbox contains ring i's and
  // whose ring contains ring i's representative point, or -1. Mask rings
  // never intersect, so one interior vertex decides. Only the rings whose
  // bbox contains ring i's are tested: a sweep in x keeps the boxes whose
  // x range holds the sweep position, and a y stabbing query at ring i's
  // lower edge narrows them to those covering its corner.
  std::vector<int> parent(n, -1);
  std::vector<std::int32_t> ys;
  ys.reserve(2 * n);
  for (const Rect& box : boxes) {
    ys.push_back(box.y0);
    ys.push_back(box.y1);
  }
  std::sort(ys.begin(), ys.end());
  ys.erase(std::unique(ys.begin(), ys.end()), ys.end());
  YStabbingTree active(std::move(ys));
  std::vector<int> byX0(n);
  std::vector<int> byX1(n);
  for (std::size_t i = 0; i < n; ++i) byX0[i] = byX1[i] = static_cast<int>(i);
  auto at = [&](int i) -> const Rect& {
    return boxes[static_cast<std::size_t>(i)];
  };
  std::sort(byX0.begin(), byX0.end(),
            [&](int a, int b) { return at(a).x0 < at(b).x0; });
  std::sort(byX1.begin(), byX1.end(),
            [&](int a, int b) { return at(a).x1 < at(b).x1; });
  std::vector<char> alive(n, 0);
  std::vector<int> containers;
  std::size_t gone = 0;
  for (std::size_t first = 0; first < n;) {
    // Every box starting at this x: a container of one of them starts no
    // later and ends no earlier, so it is active once the boxes ending
    // before x are gone and these are in.
    const std::int32_t x = at(byX0[first]).x0;
    for (; gone < n && at(byX1[gone]).x1 < x; ++gone) {
      alive[static_cast<std::size_t>(byX1[gone])] = 0;
      active.erase(at(byX1[gone]), alive);
    }
    std::size_t last = first;
    for (; last < n && at(byX0[last]).x0 == x; ++last) {
      alive[static_cast<std::size_t>(byX0[last])] = 1;
      active.insert(byX0[last], at(byX0[last]));
    }
    for (; first < last; ++first) {
      const auto i = static_cast<std::size_t>(byX0[first]);
      containers.clear();
      active.stab(boxes[i].y0, [&](int j) {
        const auto u = static_cast<std::size_t>(j);
        if (u != i && alive[u] != 0 && boxes[u].contains(boxes[i])) {
          containers.push_back(j);
        }
      });
      if (containers.empty()) continue;
      std::sort(containers.begin(), containers.end());
      const Vec2 probe = toVec2(rings[i][0]) + Vec2{0.25, 0.25};
      for (const int j : containers) {
        if (rings[static_cast<std::size_t>(j)].contains(probe)) {
          parent[i] = j;
          break;
        }
      }
    }
  }
  std::vector<LayoutShape> shapes;
  std::vector<int> shapeOf(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    if (parent[i] < 0) {
      shapeOf[i] = static_cast<int>(shapes.size());
      shapes.emplace_back();
      shapes.back().rings.push_back(std::move(rings[i]));
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (parent[i] >= 0) {
      const int owner = shapeOf[static_cast<std::size_t>(parent[i])];
      if (owner >= 0) {
        shapes[static_cast<std::size_t>(owner)].rings.push_back(
            std::move(rings[i]));
      }
    }
  }
  return shapes;
}

const char* toString(Method method) {
  switch (method) {
    case Method::kOurs: return "ours";
    case Method::kGsc: return "gsc";
    case Method::kMp: return "mp";
    case Method::kProxy: return "proxy";
  }
  return "?";
}

bool parseMethod(const std::string& text, Method& out) {
  if (text == "ours") {
    out = Method::kOurs;
  } else if (text == "gsc") {
    out = Method::kGsc;
  } else if (text == "mp") {
    out = Method::kMp;
  } else if (text == "proxy") {
    out = Method::kProxy;
  } else {
    return false;
  }
  return true;
}

namespace {

Solution fractureProblem(const Problem& problem, Method method,
                         RefinerStats* statsOut) {
  switch (method) {
    case Method::kOurs: {
      const ModelBasedFracturer fracturer;
      Solution sol = fracturer.fracture(problem);
      if (statsOut != nullptr) *statsOut = fracturer.lastRefinerStats();
      return sol;
    }
    case Method::kGsc:
      return GreedySetCover{}.fracture(problem);
    case Method::kMp:
      return MatchingPursuit{}.fracture(problem);
    case Method::kProxy:
      return EdaProxy{}.fracture(problem);
  }
  return {};
}

std::int64_t orient(Point a, Point b, Point c) {
  return static_cast<std::int64_t>(b.x - a.x) * (c.y - a.y) -
         static_cast<std::int64_t>(b.y - a.y) * (c.x - a.x);
}

bool onSegment(Point a, Point b, Point p) {
  return orient(a, b, p) == 0 && std::min(a.x, b.x) <= p.x &&
         p.x <= std::max(a.x, b.x) && std::min(a.y, b.y) <= p.y &&
         p.y <= std::max(a.y, b.y);
}

bool segmentsIntersect(Point a, Point b, Point c, Point d) {
  const std::int64_t o1 = orient(a, b, c);
  const std::int64_t o2 = orient(a, b, d);
  const std::int64_t o3 = orient(c, d, a);
  const std::int64_t o4 = orient(c, d, b);
  if (((o1 > 0) != (o2 > 0)) && o1 != 0 && o2 != 0 &&
      ((o3 > 0) != (o4 > 0)) && o3 != 0 && o4 != 0) {
    return true;
  }
  if (o1 == 0 && onSegment(a, b, c)) return true;
  if (o2 == 0 && onSegment(a, b, d)) return true;
  if (o3 == 0 && onSegment(c, d, a)) return true;
  if (o4 == 0 && onSegment(c, d, b)) return true;
  return false;
}

/// Shape-size cap on the O(n^2) self-intersection scan; dense staircase
/// rings (ILT contours run to thousands of vertices) skip the check
/// rather than pay quadratic time on the hot path.
constexpr std::size_t kSelfIntersectCheckMaxVerts = 512;

bool ringSelfIntersects(const Polygon& ring) {
  const std::size_t n = ring.size();
  if (n < 4 || n > kSelfIntersectCheckMaxVerts) return false;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      // Edges sharing a vertex (cyclically adjacent) always "intersect"
      // there; only non-adjacent pairs indicate a defect.
      if (j == i + 1 || (i == 0 && j == n - 1)) continue;
      if (segmentsIntersect(ring[i], ring.wrapped(i + 1), ring[j],
                            ring.wrapped(j + 1))) {
        return true;
      }
    }
  }
  return false;
}

struct SanitizedShape {
  LayoutShape shape;
  /// kOk when nothing was repaired; kOk-with-message when degenerate
  /// rings were dropped; kInvalidArgument when nothing usable remains or
  /// a ring self-intersects (the latter with forceFallback set).
  Status status;
  bool forceFallback = false;
};

SanitizedShape sanitizeShape(const LayoutShape& in) {
  SanitizedShape out;
  int dropped = 0;
  for (const Polygon& original : in.rings) {
    Polygon ring = original;
    ring.normalize();
    // A ring that collapses under normalization (duplicate or collinear
    // vertices only) or encloses no area contributes nothing printable.
    if (ring.size() < 3 || ring.area() == 0.0) {
      ++dropped;
      continue;
    }
    if (ringSelfIntersects(ring)) out.forceFallback = true;
    out.shape.rings.push_back(std::move(ring));
  }
  if (out.shape.rings.empty()) {
    out.status = Status(StatusCode::kInvalidArgument,
                        "no usable ring: every ring is degenerate "
                        "(collapsed, < 3 vertices, or zero area)");
  } else if (out.forceFallback) {
    out.status = Status(StatusCode::kInvalidArgument,
                        "self-intersecting ring; the model-based flow "
                        "requires simple rings");
  } else if (dropped > 0) {
    out.status = Status(StatusCode::kOk,
                        "dropped " + std::to_string(dropped) +
                            " degenerate ring(s) during sanitation");
  }
  return out;
}

}  // namespace

Solution fractureShape(const LayoutShape& shape, const FractureParams& params,
                       Method method, RefinerStats* statsOut) {
  // Per-job state: the Problem rasterizes the shape's rings onto a grid
  // inflated by the gamma + 3*sigma influence halo, so concurrent jobs
  // share nothing but the read-only inputs.
  const Problem problem(shape.rings, params);
  return fractureProblem(problem, method, statsOut);
}

namespace {

/// kHang: a hard, non-cooperative hang. Deliberately past every budget
/// checkpoint — only an external watchdog (mdp/supervisor) ends it.
[[noreturn]] void hangForever() {
  for (;;) {
    std::this_thread::sleep_for(std::chrono::hours(1));
  }
}

}  // namespace

ShapeOutcome fractureShapeGuarded(const LayoutShape& shape,
                                  const FractureParams& params, Method method,
                                  int shapeIndex, bool allowDegradation,
                                  RefinerStats* statsOut,
                                  const char* fallbackOnly) {
  TraceScope traceShape("shape", shapeIndex);
  ShapeOutcome out;

  if (interruptRequested()) {
    // Graceful drain: shapes not yet started stay untouched so a resumed
    // run redoes them. Not "degraded" — nothing was attempted, and the
    // journal must not record this as a finished (empty) solution.
    out.status = Status(StatusCode::kBudgetExceeded,
                        "interrupted before fracturing started (graceful "
                        "drain); resume the run to finish this shape")
                     .withShape(shapeIndex);
    out.interrupted = true;
    out.solution.method = "empty";
    return out;
  }

  SanitizedShape clean = sanitizeShape(shape);

  if (clean.shape.rings.empty()) {
    // Nothing printable: an empty shot list is the (trivially feasible)
    // right answer, but the shape is reported so the batch surfaces it.
    out.status = clean.status.withShape(shapeIndex);
    if (allowDegradation) {
      out.degraded = true;
      out.solution.degraded = true;
      out.solution.method = "empty";
    }
    return out;
  }

  // fallbackOnly skips the primary path AND the injector: the injected
  // crash already killed a worker once, re-arming it here would poison
  // the recovery attempt the mode exists for.
  const FaultKind fault =
      params.faultInjector != nullptr && fallbackOnly == nullptr
          ? params.faultInjector->faultFor(shapeIndex)
          : FaultKind::kNone;
  if (fault == FaultKind::kCrash) std::abort();
  if (fault == FaultKind::kHang) hangForever();

  Status failure;
  bool failed = false;
  if (fallbackOnly != nullptr) {
    failure = Status(StatusCode::kExecFault,
                     std::string("primary path skipped: ") + fallbackOnly)
                  .withShape(shapeIndex);
    failed = true;
  } else if (clean.forceFallback) {
    failure = clean.status.withShape(shapeIndex);
    failed = true;
  } else {
    try {
      // kOom simulates the primary path's grid allocation failing.
      if (fault == FaultKind::kOom) throw std::bad_alloc();
      ExecContext ctx;
      ctx.shapeIndex = shapeIndex;
      ctx.deadline = fault == FaultKind::kTimeout
                         ? Deadline::expired()
                         : Deadline::afterMs(params.shapeTimeBudgetMs);
      Problem problem(clean.shape.rings, params);
      problem.setExecContext(&ctx);
      // First checkpoint before any stage, so an injected timeout fires
      // at the same deterministic point for every method.
      problem.checkpoint("fracture-start");
      if (fault == FaultKind::kThrow) {
        throw InjectedFaultError("injected fault (kThrow)");
      }
      Solution sol = fractureProblem(problem, method, statsOut);
      if (sol.shots.empty() && problem.numOnPixels() > 0) {
        failure = Status(StatusCode::kInternal,
                         "primary method produced no shots for a "
                         "non-empty target")
                      .withShape(shapeIndex);
        failed = true;
      } else {
        out.solution = std::move(sol);
        out.status = clean.status;  // ok, possibly with a sanitation note
        if (!out.status.ok() || !out.status.message().empty()) {
          out.status.withShape(shapeIndex);
        }
        return out;
      }
    } catch (const BudgetExceededError& e) {
      failure = e.status();
      failure.withShape(shapeIndex);
      failed = true;
    } catch (const std::bad_alloc&) {
      failure = Status(StatusCode::kResourceExhausted,
                       "allocation failure in the primary fracture path")
                    .withShape(shapeIndex);
      failed = true;
    } catch (const std::exception& e) {
      failure = Status(StatusCode::kExecFault, e.what()).withShape(shapeIndex);
      failed = true;
    } catch (...) {
      failure = Status(StatusCode::kExecFault,
                       "unknown exception in the primary fracture path")
                    .withShape(shapeIndex);
      failed = true;
    }
  }

  out.status = failure;
  if (statsOut != nullptr) *statsOut = {};  // discard the failed attempt
  if (!allowDegradation || !failed) return out;

  // Degradation ladder, rung 2: rect-partition fallback on a budget-free
  // problem (the fallback is bounded by construction, and a fallback
  // that re-times-out would leave the shape with nothing at all).
  try {
    const Problem problem(clean.shape.rings, params.withoutLimits());
    out.solution = fallbackFracture(problem);
  } catch (const std::exception& e) {
    // Rung 3: even the fallback failed (true OOM, degenerate beyond
    // rasterization). Keep the batch alive with an empty solution.
    out.solution = {};
    out.solution.method = "empty";
    out.status = Status(StatusCode::kResourceExhausted,
                        std::string("fallback fracture also failed: ") +
                            e.what())
                     .withShape(shapeIndex);
  }
  out.solution.degraded = true;
  out.degraded = true;
  return out;
}

std::string resultConfigBytes(const BatchConfig& config) {
  std::string bytes;
  auto put = [&](const char*, const auto& field) {
    bytes.append(reinterpret_cast<const char*>(&field), sizeof field);
  };
  forEachResultField(config.params, put);
  put("method", config.method);
  put("allow_degradation", config.allowDegradation);
  return bytes;
}

void mergeBatchAggregates(BatchResult& result,
                          const std::vector<RefinerStats>& shapeStats) {
  result.totalShots = 0;
  result.totalFailingPixels = 0;
  result.shapeSecondsSum = 0.0;
  result.degradedShapes = 0;
  result.interruptedShapes = 0;
  result.refinerStats = {};
  // Deterministic merge in input order, identical for every driver and
  // thread count.
  for (std::size_t i = 0; i < result.solutions.size(); ++i) {
    const Solution& sol = result.solutions[i];
    result.totalShots += sol.shotCount();
    result.totalFailingPixels += sol.failingPixels();
    result.shapeSecondsSum += sol.runtimeSeconds;
    if (i < shapeStats.size()) result.refinerStats += shapeStats[i];
    if (i < result.reports.size() && result.reports[i].degraded) {
      ++result.degradedShapes;
    }
    if (i < result.reports.size() && result.reports[i].interrupted) {
      ++result.interruptedShapes;
    }
  }
}

BatchResult fractureLayout(const std::vector<LayoutShape>& shapes,
                           const BatchConfig& config) {
  HierPlan plan;
  const Status planned = planFlatLayout(shapes, config, plan);
  if (!planned.ok()) throw std::invalid_argument(planned.str());
  HierarchicalResult run;
  (void)fracturePlan(plan, config, HierOptions{}, run);
  return std::move(run.batch);
}

}  // namespace mbf
