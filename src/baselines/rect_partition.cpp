#include "baselines/rect_partition.h"

#include <algorithm>
#include <cassert>
#include <queue>

#include "geometry/rasterizer.h"
#include "graph/matching.h"
#include "grid/grid.h"

namespace mbf {
namespace {

struct Chord {
  Point a, b;      // endpoints (concave vertices), a <= b on the chord axis
  bool horizontal; // axis
};

// Walls between unit cells. hWall(x, y): wall on the lattice line y
// between cell (x, y-1) and (x, y). vWall(x, y): wall on lattice line x
// between cell (x-1, y) and (x, y). Indices are grid-local.
struct Walls {
  MaskGrid h;  // (w) x (h+1)
  MaskGrid v;  // (w+1) x (h)
  Walls(int w, int ht) : h(w, ht + 1, 0), v(w + 1, ht, 0) {}
};

// True when the open chord segment lies strictly inside the polygon:
// every unit cell along both sides of the chord line is inside the mask.
// (Chord endpoints are polygon vertices, so touching the boundary at the
// ends is fine.)
bool chordInside(const MaskGrid& inside, const Chord& c, Point origin) {
  if (c.horizontal) {
    const int y = c.a.y - origin.y;
    for (int x = c.a.x - origin.x; x < c.b.x - origin.x; ++x) {
      if (!inside.get(x, y - 1) || !inside.get(x, y)) return false;
    }
  } else {
    const int x = c.a.x - origin.x;
    for (int y = c.a.y - origin.y; y < c.b.y - origin.y; ++y) {
      if (!inside.get(x - 1, y) || !inside.get(x, y)) return false;
    }
  }
  return true;
}

bool chordsConflict(const Chord& h, const Chord& v) {
  // h horizontal, v vertical. Conflict = proper crossing or shared
  // endpoint (each concave vertex may resolve through one chord only).
  if (h.a == v.a || h.a == v.b || h.b == v.a || h.b == v.b) return true;
  return h.a.x <= v.a.x && v.a.x <= h.b.x && v.a.y <= h.a.y &&
         h.a.y <= v.b.y;
}

void drawChord(Walls& walls, const Chord& c, Point origin) {
  if (c.horizontal) {
    const int y = c.a.y - origin.y;
    for (int x = c.a.x - origin.x; x < c.b.x - origin.x; ++x) {
      walls.h.at(x, y) = 1;
    }
  } else {
    const int x = c.a.x - origin.x;
    for (int y = c.a.y - origin.y; y < c.b.y - origin.y; ++y) {
      walls.v.at(x, y) = 1;
    }
  }
}

// Extends the vertical edge incident at concave vertex `vtx` through the
// interior until it hits the polygon boundary or an existing cut, adding
// vertical walls along the way. `dirUp` selects the extension direction.
void drawRay(const MaskGrid& inside, Walls& walls, Point vtx, bool dirUp,
             Point origin) {
  const int x = vtx.x - origin.x;
  int y = vtx.y - origin.y;
  while (true) {
    const int cellY = dirUp ? y : y - 1;
    if (!inside.get(x - 1, cellY) || !inside.get(x, cellY)) break;
    // A horizontal wall meeting this lattice point ends the ray
    // (T-junction against an earlier chord or ray).
    const int latticeY = dirUp ? y : y;
    if (walls.h.get(x - 1, latticeY) || walls.h.get(x, latticeY)) break;
    walls.v.at(x, cellY) = 1;
    y += dirUp ? 1 : -1;
  }
}

}  // namespace

PartitionResult minRectPartition(const Polygon& input) {
  PartitionResult result;
  Polygon poly = input;
  poly.normalize();
  poly.makeCounterClockwise();
  assert(poly.isRectilinear());

  const Rect box = poly.bbox();
  const Point origin = box.bl();
  MaskGrid inside(box.width(), box.height(), 0);
  rasterizePolygon(poly, origin, inside);

  // Concave (reflex) vertices of a CCW rectilinear polygon: negative turn.
  const std::size_t n = poly.size();
  std::vector<Point> concave;
  std::vector<bool> concaveVertEdgeUp;  // direction to extend the ray
  for (std::size_t i = 0; i < n; ++i) {
    const Point prev = poly.wrapped(i + n - 1);
    const Point cur = poly.wrapped(i);
    const Point next = poly.wrapped(i + 1);
    const std::int64_t crossZ =
        static_cast<std::int64_t>(cur.x - prev.x) * (next.y - cur.y) -
        static_cast<std::int64_t>(cur.y - prev.y) * (next.x - cur.x);
    if (crossZ < 0) {
      concave.push_back(cur);
      // The incident vertical edge is either (prev->cur) or (cur->next).
      // Extend it beyond `cur`, i.e. into the interior.
      if (prev.x == cur.x) {
        concaveVertEdgeUp.push_back(cur.y > prev.y);
      } else {
        concaveVertEdgeUp.push_back(next.y < cur.y);
      }
    }
  }
  result.concaveVertices = static_cast<int>(concave.size());

  // Candidate chords between co-linear concave vertices, interior-only.
  std::vector<Chord> hChords;
  std::vector<Chord> vChords;
  for (std::size_t i = 0; i < concave.size(); ++i) {
    for (std::size_t j = i + 1; j < concave.size(); ++j) {
      Point a = concave[i];
      Point b = concave[j];
      if (a.y == b.y && a.x != b.x) {
        if (a.x > b.x) std::swap(a, b);
        const Chord c{a, b, true};
        if (chordInside(inside, c, origin)) hChords.push_back(c);
      } else if (a.x == b.x && a.y != b.y) {
        if (a.y > b.y) std::swap(a, b);
        const Chord c{a, b, false};
        if (chordInside(inside, c, origin)) vChords.push_back(c);
      }
    }
  }

  // Maximum independent set of chords via König's theorem.
  std::vector<std::vector<int>> adj(hChords.size());
  for (std::size_t i = 0; i < hChords.size(); ++i) {
    for (std::size_t j = 0; j < vChords.size(); ++j) {
      if (chordsConflict(hChords[i], vChords[j])) {
        adj[i].push_back(static_cast<int>(j));
      }
    }
  }
  const BipartiteCover cover = minimumVertexCover(
      static_cast<int>(hChords.size()), static_cast<int>(vChords.size()), adj);

  Walls walls(box.width(), box.height());
  std::vector<char> resolved(concave.size(), 0);
  auto markResolved = [&](Point p) {
    for (std::size_t k = 0; k < concave.size(); ++k) {
      if (concave[k] == p) resolved[k] = 1;
    }
  };
  int used = 0;
  for (std::size_t i = 0; i < hChords.size(); ++i) {
    if (!cover.left[i]) {  // not in cover -> in the independent set
      drawChord(walls, hChords[i], origin);
      markResolved(hChords[i].a);
      markResolved(hChords[i].b);
      ++used;
    }
  }
  for (std::size_t j = 0; j < vChords.size(); ++j) {
    if (!cover.right[j]) {
      drawChord(walls, vChords[j], origin);
      markResolved(vChords[j].a);
      markResolved(vChords[j].b);
      ++used;
    }
  }
  result.independentChords = used;

  // Unresolved concave vertices: extend the incident vertical edge.
  for (std::size_t k = 0; k < concave.size(); ++k) {
    if (!resolved[k]) {
      drawRay(inside, walls, concave[k], concaveVertEdgeUp[k], origin);
    }
  }

  // Faces = connected components of inside cells under the walls.
  Grid<std::int32_t> label(box.width(), box.height(), -1);
  for (int y0 = 0; y0 < box.height(); ++y0) {
    for (int x0 = 0; x0 < box.width(); ++x0) {
      if (!inside.at(x0, y0) || label.at(x0, y0) >= 0) continue;
      const std::int32_t id = static_cast<std::int32_t>(result.rects.size());
      Rect face{x0, y0, x0 + 1, y0 + 1};
      std::int64_t cells = 0;
      std::queue<Point> q;
      q.push({x0, y0});
      label.at(x0, y0) = id;
      while (!q.empty()) {
        const Point p = q.front();
        q.pop();
        ++cells;
        face.x0 = std::min(face.x0, p.x);
        face.y0 = std::min(face.y0, p.y);
        face.x1 = std::max(face.x1, p.x + 1);
        face.y1 = std::max(face.y1, p.y + 1);
        // Right neighbour unless a vertical wall at lattice x = p.x + 1.
        auto tryGo = [&](int nx, int ny) {
          if (inside.inBounds(nx, ny) && inside.at(nx, ny) &&
              label.at(nx, ny) < 0) {
            label.at(nx, ny) = id;
            q.push({nx, ny});
          }
        };
        if (!walls.v.get(p.x + 1, p.y)) tryGo(p.x + 1, p.y);
        if (!walls.v.get(p.x, p.y)) tryGo(p.x - 1, p.y);
        if (!walls.h.get(p.x, p.y + 1)) tryGo(p.x, p.y + 1);
        if (!walls.h.get(p.x, p.y)) tryGo(p.x, p.y - 1);
      }
      // Every face of the cut arrangement must be a full rectangle.
      assert(cells == face.area());
      (void)cells;
      result.rects.push_back(
          {face.x0 + origin.x, face.y0 + origin.y, face.x1 + origin.x,
           face.y1 + origin.y});
    }
  }
  return result;
}

}  // namespace mbf
