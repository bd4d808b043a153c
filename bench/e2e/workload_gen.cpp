#include "workload_gen.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "benchgen/ilt_synth.h"
#include "benchgen/opc_synth.h"
#include "io/gdsii.h"
#include "io/poly_io.h"

namespace mbf::e2e {
namespace {

// Benchmark sizes (scaleDiv == 1), chosen so that one run of each
// workload with its set-up, reps, --verify and traced run fits the
// benchmark's time budget (README.md, "Sizing").
constexpr int kIltClips = 40;
constexpr int kOpcRows = 20;
constexpr int kOpcClipsPerRow = 12;
constexpr int kChipCells = 24;  ///< unique standard cells
constexpr int kChipRowTypes = 4;
constexpr int kChipCellsPerRow = 12;  ///< rowTypes * cellsPerRow = 2 * cells
constexpr int kChipArefRows = 8;      ///< AREF repeats of each ROW per BLOCK
constexpr int kChipBlocks = 4;        ///< BLOCK placements in TOP

constexpr int kPitch = 1000;   ///< nm between clip slots: halos never meet
constexpr int kJitter = 250;   ///< nm of seeded per-clip placement slack

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Deterministic stream of the seed: one per generator purpose, so the
/// draws of one workload part never shift those of another.
class Rng {
 public:
  Rng(std::uint64_t seed, std::uint64_t purpose)
      : state_(splitmix64(seed ^ (purpose << 48))) {}
  std::uint64_t next() { return state_ = splitmix64(state_); }
  int below(int n) {
    return static_cast<int>(next() % static_cast<std::uint64_t>(n));
  }

 private:
  std::uint64_t state_;
};

/// Fisher-Yates with a fixed draw sequence (std::shuffle's is
/// implementation-defined).
template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[static_cast<std::size_t>(
                            rng.below(static_cast<int>(i)))]);
  }
}

// The clips themselves do not depend on the seed: clip k of a workload
// is always the same geometry. Fracturing is exactly invariant under
// whole-nm translation, so seeded placements change the input bytes and
// every output coordinate but not the work, keeping seed-to-seed spread
// a property of the machine. (Seeded clip geometry was measured to move
// the total work by 9-24% IQR between seeds; README.md, "Seeds".)
Polygon iltClip(int k) {
  IltSynthConfig cfg = iltSuiteConfigs()[static_cast<std::size_t>(k % 10)];
  cfg.seed += static_cast<std::uint32_t>(10 * (k / 10));
  return makeIltShape(cfg);
}

Polygon opcClip(int k) {
  return makeOpcShape(opcSuiteConfigs()[static_cast<std::size_t>(k % 10)]);
}

/// Moves `p` so its bounding box starts at `at`.
Polygon placed(Polygon p, Point at) {
  const Rect box = p.bbox();
  p.translate({at.x - box.x0, at.y - box.y0});
  return p;
}

Point jitter(Rng& rng) { return {rng.below(kJitter), rng.below(kJitter)}; }

std::string gdsBytes(const GdsLibrary& lib) {
  std::ostringstream os;
  writeGds(os, lib);
  return os.str();
}

/// Unique ILT clips in a fixed (processing) order; the seed permutes
/// which grid slot each clip lands in and jitters it inside the slot.
GeneratedInput iltFlat(std::uint64_t seed, int scaleDiv) {
  const int clips = std::max(1, kIltClips / scaleDiv);
  Rng rng(seed, 1);
  std::vector<int> slot(static_cast<std::size_t>(clips));
  for (int k = 0; k < clips; ++k) slot[static_cast<std::size_t>(k)] = k;
  shuffle(slot, rng);
  std::vector<Polygon> rings;
  for (int k = 0; k < clips; ++k) {
    const int s = slot[static_cast<std::size_t>(k)];
    rings.push_back(
        placed(iltClip(k), Point{(s % 10) * kPitch, (s / 10) * kPitch} +
                               jitter(rng)));
  }
  std::ostringstream os;
  writePolygons(os, rings);
  return {"input.poly", os.str(), clips, clips};
}

/// Rows of the ten suite OPC clips, each clip equally often, in a
/// seeded order with seeded spacing.
GeneratedInput opcRows(std::uint64_t seed, int scaleDiv) {
  const int rows = std::max(1, kOpcRows / scaleDiv);
  Rng rng(seed, 2);
  std::vector<int> slots(static_cast<std::size_t>(rows * kOpcClipsPerRow));
  for (std::size_t s = 0; s < slots.size(); ++s) {
    slots[s] = static_cast<int>(s % 10);
  }
  shuffle(slots, rng);

  GdsStructure top;
  top.name = "TOP";
  for (int r = 0; r < rows; ++r) {
    int x = 0;
    for (int c = 0; c < kOpcClipsPerRow; ++c) {
      GdsPolygon gp;
      gp.polygon = placed(
          opcClip(slots[static_cast<std::size_t>(r * kOpcClipsPerRow + c)]),
          Point{x, r * kPitch} + jitter(rng));
      x = gp.polygon.bbox().x1 + kPitch / 2;
      top.polygons.push_back(std::move(gp));
    }
  }
  GdsLibrary lib;
  lib.structures.push_back(std::move(top));
  return {"input.gds", gdsBytes(lib), rows * kOpcClipsPerRow, 10};
}

/// Standard cells (two OPC clips + one ILT clip each) in ROWs, ROWs
/// arrayed into a BLOCK by AREFs, BLOCKs placed in TOP. The seed fills
/// the ROWs (every cell twice over all ROW types, so instance counts
/// and total shots do not depend on it) and places the BLOCKs.
GeneratedInput chip(std::uint64_t seed, int scaleDiv) {
  const int arefRows = std::max(1, kChipArefRows / scaleDiv);
  Rng rng(seed, 3);
  GdsLibrary lib;

  for (int u = 0; u < kChipCells; ++u) {
    GdsStructure cell;
    cell.name = "CELL" + std::to_string(u);
    const Polygon clips[3] = {opcClip(2 * u), opcClip(2 * u + 1),
                              iltClip(u)};
    for (int s = 0; s < 3; ++s) {
      GdsPolygon gp;
      gp.polygon = placed(clips[s], {s * kPitch, 0});
      cell.polygons.push_back(std::move(gp));
    }
    lib.structures.push_back(std::move(cell));
  }
  constexpr int kCellWidth = 3 * kPitch;

  std::vector<int> order(
      static_cast<std::size_t>(kChipRowTypes * kChipCellsPerRow));
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<int>(i % kChipCells);
  }
  shuffle(order, rng);
  for (int r = 0; r < kChipRowTypes; ++r) {
    GdsStructure row;
    row.name = "ROW" + std::to_string(r);
    for (int c = 0; c < kChipCellsPerRow; ++c) {
      const int cell =
          order[static_cast<std::size_t>(r * kChipCellsPerRow + c)];
      row.srefs.push_back(
          {"CELL" + std::to_string(cell), {c * kCellWidth, 0}});
    }
    lib.structures.push_back(std::move(row));
  }

  GdsStructure block;
  block.name = "BLOCK";
  for (int r = 0; r < kChipRowTypes; ++r) {
    GdsAref aref;
    aref.structName = "ROW" + std::to_string(r);
    aref.origin = {0, r * kPitch};
    aref.rows = arefRows;
    aref.rowPitch = {0, kChipRowTypes * kPitch};
    block.arefs.push_back(aref);
  }
  lib.structures.push_back(std::move(block));

  // BLOCKs side by side near the origin, plus one just inside each
  // int32 coordinate limit.
  const int blockWidth = kChipCellsPerRow * kCellWidth;
  const int margin = 100000 + rng.below(kPitch);
  GdsStructure top;
  top.name = "TOP";
  for (int b = 0; b < kChipBlocks - 2; ++b) {
    top.srefs.push_back(
        {"BLOCK", Point{b * (blockWidth + kPitch), 0} + jitter(rng)});
  }
  top.srefs.push_back(
      {"BLOCK",
       {std::numeric_limits<std::int32_t>::max() - blockWidth - margin,
        rng.below(kPitch)}});
  top.srefs.push_back({"BLOCK",
                       {std::numeric_limits<std::int32_t>::min() + margin,
                        -rng.below(kPitch)}});
  lib.structures.push_back(std::move(top));

  const std::int64_t shapes =
      3LL * kChipCellsPerRow * kChipRowTypes * arefRows * kChipBlocks;
  return {"input.gds", gdsBytes(lib), shapes, 3LL * kChipCells};
}

}  // namespace

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names = {
      "ilt_flat", "opc_rows_isolate", "chip_hier_cold", "chip_hier_warm"};
  return names;
}

bool isWorkload(const std::string& name) {
  const auto& names = workloadNames();
  return std::find(names.begin(), names.end(), name) != names.end();
}

GeneratedInput generateWorkload(const std::string& name, std::uint64_t seed,
                                int scaleDiv) {
  if (name == "ilt_flat") return iltFlat(seed, scaleDiv);
  if (name == "opc_rows_isolate") return opcRows(seed, scaleDiv);
  return chip(seed, scaleDiv);
}

}  // namespace mbf::e2e
