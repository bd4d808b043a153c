// Renders the pipeline stages of one clip as SVG files (the library's
// equivalent of the paper's figures 1, 3 and 4):
//   stage0_target.svg    -- the wavy traced target polygon
//   stage1_rdp.svg       -- RDP-simplified boundary over the target
//   stage2_corners.svg   -- clustered shot corner points (colored by type)
//   stage3_coloring.svg  -- initial shots from graph coloring
//   stage4_refined.svg   -- final shots after iterative refinement
//
//   $ ./visualize [seed]
//
#include <cstdlib>
#include <iostream>

#include "benchgen/ilt_synth.h"
#include "fracture/model_based_fracturer.h"
#include "io/svg.h"

int main(int argc, char** argv) {
  using namespace mbf;

  IltSynthConfig cfg;
  cfg.seed = argc > 1 ? unsigned(std::atoi(argv[1])) : 1006;
  cfg.numFeatures = 6;
  const Polygon shape = makeIltShape(cfg);
  const Problem problem(shape, FractureParams{});
  const Rect view = shape.bbox().inflated(20);

  const ColoringArtifacts art =
      ColoringFracturer{}.fractureWithArtifacts(problem);
  Refiner refiner(problem);
  const Solution refined = refiner.refine(art.shots);
  // Stage-1 geometry is grid-local; draw it over the target.
  const Vec2 origin = toVec2(problem.origin());

  {
    SvgWriter svg(view);
    svg.addPolygon(shape, "#cfe3f7", "#1b5ea6", 0.4);
    svg.save("stage0_target.svg");
  }
  {
    SvgWriter svg(view);
    svg.addPolygon(shape, "#cfe3f7", "none");
    for (std::vector<Vec2> ring : art.extraction.simplifiedRings) {
      for (Vec2& v : ring) v = v + origin;
      svg.addRing(ring, "none", "#d62728", 0.5, 0.0);
    }
    svg.save("stage1_rdp.svg");
  }
  {
    SvgWriter svg(view);
    svg.addPolygon(shape, "#cfe3f7", "none");
    for (const CornerPoint& c : art.extraction.corners) {
      const char* color = "";
      switch (c.type) {
        case CornerType::kBottomLeft: color = "#d62728"; break;
        case CornerType::kBottomRight: color = "#2ca02c"; break;
        case CornerType::kTopLeft: color = "#9467bd"; break;
        case CornerType::kTopRight: color = "#ff7f0e"; break;
      }
      svg.addCircle(c.pos + origin, 1.2, color);
    }
    svg.save("stage2_corners.svg");
  }
  {
    SvgWriter svg(view);
    svg.addPolygon(shape, "#cfe3f7", "none");
    for (const Rect& s : art.shots) {
      svg.addRect(s, "#ff7f0e", "#8c4a00", 0.3, 0.25);
    }
    svg.save("stage3_coloring.svg");
  }
  {
    SvgWriter svg(view);
    svg.addPolygon(shape, "#cfe3f7", "none");
    for (const Rect& s : refined.shots) {
      svg.addRect(s, "#2ca02c", "#145214", 0.3, 0.25);
    }
    svg.save("stage4_refined.svg");
  }

  std::cout << "Clip " << cfg.name() << ": " << art.shots.size()
            << " initial shots -> " << refined.shotCount()
            << " refined shots, " << refined.failingPixels()
            << " failing pixels.\n"
            << "Wrote stage0_target.svg ... stage4_refined.svg\n";
  return 0;
}
