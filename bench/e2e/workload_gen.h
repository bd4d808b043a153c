// Deterministic inputs for the end-to-end benchmark (mbf_bench). Every
// workload is generated from a seed with the public benchgen clip
// generators only (makeIltShape / makeOpcShape over iltSuiteConfigs /
// opcSuiteConfigs); the same seed gives byte-identical input files, a
// different seed different clips and placements.
//
// The four workloads stress different layers (see README.md):
//   ilt_flat          unique curvilinear clips in a .poly: compute-bound,
//                     refine-dominated, nothing repeats
//   opc_rows_isolate  a flat .gds (TOP only) of rows of Manhattan OPC
//                     clips drawn from ten unique ones: cheap, repeated
//                     shapes run through --isolate worker processes
//   chip_hier_cold    a hierarchical full-chip .gds: unique cells with
//                     OPC + ILT clips in ROWs, ROWs arrayed into BLOCKs
//                     by AREFs, BLOCKs placed in TOP (two of them near
//                     the +/-INT32 coordinate limits)
//   chip_hier_warm    the same chip, run against a filled cell cache
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace mbf::e2e {

/// A generated input file plus the sizes it declares.
struct GeneratedInput {
  std::string fileName;  ///< "input.poly" or "input.gds"
  std::string bytes;     ///< exact file content
  /// Shapes a run fractures or instantiates (flat-equivalent count).
  std::int64_t shapes = 0;
  /// Distinct shape geometries (up to translation) among them.
  std::int64_t uniqueShapes = 0;
};

/// Names of the four workloads, in benchmark order.
const std::vector<std::string>& workloadNames();

bool isWorkload(const std::string& name);

/// Generates the input of workload `name` for `seed`. `scaleDiv` divides
/// the instance counts (1 = the benchmark size, 20 = the smoke size);
/// the set of unique clips does not depend on it. Both chip workloads
/// share one input.
GeneratedInput generateWorkload(const std::string& name, std::uint64_t seed,
                                int scaleDiv);

}  // namespace mbf::e2e
