// The traced in-process run of one workload: the public functions
// mbf_cli calls, in mbf_cli's order, each wrapped in a span, followed by
// a stage pass over the unique shapes (Problem, stage 1, refine), an
// independent audit of those shapes, and a journal round trip of the
// run's records. Yields the per-layer metrics.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "spans.h"

namespace mbf::e2e {

struct TracedRunConfig {
  std::string workload;
  int run = 0;  ///< run id stamped on the spans
  std::string inputPath;
  std::string runDir;        ///< fresh, existing directory
  std::string cellCacheDir;  ///< chip workloads: the cell cache to use
  std::string cliPath;       ///< mbf_cli, re-executed as --isolate workers
  int threads = 1;           ///< T
};

struct TracedRunResult {
  std::string shotsSha256;  ///< digest of the .shots bytes written
  std::int64_t shapes = 0;  ///< instantiated shapes
  /// Per-layer metrics by name (units in mbf_bench's metric table).
  std::map<std::string, double> metrics;
  /// Seconds of parse .. manifest write, the part mbf_cli also runs.
  double cliPathSeconds = 0.0;
  /// Failed correctness gates, one line each; empty = all passed.
  std::vector<std::string> failures;
};

TracedRunResult tracedRun(const TracedRunConfig& config, SpanLog& log);

}  // namespace mbf::e2e
