// mbf_bench -- end-to-end and per-layer benchmark of mask fracturing.
//
//   mbf_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//       One workload. Prints, as the last line of stdout, one JSON object
//       {"correct", "attempted", "failed", "metrics"}: the end-to-end
//       metrics with --trace 0, the per-layer metrics with --trace 1.
//   mbf_bench --all [--seed <n>] [--seconds <s>] [--out <result.json>]
//                   [--trace-out <trace.json>]
//       Every workload, end-to-end and traced; prints a table and writes
//       the result JSON and the Chrome trace.
//   mbf_bench --smoke
//       Every workload at 1/20 size with two reps; checks the result
//       against the metrics BENCHMARK.json declares and every gate.
//   mbf_bench --compare <A.json> <B.json>
//       Verdict per workload and end-to-end metric under the bounds of
//       BENCHMARK.json; exits 1 on any regression.
//
//   Common: --work-dir=<dir> (scratch and results, default
//   .bench_build/e2e-work), --cli=<mbf_cli>, --benchmark-json=<path>.
//
// End-to-end numbers come from the real mbf_cli, run as a child process
// with tracing off, one at a time (closed loop, one client) with
// T = min(4, nproc) threads or --jobs=T workers; every rep gets a fresh
// run directory and passes the correctness gates. Per-layer numbers
// come from a separate in-process traced run (traced_run.h). A workload
// row enters the result only after all of its gates passed.
#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "audit/independent_checker.h"
#include "io/atomic_file.h"
#include "process.h"
#include "spans.h"
#include "stats.h"
#include "support/telemetry.h"
#include "traced_run.h"
#include "workload_gen.h"

namespace {

namespace fs = std::filesystem;
using namespace mbf;
using namespace mbf::e2e;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------
// Metric table. `declared` metrics are the ones BENCHMARK.json lists
// (never 0 on these workloads); the rest go to the result file only.
// ---------------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
  bool declared;
};

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s", true},
    {"wall_s", "s", false},
    {"shapes_per_s", "1/s", true},
    {"cpu_s", "s", true},
    {"peak_rss_mb", "MB", true},
    {"verify_s", "s", true},
    {"shots", "count", true},
    {"feasible_frac", "ratio", true},
    {"fail_px", "count", false},
    {"failed_frac", "ratio", false},
    {"ops", "count", false},
    {"ops_failed", "count", false},
};

const std::vector<MetricDef> kPerLayer = {
    {"io.parse_s", "s", true},
    {"io.plan_s", "s", true},
    {"driver.s", "s", true},
    {"io.shots_write_s", "s", true},
    {"io.shots_mb", "MB", true},
    {"analysis.shot_stats_s", "s", true},
    {"manifest.build_s", "s", true},
    {"manifest.write_s", "s", true},
    {"manifest.mb", "MB", true},
    {"hier.reuse_ratio", "ratio", true},
    {"problem.s", "s", true},
    {"problem.mpixels", "Mpx", true},
    {"stage1.s", "s", true},
    {"stage1.corners", "count", true},
    {"stage1.initial_shots", "count", true},
    {"refine.s", "s", true},
    {"refine.iterations", "count", true},
    {"refine.edge_move_s", "s", true},
    {"refine.violation_s", "s", true},
    {"kernel.profile_evals", "count", true},
    {"kernel.profile_evals_per_s", "1/s", true},
    {"kernel.candidate_hit_rate", "ratio", true},
    {"shape.p50_ms", "ms", true},
    {"shape.max_ms", "ms", true},
    {"stage.parallel_eff", "ratio", true},
    {"journal.append_s", "s", true},
    {"journal.replay_s", "s", true},
    {"journal.mb", "MB", true},
    {"audit.shape_ms", "ms", true},
    {"shape.p90_ms", "ms", false},
    {"supervisor.retried_ranges", "count", false},
    {"cache.hit_rate", "ratio", false},
    {"cache.rejected", "count", false},
    {"cache.mb", "MB", false},
    {"hier.cells_fractured", "count", false},
    {"trace.overhead_s", "s", false},
};

const MetricDef* findDef(const std::vector<MetricDef>& defs,
                         const std::string& name) {
  for (const MetricDef& d : defs) {
    if (name == d.name) return &d;
  }
  return nullptr;
}

/// A metric's value (an order statistic of the samples, or an exact
/// count) and the samples it came from.
struct Sample {
  double value = 0.0;
  std::vector<double> samples;
};

Sample medianOf(std::vector<double> samples) {
  const double v = median(samples);
  return {v, std::move(samples)};
}

Sample maxOf(std::vector<double> samples) {
  const double v = *std::max_element(samples.begin(), samples.end());
  return {v, std::move(samples)};
}

Sample exact(double v) { return {v, {v}}; }

struct WorkloadResult {
  std::string name;
  std::int64_t shapes = 0;
  std::int64_t uniqueShapes = 0;
  std::string inputSha;
  std::string shotsSha;
  std::int64_t ops = 0;
  std::int64_t opsFailed = 0;
  std::map<std::string, Sample> endToEnd;
  std::map<std::string, Sample> perLayer;
  std::map<std::string, SpanLog::Times> spanTimes;  ///< last traced run
  std::vector<std::string> failures;
};

struct Settings {
  std::uint64_t seed = 1;
  double seconds = 18.0;  ///< measuring window, as BENCHMARK.json's run_seconds
  int scaleDiv = 1;
  int setups = 3;   ///< set-up repetitions of an end-to-end run
  int minReps = 3;  ///< timed reps even when the window is over
  int threads = 1;  ///< T
  std::string workDir;
  std::string cli;
};

constexpr int kMaxReps = 400;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void freshDir(const std::string& path) {
  std::error_code ec;
  fs::remove_all(path, ec);
  fs::create_directories(path);
}

bool isChip(const std::string& workload) {
  return workload.rfind("chip_", 0) == 0;
}

/// The mbf_cli command line of one rep.
std::vector<std::string> cliArgs(const Settings& s, const std::string& w,
                                  const std::string& input,
                                  const std::string& runDir,
                                  const std::string& cache) {
  const std::string t = std::to_string(s.threads);
  std::vector<std::string> args = {s.cli, input, runDir + "/out.shots"};
  if (w == "ilt_flat") {
    args.push_back("--threads=" + t);
  } else if (w == "opc_rows_isolate") {
    // No --journal: a flat --isolate run lists it in the manifest
    // without writing it, and --verify then fails (README.md).
    args.insert(args.end(), {"--isolate", "--jobs=" + t});
  } else {
    args.insert(args.end(),
                {"--hier", "--threads=" + t, "--cell-cache=" + cache});
    if (w == "chip_hier_cold") args.push_back("--journal=" + runDir + "/o.jrn");
  }
  args.push_back("--metrics-json=" + runDir + "/manifest.json");
  return args;
}

/// What a rep's .shots artifact holds, from its section headers.
struct ShotsSummary {
  std::int64_t shapes = 0, shots = 0, failPx = 0, degraded = 0, feasible = 0;
};

Status summarizeShots(const std::string& path, ShotsSummary& out) {
  std::string content;
  Status st = readFileToString(path, content);
  if (!st.ok()) return st;
  std::vector<ShotSection> sections;
  st = parseShotSections(content, sections);
  if (!st.ok()) return st;
  for (const ShotSection& sec : sections) {
    ++out.shapes;
    out.shots += sec.claimedShots;
    out.failPx += sec.claimedFailingPx;
    out.degraded += sec.claimedDegraded ? 1 : 0;
    out.feasible += sec.claimedFailingPx == 0 ? 1 : 0;
  }
  return {};
}

/// Reads hier.<key> of a run manifest; -1 when absent.
double manifestHier(const std::string& path, const char* key) {
  std::string text;
  JsonValue doc;
  if (!readFileToString(path, text).ok() || !parseJson(text, doc).ok()) {
    return -1;
  }
  const JsonValue* hier = doc.find("hier");
  const JsonValue* v = hier != nullptr ? hier->find(key) : nullptr;
  return v != nullptr ? v->number : -1;
}

std::string exitText(const ProcessResult& r) {
  if (!r.started) return "could not start";
  if (r.exitCode < 0) return "killed by signal " + std::to_string(r.signal);
  return "exit " + std::to_string(r.exitCode);
}

void setFailureCounts(WorkloadResult& r) {
  r.endToEnd["ops"] = exact(static_cast<double>(r.ops));
  r.endToEnd["ops_failed"] = exact(static_cast<double>(r.opsFailed));
  r.endToEnd["failed_frac"] =
      exact(static_cast<double>(r.opsFailed) / static_cast<double>(r.ops));
}

/// Runs one workload: set-up, then end-to-end reps through mbf_cli, or
/// traced in-process runs when `traced`.
WorkloadResult runWorkload(const Settings& s, const std::string& w,
                           bool traced, SpanLog& log) {
  WorkloadResult r;
  r.name = w;
  auto fail = [&](const std::string& what) {
    r.failures.push_back(what);
    std::cerr << "[" << w << "] gate failed: " << what << "\n";
  };
  const std::string dir = s.workDir + "/runs/" + w;
  freshDir(dir);
  const bool chip = isChip(w);
  const bool warm = w == "chip_hier_warm";
  const std::string threads = "--threads=" + std::to_string(s.threads);

  GeneratedInput input;
  std::string inputPath;
  std::string warmCache;
  const auto cacheFor = [&](const std::string& runDir) {
    return warm ? warmCache : runDir + "/cache";
  };

  // Shapes of a rep or traced run count as failed when it fails a gate,
  // else only its degraded shapes do.
  ShotsSummary summary;
  auto count = [&](bool ok) {
    r.ops += input.shapes;
    r.opsFailed += ok ? summary.degraded : input.shapes;
  };

  // One closed-loop mbf_cli rep in a fresh run directory, gated on its
  // exit code and on .shots equal to rep 1's; `ok` reports the gates.
  auto runRep = [&](const std::string& runDir, bool& ok) {
    freshDir(runDir);
    const ProcessResult pr =
        runProcess(cliArgs(s, w, inputPath, runDir, cacheFor(runDir)),
                   runDir + "/log.txt");
    ok = pr.exitCode == 0 || pr.exitCode == 4;
    if (!ok) fail("rep " + runDir + ": mbf_cli " + exitText(pr));
    std::string sha;
    sha256File(runDir + "/out.shots", sha);
    if (r.shotsSha.empty() && ok) {
      r.shotsSha = sha;
      const Status st = summarizeShots(runDir + "/out.shots", summary);
      if (!st.ok()) fail("cannot read .shots: " + st.str());
      if (summary.shapes != input.shapes) {
        fail(std::to_string(summary.shapes) + " shapes in .shots, " +
             std::to_string(input.shapes) + " declared");
      }
      if (chip) {
        const std::string manifest = runDir + "/manifest.json";
        const double cells = static_cast<double>(input.uniqueShapes) / 3.0;
        if (warm && manifestHier(manifest, "unique_cells_fractured") != 0) {
          fail("warm run fractured cells");
        }
        if (!warm && manifestHier(manifest, "cache_misses") != cells) {
          fail("cold run did not miss every cell");
        }
      }
    } else if (ok && sha != r.shotsSha) {
      fail("rep " + runDir + ": .shots digest differs from rep 1");
      ok = false;
    }
    return pr;
  };
  auto verifyRep = [&](const std::string& runDir,
                       std::vector<double>& seconds) {
    const ProcessResult v = runProcess({s.cli, "--verify", runDir, threads},
                                       runDir + "/verify.txt");
    seconds.push_back(v.wallSeconds);
    if (v.exitCode == 0) return true;
    fail("rep " + runDir + ": --verify " + exitText(v));
    return false;
  };

  // Set-up, repeated: generate and write the input, then one untimed
  // preparation run (warm: the cold run that fills the cell cache;
  // otherwise the page-in warm-up); setup_s is the median. The reps'
  // window is cut into one slice after each set-up, so the reps sample
  // the host over the whole invocation rather than one stretch of it.
  std::vector<double> setupSeconds, wall, cpu, rss, rate, verify;
  const int setups = traced ? 1 : s.setups;
  const auto slice = std::chrono::duration<double>(s.seconds / setups);
  int rep = 0;
  for (int k = 0; k < setups; ++k) {
    const auto t0 = Clock::now();
    input = generateWorkload(w, s.seed, s.scaleDiv);
    inputPath = dir + "/" + input.fileName;
    std::ofstream(inputPath, std::ios::binary) << input.bytes;
    const std::string prep = dir + "/setup" + std::to_string(k);
    freshDir(prep);
    const std::string cache = warm ? dir + "/cache" + std::to_string(k)
                                   : prep + "/cache";
    if (warm) freshDir(cache);
    const ProcessResult pr = runProcess(
        cliArgs(s, warm ? "chip_hier_warm" : w, inputPath, prep, cache),
        prep + "/log.txt");
    setupSeconds.push_back(since(t0));
    if (pr.exitCode != 0 && pr.exitCode != 4) {
      fail("set-up run: " + exitText(pr));
      r.ops = r.opsFailed = std::max<std::int64_t>(1, input.shapes);
      return r;
    }
    std::error_code ec;
    fs::remove_all(prep, ec);
    if (warm) {
      if (!warmCache.empty()) fs::remove_all(warmCache, ec);
      warmCache = cache;
    }
    if (traced) continue;

    const auto sliceEnd = Clock::now() + slice;
    const bool lastSlice = k + 1 == setups;
    bool more = true;
    while (more) {
      const std::string runDir = dir + "/rep" + std::to_string(rep);
      bool ok = true;
      const ProcessResult pr = runRep(runDir, ok);
      ++rep;
      // Every rep's .shots must equal rep 1's, so verifying rep 1 covers
      // a chip, whose --verify costs seconds per thousand instances; a
      // flat --verify is cheap enough for every rep. Verification runs
      // inside the window, which bounds the whole invocation.
      if (!chip || rep == 1) ok = verifyRep(runDir, verify) && ok;
      count(ok);
      wall.push_back(pr.wallSeconds);
      cpu.push_back(pr.cpuSeconds);
      rss.push_back(pr.maxRssMb);
      rate.push_back(static_cast<double>(input.shapes) / pr.wallSeconds);
      fs::remove_all(runDir, ec);
      more = rep < kMaxReps &&
             (Clock::now() < sliceEnd || (lastSlice && rep < s.minReps));
    }
  }
  r.shapes = input.shapes;
  r.uniqueShapes = input.uniqueShapes;
  r.inputSha = sha256Hex(input.bytes);

  if (!traced) {
    auto& e = r.endToEnd;
    // Medians over every rep of the invocation, which the slices spread
    // over all of it (README.md, "Measured spread").
    e["setup_s"] = medianOf(setupSeconds);
    e["wall_s"] = medianOf(wall);
    e["shapes_per_s"] = medianOf(rate);
    e["cpu_s"] = medianOf(cpu);
    e["peak_rss_mb"] = maxOf(rss);
    e["verify_s"] = medianOf(verify);
    e["shots"] = exact(static_cast<double>(summary.shots));
    e["feasible_frac"] = exact(static_cast<double>(summary.feasible) /
                               static_cast<double>(input.shapes));
    e["fail_px"] = exact(static_cast<double>(summary.failPx));
  } else {
    // Reference rep: the .shots bytes the traced runs must reproduce
    // and the untraced wall time they are compared against.
    bool ok = true;
    const double refWall = runRep(dir + "/ref", ok).wallSeconds;
    count(ok);
    std::map<std::string, std::vector<double>> samples;
    std::vector<double> overhead;
    const auto deadline =
        Clock::now() + std::chrono::duration<double>(s.seconds);
    const double declaredReuse = static_cast<double>(input.shapes) /
                                 static_cast<double>(input.uniqueShapes);
    for (int run = 1; run == 1 || Clock::now() < deadline; ++run) {
      TracedRunConfig cfg;
      cfg.workload = w;
      cfg.run = run;
      cfg.inputPath = inputPath;
      cfg.runDir = dir + "/trace" + std::to_string(run);
      cfg.cellCacheDir = cacheFor(cfg.runDir);
      cfg.cliPath = s.cli;
      cfg.threads = s.threads;
      freshDir(cfg.runDir);
      const TracedRunResult t = tracedRun(cfg, log);
      for (const std::string& f : t.failures) fail("traced run: " + f);
      bool ok = t.failures.empty();
      if (ok && t.shotsSha256 != r.shotsSha) {
        fail("traced run .shots bytes differ from mbf_cli's");
        ok = false;
      }
      if (ok && (t.shapes != input.shapes ||
                 t.metrics.at("hier.reuse_ratio") != declaredReuse)) {
        fail("traced run: " + std::to_string(t.shapes) + " shapes, reuse " +
             std::to_string(t.metrics.at("hier.reuse_ratio")) +
             "; declared " + std::to_string(input.shapes) + ", reuse " +
             std::to_string(declaredReuse));
        ok = false;
      }
      count(ok);
      for (const auto& [name, v] : t.metrics) samples[name].push_back(v);
      overhead.push_back(t.cliPathSeconds - refWall);
      r.spanTimes = log.timesOf(w, run);
      std::error_code ec;
      fs::remove_all(cfg.runDir, ec);
      if (!ok) break;
    }
    for (auto& [name, v] : samples) r.perLayer[name] = medianOf(v);
    r.perLayer["trace.overhead_s"] = medianOf(overhead);
  }
  setFailureCounts(r);
  std::error_code ec;
  fs::remove_all(dir, ec);
  return r;
}

// ---------------------------------------------------------------------
// Host and provenance.
// ---------------------------------------------------------------------

std::string cpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        const std::size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

/// Output of a git command on the source tree, trimmed; empty when the
/// source is not a git checkout. --git-dir pins git to this tree.
std::string git(const std::string& args) {
  const std::string src = MBF_BENCH_SOURCE_DIR;
  if (!fs::exists(src + "/.git")) return {};
  const std::string cmd = "git --git-dir='" + src + "/.git' --work-tree='" +
                          src + "' " + args + " 2>/dev/null";
  std::string out;
  if (FILE* pipe = ::popen(cmd.c_str(), "r")) {
    char buf[256];
    while (std::fgets(buf, sizeof buf, pipe) != nullptr) out += buf;
    ::pclose(pipe);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == ' ')) {
    out.pop_back();
  }
  return out;
}

void writeHost(JsonWriter& w, const Settings& s) {
  const std::string rev = git("rev-parse HEAD");
  w.key("host").beginObject();
  w.key("nproc").value(static_cast<int>(std::thread::hardware_concurrency()));
  w.key("cpu_model").value(cpuModel());
  w.key("compiler").value(std::string("gcc ") + __VERSION__);
  w.key("build_type").value(MBF_BENCH_BUILD_TYPE);
  w.key("git_revision").value(rev.empty() ? "unknown" : rev);
  if (rev.empty()) {
    w.key("git_dirty").nullValue();
  } else {
    w.key("git_dirty").value(!git("status --porcelain --untracked-files=no")
                                  .empty());
  }
  w.key("threads").value(s.threads);
  w.key("seed").value(static_cast<std::uint64_t>(s.seed));
  w.key("seconds").value(s.seconds);
  w.key("scale_div").value(s.scaleDiv);
  w.endObject();
}

// ---------------------------------------------------------------------
// Result file and the one-line result of --workload.
// ---------------------------------------------------------------------

void writeMetrics(JsonWriter& w, const std::map<std::string, Sample>& metrics,
                  const std::vector<MetricDef>& defs) {
  w.beginObject();
  for (const auto& [name, sample] : metrics) {
    const MetricDef* def = findDef(defs, name);
    double q1 = 0.0, q3 = 0.0;
    quartiles(sample.samples, q1, q3);
    w.key(name).beginObject();
    w.key("value").value(sample.value);
    w.key("unit").value(def != nullptr ? def->unit : "");
    w.key("n").value(static_cast<int>(sample.samples.size()));
    w.key("q1").value(q1);
    w.key("median").value(median(sample.samples));
    w.key("q3").value(q3);
    if (sample.samples.size() > 1) {
      w.key("samples").beginArray();
      for (const double v : sample.samples) w.value(v);
      w.endArray();
    }
    w.endObject();
  }
  w.endObject();
}

/// The result document. Only workloads whose gates all passed become
/// rows; the others are listed with their failures.
std::string resultJson(const Settings& s,
                       const std::vector<WorkloadResult>& results) {
  JsonWriter w;
  w.beginObject();
  w.key("schema").value("mbf-bench-e2e");
  w.key("version").value(1);
  writeHost(w, s);
  w.key("workloads").beginArray();
  for (const WorkloadResult& r : results) {
    if (!r.failures.empty()) continue;
    w.beginObject();
    w.key("name").value(r.name);
    w.key("shapes").value(r.shapes);
    w.key("unique_shapes").value(r.uniqueShapes);
    w.key("input_sha256").value(r.inputSha);
    w.key("shots_sha256").value(r.shotsSha);
    w.key("end_to_end");
    writeMetrics(w, r.endToEnd, kEndToEnd);
    w.key("per_layer");
    writeMetrics(w, r.perLayer, kPerLayer);
    w.key("spans").beginObject();
    for (const auto& [name, t] : r.spanTimes) {
      w.key(name).beginObject();
      w.key("total_s").value(t.total);
      w.key("self_s").value(t.self);
      w.endObject();
    }
    w.endObject();
    w.endObject();
  }
  w.endArray();
  w.key("failed").beginArray();
  for (const WorkloadResult& r : results) {
    if (r.failures.empty()) continue;
    w.beginObject();
    w.key("name").value(r.name);
    w.key("failures").beginArray();
    for (const std::string& f : r.failures) w.value(f);
    w.endArray();
    w.endObject();
  }
  w.endArray();
  w.endObject();
  return w.str();
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

/// {"correct", "attempted", "failed", "metrics"} on one line, with every
/// declared metric of the chosen table.
std::string resultLine(const WorkloadResult& r,
                       const std::vector<MetricDef>& defs,
                       const std::map<std::string, Sample>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (r.failures.empty() ? "true" : "false")
     << ", \"attempted\": " << r.ops << ", \"failed\": " << r.opsFailed
     << ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : defs) {
    if (!d.declared) continue;
    const auto it = metrics.find(d.name);
    os << (first ? "" : ", ") << "\"" << d.name << "\": {\"value\": "
       << number(it != metrics.end() ? it->second.value : 0.0)
       << ", \"unit\": \"" << d.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

void printTable(const std::vector<WorkloadResult>& results) {
  for (const WorkloadResult& r : results) {
    std::cout << "== " << r.name << " (" << r.shapes << " shapes, "
              << r.uniqueShapes << " unique)"
              << (r.failures.empty() ? "" : "  GATES FAILED") << "\n";
    for (const auto* table : {&r.endToEnd, &r.perLayer}) {
      const auto& defs = table == &r.endToEnd ? kEndToEnd : kPerLayer;
      for (const auto& [name, sample] : *table) {
        const MetricDef* def = findDef(defs, name);
        double q1 = 0.0, q3 = 0.0;
        quartiles(sample.samples, q1, q3);
        std::cout << "  " << name << " = " << number(sample.value) << " "
                  << (def != nullptr ? def->unit : "")
                  << "  (n=" << sample.samples.size() << ", q1 "
                  << number(q1) << ", q3 " << number(q3) << ")\n";
      }
    }
  }
}

bool writeFile(const std::string& path, const std::string& bytes) {
  std::error_code ec;
  fs::create_directories(fs::path(path).parent_path(), ec);
  const Status st = atomicWriteFile(path, bytes);
  if (!st.ok()) std::cerr << "cannot write " << path << ": " << st.str() << "\n";
  return st.ok();
}

// ---------------------------------------------------------------------
// --compare and --smoke.
// ---------------------------------------------------------------------

bool loadJson(const std::string& path, JsonValue& out) {
  std::string text;
  Status st = readFileToString(path, text);
  if (st.ok()) st = parseJson(text, out);
  if (!st.ok()) std::cerr << path << ": " << st.str() << "\n";
  return st.ok();
}

const JsonValue* findRow(const JsonValue& result, const std::string& name) {
  const JsonValue* rows = result.find("workloads");
  if (rows == nullptr) return nullptr;
  for (const JsonValue& row : rows->items) {
    const JsonValue* n = row.find("name");
    if (n != nullptr && n->string == name) return &row;
  }
  return nullptr;
}

/// Quartile spread of a metric's samples as a share of their median.
double relSpread(const JsonValue& metric) {
  const double m = metric.find("median")->number;
  return m == 0.0 ? 0.0
                  : (metric.find("q3")->number - metric.find("q1")->number) /
                        std::abs(m);
}

int compare(const std::string& pathA, const std::string& pathB,
            const std::string& benchmarkJson) {
  JsonValue a, b, bench;
  if (!loadJson(pathA, a) || !loadJson(pathB, b) ||
      !loadJson(benchmarkJson, bench)) {
    return 2;
  }
  int regressions = 0;
  const JsonValue* failedB = b.find("failed");
  if (failedB != nullptr) {
    for (const JsonValue& f : failedB->items) {
      std::cout << f.find("name")->string << ": gates failed in B\n";
      ++regressions;
    }
  }
  const JsonValue* rowsA = a.find("workloads");
  if (rowsA == nullptr || bench.find("end_to_end") == nullptr) {
    std::cerr << "not a result file and a BENCHMARK.json\n";
    return 2;
  }
  for (const JsonValue& rowA : rowsA->items) {
    const std::string name = rowA.find("name")->string;
    const JsonValue* rowB = findRow(b, name);
    if (rowB == nullptr) {
      std::cout << name << ": missing in B\n";
      ++regressions;
      continue;
    }
    for (const JsonValue& def : bench.find("end_to_end")->items) {
      const std::string metric = def.find("name")->string;
      const double bound = def.find("bound")->number;
      const bool lower = def.find("better")->string == "lower";
      const JsonValue* ma = rowA.find("end_to_end")->find(metric);
      const JsonValue* mb = rowB->find("end_to_end")->find(metric);
      if (ma == nullptr || mb == nullptr) {
        std::cout << name << " " << metric << ": missing\n";
        ++regressions;
        continue;
      }
      const double va = ma->find("value")->number;
      const double vb = mb->find("value")->number;
      const double worse = (lower ? vb - va : va - vb) / std::abs(va);
      const double spread = std::max(relSpread(*ma), relSpread(*mb));
      std::string verdict;
      if (spread > bound) {
        verdict = "unresolved (spread wider than the bound)";
      } else if (worse > bound) {
        verdict = "worse";
        ++regressions;
      } else if (-worse > bound) {
        verdict = "better";
      } else {
        verdict = "within bound";
      }
      char line[256];
      std::snprintf(line, sizeof line,
                    "%-18s %-14s %12.6g -> %12.6g %-6s %+7.2f%% "
                    "(spread %.2f%%, bound %.0f%%): ",
                    name.c_str(), metric.c_str(), va, vb,
                    def.find("unit")->string.c_str(),
                    100.0 * (vb - va) / std::abs(va), 100.0 * spread,
                    100.0 * bound);
      std::cout << line << verdict << "\n";
    }
    for (const char* count : {"shots", "fail_px", "ops_failed"}) {
      const JsonValue* ca = rowA.find("end_to_end")->find(count);
      const JsonValue* cb = rowB->find("end_to_end")->find(count);
      if (ca != nullptr && cb != nullptr &&
          ca->find("value")->number != cb->find("value")->number) {
        std::cout << name << " " << count << " differs: "
                  << number(ca->find("value")->number) << " -> "
                  << number(cb->find("value")->number) << "\n";
        if (std::string(count) == "ops_failed" &&
            cb->find("value")->number > ca->find("value")->number) {
          ++regressions;
        }
      }
    }
    for (const char* digest : {"input_sha256", "shots_sha256"}) {
      if (rowA.find(digest)->string != rowB->find(digest)->string) {
        std::cout << name << " " << digest << " differs\n";
      }
    }
  }
  std::cout << (regressions == 0 ? "no regression\n"
                                 : std::to_string(regressions) +
                                       " regression(s)\n");
  return regressions == 0 ? 0 : 1;
}

/// Smoke assertions beyond the per-rep gates: the result carries every
/// metric BENCHMARK.json names with its unit, and the generator is a
/// pure function of the seed.
int smokeChecks(const std::string& resultText,
                const std::string& benchmarkJson) {
  int failures = 0;
  auto check = [&](bool ok, const std::string& what) {
    if (!ok) {
      std::cerr << "smoke: " << what << "\n";
      ++failures;
    }
  };
  JsonValue result, bench;
  check(parseJson(resultText, result).ok(), "result is not JSON");
  check(loadJson(benchmarkJson, bench), "cannot read " + benchmarkJson);
  if (failures > 0) return failures;
  for (const std::string& w : workloadNames()) {
    const JsonValue* row = findRow(result, w);
    check(row != nullptr, w + ": no result row");
    if (row == nullptr) continue;
    for (const char* table : {"end_to_end", "per_layer"}) {
      for (const JsonValue& def : bench.find(table)->items) {
        const std::string name = def.find("name")->string;
        const JsonValue* m = row->find(table)->find(name);
        check(m != nullptr, w + ": no " + table + " metric " + name);
        if (m != nullptr) {
          check(m->find("unit")->string == def.find("unit")->string,
                w + ": " + name + " has unit " + m->find("unit")->string);
        }
      }
    }
    const GeneratedInput one = generateWorkload(w, 7, 20);
    check(one.bytes == generateWorkload(w, 7, 20).bytes,
          w + ": same seed gave different inputs");
    check(one.bytes != generateWorkload(w, 8, 20).bytes,
          w + ": different seeds gave the same input");
  }
  return failures;
}

int usage() {
  std::cerr << "usage: mbf_bench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\n"
               "       mbf_bench --all [--seed n] [--seconds s] [--out path] "
               "[--trace-out path]\n"
               "       mbf_bench --smoke\n"
               "       mbf_bench --compare <A.json> <B.json>\n"
               "  common: --work-dir=<dir> --cli=<mbf_cli> "
               "--benchmark-json=<path>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Settings s;
  s.threads = std::min(4, std::max(1, static_cast<int>(
                                          std::thread::hardware_concurrency())));
  s.cli = MBF_BENCH_CLI_PATH;
  s.workDir = ".bench_build/e2e-work";
  std::string mode, workload, out, traceOut;
  std::string benchmarkJson = std::string(MBF_BENCH_SOURCE_DIR) + "/BENCHMARK.json";
  std::vector<std::string> positional;
  int trace = 0;

  try {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      std::string value;
      const std::size_t eq = arg.find('=');
      const bool takesValue =
          arg != "--all" && arg != "--smoke" && arg != "--compare";
      if (eq != std::string::npos) {
        value = arg.substr(eq + 1);
        arg = arg.substr(0, eq);
      } else if (takesValue && arg.rfind("--", 0) == 0) {
        if (i + 1 >= argc) return usage();
        value = argv[++i];
      }
      if (arg == "--all" || arg == "--smoke" || arg == "--compare") {
        mode = arg;
      } else if (arg == "--workload") {
        mode = arg;
        workload = value;
      } else if (arg == "--seed") {
        s.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        s.seconds = std::stod(value);
      } else if (arg == "--trace") {
        trace = std::stoi(value);
      } else if (arg == "--work-dir") {
        s.workDir = value;
      } else if (arg == "--cli") {
        s.cli = value;
      } else if (arg == "--out") {
        out = value;
      } else if (arg == "--trace-out") {
        traceOut = value;
      } else if (arg == "--benchmark-json") {
        benchmarkJson = value;
      } else if (arg.rfind("--", 0) != 0) {
        positional.push_back(arg);
      } else {
        std::cerr << "unknown argument: " << arg << "\n";
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }

  if (mode == "--compare") {
    if (positional.size() != 2) return usage();
    return compare(positional[0], positional[1], benchmarkJson);
  }
  if (mode.empty() || (mode == "--workload" && !isWorkload(workload)) ||
      (trace != 0 && trace != 1) || s.seconds < 0.0) {
    return usage();
  }
  if (::access(s.cli.c_str(), X_OK) != 0) {
    std::cerr << "mbf_cli not found at " << s.cli << "\n";
    return 2;
  }
  s.workDir = fs::absolute(s.workDir).string();
  fs::create_directories(s.workDir);
  // Two benchmarks sharing a work dir would delete each other's runs.
  const int lockFd = ::open((s.workDir + "/.lock").c_str(),
                            O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (lockFd < 0 || ::flock(lockFd, LOCK_EX | LOCK_NB) != 0) {
    std::cerr << "work dir " << s.workDir << " is in use\n";
    return 2;
  }
  if (out.empty()) out = s.workDir + "/result.json";
  if (traceOut.empty()) traceOut = s.workDir + "/trace.json";

  SpanLog log;
  std::vector<WorkloadResult> results;
  if (mode == "--workload") {
    results.push_back(runWorkload(s, workload, trace == 1, log));
  } else {
    if (mode == "--smoke") {
      s.scaleDiv = 20;
      s.setups = 1;
      s.minReps = 2;
      s.seconds = 0.0;
    }
    // Every workload's reps run before the first traced run: a child
    // forked from this process starts out holding its pages, so a rep
    // forked after traced runs grew it would report them as its peak RSS.
    for (const std::string& w : workloadNames()) {
      std::cerr << "[" << w << "] running\n";
      results.push_back(runWorkload(s, w, false, log));
    }
    for (WorkloadResult& r : results) {
      std::cerr << "[" << r.name << "] tracing\n";
      const WorkloadResult t = runWorkload(s, r.name, true, log);
      r.perLayer = t.perLayer;
      r.spanTimes = t.spanTimes;
      r.failures.insert(r.failures.end(), t.failures.begin(),
                        t.failures.end());
      if (t.failures.empty() && t.shotsSha != r.shotsSha) {
        r.failures.push_back("traced half's .shots differ from the reps'");
      }
      r.ops += t.ops;
      r.opsFailed += t.opsFailed;
      setFailureCounts(r);
    }
  }
  std::error_code ec;
  fs::remove_all(s.workDir + "/runs", ec);

  const std::string result = resultJson(s, results);
  writeFile(out, result);
  if (!log.spans().empty()) writeFile(traceOut, log.chromeJson());

  if (mode == "--workload") {
    const WorkloadResult& r = results.front();
    std::cout << (trace == 0 ? resultLine(r, kEndToEnd, r.endToEnd)
                             : resultLine(r, kPerLayer, r.perLayer))
              << std::endl;
    return 0;
  }
  printTable(results);
  std::cout << "result: " << out << "\ntrace: " << traceOut << "\n";
  int failures = 0;
  for (const WorkloadResult& r : results) {
    failures += static_cast<int>(r.failures.size());
  }
  if (mode == "--smoke") failures += smokeChecks(result, benchmarkJson);
  std::cout << (failures == 0 ? "all gates passed\n"
                              : std::to_string(failures) + " failure(s)\n");
  return failures == 0 ? 0 : 1;
}
