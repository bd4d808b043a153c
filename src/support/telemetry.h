// Run-telemetry subsystem (DESIGN.md section 15): machine-readable
// observability for batch fracturing runs.
//
// Two coordinated facilities:
//
//   1. Trace spans — a low-overhead recorder of begin/end events
//      (TraceScope) and instant markers, each stamped with the recording
//      process and a small per-thread id. Spans follow the PerfCounters
//      ownership pattern: every thread appends to its own buffer (no
//      shared cache line on the hot path), and aggregation happens at
//      serialization time, after the parallel joins. When tracing is off
//      — the default — a TraceScope costs exactly one relaxed atomic
//      load, so instrumented code paths stay free in production; spans
//      never influence what is computed, only when it happened, so
//      fracturing results are byte-identical with tracing on or off.
//      Serialized as chrome://tracing / Perfetto "traceEvents" JSON
//      (mbf_cli --trace-json). Each forked worker of a supervised run
//      sends its spans to the supervisor as its last frame
//      (encodeTraceSpans), which merges them into the parent's
//      timeline — steady_clock is CLOCK_MONOTONIC on the only platform
//      we target, so timestamps from every process of one boot share a
//      timebase.
//
//   2. The run manifest — one JSON document per mbf_cli run
//      (--metrics-json) aggregating the batch totals, RefinerStats stage
//      timers, hot-path PerfCounters, crash-recovery RunCounters,
//      per-shape ShapeReport outcomes, shot-quality statistics and the
//      run's config fingerprint; the machine-readable twin of the
//      --report line.
//
// The JSON tooling (JsonWriter, parseJson) is shared by the manifest,
// the trace serializer, the bench narrators and the schema tests.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "support/status.h"

namespace mbf {

// ---------------------------------------------------------------------
// JSON writer / parser
// ---------------------------------------------------------------------

/// Incremental, pretty-printing JSON emitter. Tracks nesting and comma
/// placement so callers only state structure. Keys and strings are
/// appended to the one output buffer, escaped only where a byte needs it.
///
/// Number text is part of the manifest's byte contract: an integer is
/// its decimal digits, and a finite double is the first of printf's
/// %.15g, %.16g and %.17g that parses back to the same double (so a
/// manifest round-trips bit-exactly through parseJson); inf and nan
/// become null.
class JsonWriter {
 public:
  JsonWriter& beginObject();
  JsonWriter& endObject();
  JsonWriter& beginArray();
  JsonWriter& endArray();
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view v);
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(const std::string& v) {
    return value(std::string_view(v));
  }
  JsonWriter& value(bool v);
  JsonWriter& value(double v);
  JsonWriter& value(std::int64_t v);
  JsonWriter& value(std::uint64_t v);
  JsonWriter& value(int v) { return value(static_cast<std::int64_t>(v)); }
  JsonWriter& nullValue();

  /// The finished document. Valid only once every begin* has been
  /// matched; an unbalanced writer is a caller bug. The rvalue overload
  /// hands the buffer out without a copy and leaves the writer empty.
  std::string str() const&;
  std::string str() &&;

 private:
  void beforeValue();
  void indent();

  struct Level {
    char kind;    // 'o' or 'a'
    bool empty;   // no element emitted yet
  };
  std::string out_;
  std::vector<Level> stack_;
  bool keyPending_ = false;
};

/// JSON escape of `v` (quotes, backslash, control characters), without
/// the surrounding quotes.
std::string jsonEscape(std::string_view v);

/// Parsed JSON value. Objects keep insertion order (schema tests compare
/// documents structurally, not textually).
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> items;  ///< kArray elements
  std::vector<std::pair<std::string, JsonValue>> members;  ///< kObject

  bool isObject() const { return kind == Kind::kObject; }
  bool isArray() const { return kind == Kind::kArray; }

  /// Member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view k) const;

  /// Structural equality (numbers compared with ==; the writer's
  /// round-trip formatting makes that exact for emitted documents).
  friend bool operator==(const JsonValue& a, const JsonValue& b);
};

/// Strict recursive-descent parse of one JSON document (trailing
/// whitespace allowed, trailing garbage rejected). kParseError carries
/// the byte offset of the defect.
Status parseJson(std::string_view text, JsonValue& out);

// ---------------------------------------------------------------------
// Trace spans
// ---------------------------------------------------------------------

struct TraceSpan {
  std::string name;
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;  ///< == startNs for instant events
  int pid = 0;
  int tid = 0;  ///< small per-process thread id, assigned on first record
  bool instant = false;
};

namespace telemetry_detail {
extern std::atomic<bool> traceEnabled;
}

/// One relaxed load: the only cost an instrumented code path pays when
/// tracing is off.
inline bool traceEnabled() {
  return telemetry_detail::traceEnabled.load(std::memory_order_relaxed);
}

/// Monotonic nanoseconds (steady_clock). Shared timebase across all
/// processes of one boot, which is what lets the supervisor merge worker
/// spans into a single timeline.
std::int64_t traceNowNs();

/// Process-wide span registry. Threads record into thread-local buffers
/// registered here; snapshot() folds live buffers, buffers of exited
/// threads and foreign (merged worker) spans into one list.
class TraceRecorder {
 public:
  /// The process-lifetime singleton (never destroyed, so pool threads
  /// exiting late can always flush their buffers).
  static TraceRecorder& instance();

  /// Turns recording on (stamps the recording pid). Call before the
  /// traced work starts.
  void enable();
  /// Turns recording off (tests; spans already recorded are kept).
  void disable();

  /// Appends a span to the calling thread's buffer. Callers normally go
  /// through TraceScope / instant() and check traceEnabled() first.
  void record(std::string name, std::int64_t startNs, std::int64_t endNs,
              bool isInstant = false);
  /// Records a zero-duration marker event at now.
  void instant(std::string name);

  /// Adopts a span recorded by another process (the supervisor merging
  /// a worker's spans; the span keeps its own pid/tid).
  void addForeign(TraceSpan span);

  /// Every span recorded so far, sorted by (startNs, pid, tid). Call
  /// after parallel joins; threads still actively recording are folded
  /// in under their buffer locks.
  std::vector<TraceSpan> snapshot() const;

  /// Drops every recorded span (tests).
  void clear();

 private:
  TraceRecorder() = default;
  struct ThreadBuffer;
  friend struct ThreadBuffer;
  ThreadBuffer& localBuffer();
  void retire(ThreadBuffer* buffer);

  mutable std::mutex mutex_;
  std::vector<ThreadBuffer*> live_;
  std::vector<TraceSpan> retired_;  ///< exited threads + foreign spans
  std::atomic<int> nextTid_{0};
  std::atomic<int> pid_{0};
};

/// RAII span: names a scope in the timeline. The static-name constructor
/// is for hot paths; the (prefix, index) constructor builds a dynamic
/// name ("shape 12") only when tracing is on.
class TraceScope {
 public:
  explicit TraceScope(const char* name) : active_(traceEnabled()) {
    if (active_) {
      name_ = name;
      start_ = traceNowNs();
    }
  }
  TraceScope(const char* prefix, int index) : active_(traceEnabled()) {
    if (active_) {
      dynName_ = std::string(prefix) + " " + std::to_string(index);
      start_ = traceNowNs();
    }
  }
  ~TraceScope() {
    if (active_) {
      TraceRecorder::instance().record(
          name_ != nullptr ? std::string(name_) : std::move(dynName_), start_,
          traceNowNs());
    }
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  bool active_;
  const char* name_ = nullptr;
  std::string dynName_;
  std::int64_t start_ = 0;
};

/// chrome://tracing / Perfetto document: {"traceEvents": [...]} with one
/// complete ("X") or instant ("i") event per span, timestamps rebased to
/// the earliest span and converted to microseconds.
std::string traceEventsJson(std::vector<TraceSpan> spans);

/// Writes traceEventsJson(spans) to `path` (kIoError on failure).
Status writeTraceJson(const std::string& path, std::vector<TraceSpan> spans);

/// Binary encoding of `spans`, each with its pid and tid: the payload of
/// the last frame an --isolate worker streams to its supervisor.
std::string encodeTraceSpans(const std::vector<TraceSpan>& spans);
/// Appends the spans of an encodeTraceSpans payload to `out`. False,
/// appending nothing, when the payload is truncated or has trailing
/// bytes.
bool decodeTraceSpans(std::string_view payload, std::vector<TraceSpan>& out);

// ---------------------------------------------------------------------
// Run manifest
// ---------------------------------------------------------------------

struct BatchConfig;   // mdp/layout.h
struct BatchResult;   // mdp/layout.h
struct RunCounters;   // mdp/checkpoint.h
struct ShotStats;     // analysis/shot_stats.h

/// One artifact the run wrote, as recorded in the manifest for the
/// --verify gate: kind ("shots", "svg", "gds", "trace", "journal", ...),
/// the path as given on the command line, size and SHA-256.
struct ArtifactEntry {
  std::string kind;
  std::string path;
  std::int64_t bytes = 0;
  std::string sha256;
};

/// Run-level context the BatchResult does not carry itself.
struct RunManifestInfo {
  std::string inputPath;
  std::string outputPath;
  /// journalMetaFor() of the run's instantiated shapes: shape count and
  /// the FNV-1a fingerprint over geometry + result-relevant parameters,
  /// which --verify recomputes.
  std::string fingerprint;
  /// True when the run was journaled or supervised and `counters` is
  /// meaningful.
  bool haveRecovery = false;
  /// Plan-shape ordinals of crash-isolated shapes (supervised runs).
  std::vector<int> isolatedShapes;
  /// Checksummed artifacts for `mbf_cli --verify` (DESIGN.md sec. 16).
  std::vector<ArtifactEntry> artifacts;
  /// SIGTERM/SIGINT graceful drain: the run is partial by design and the
  /// manifest is stamped "interrupted".
  bool interrupted = false;
  /// Indices of shapes re-fractured by the --selfcheck repair ladder
  /// after failing the inline audit.
  std::vector<int> repairedShapes;
  /// --order was active: shot order in the artifact is post-processed,
  /// so audited costs are not bitwise comparable to the claims.
  bool ordered = false;
  /// --hier run context. `enabled` gates nothing structurally — the
  /// manifest always carries the "hier" block (schema stability) — but
  /// tells --verify to re-derive the layout hierarchically from the GDS
  /// via config.top_cell instead of flattening it.
  struct HierInfo {
    bool enabled = false;
    std::string topCell;   ///< resolved top structure
    std::string cacheDir;  ///< persistent cell cache; empty = none
    int reachableCells = 0;
    int uniqueCellsFractured = 0;
    int uniqueShapesFractured = 0;
    int cacheHits = 0;
    int cacheMisses = 0;
    int cacheRejected = 0;
    std::int64_t instancesExpanded = 0;
    /// Section-18 degradation counters, emitted only when non-zero so
    /// clean manifests stay byte-identical across binary versions.
    int cacheIoErrors = 0;
    int cacheEvicted = 0;
    /// Quota-eviction candidates spared because a concurrently live run
    /// had noted the key (emitted only when non-zero, like the others).
    int cacheEvictionsSkippedLive = 0;
    bool cacheDisabled = false;
  };
  HierInfo hier;
};

/// Builds the run-manifest JSON document (schema "mbf-run-manifest"
/// version 1; see DESIGN.md section 15). Every non-timing field is
/// deterministic for a given input and config at any thread count —
/// the schema test pins that.
std::string buildRunManifest(const RunManifestInfo& info,
                             const BatchConfig& config,
                             const BatchResult& result,
                             const RunCounters& counters,
                             const ShotStats& shotStats);

}  // namespace mbf
