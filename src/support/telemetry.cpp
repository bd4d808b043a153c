#include "support/telemetry.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <type_traits>

#include "analysis/shot_stats.h"
#include "io/atomic_file.h"
#include "mdp/checkpoint.h"
#include "mdp/layout.h"

namespace mbf {

// ---------------------------------------------------------------------
// JsonWriter
// ---------------------------------------------------------------------

namespace {

bool needsEscape(char c) {
  return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
}

/// Appends the JSON escape of `v` to `out`; runs of bytes that need no
/// escape are copied whole.
void appendEscaped(std::string& out, std::string_view v) {
  std::size_t plain = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const char c = v[i];
    if (!needsEscape(c)) continue;
    out.append(v.data() + plain, i - plain);
    plain = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        static const char* hex = "0123456789abcdef";
        const auto byte = static_cast<unsigned char>(c);
        const char u[6] = {'\\', 'u', '0', '0', hex[byte >> 4],
                           hex[byte & 0xf]};
        out.append(u, sizeof u);
      }
    }
  }
  out.append(v.data() + plain, v.size() - plain);
}

}  // namespace

std::string jsonEscape(std::string_view v) {
  std::string out;
  out.reserve(v.size());
  appendEscaped(out, v);
  return out;
}

void JsonWriter::indent() {
  out_ += '\n';
  out_.append(2 * stack_.size(), ' ');
}

void JsonWriter::beforeValue() {
  if (keyPending_) {
    keyPending_ = false;
    return;
  }
  if (stack_.empty()) return;  // the document's root value
  Level& top = stack_.back();
  if (!top.empty) out_ += ',';
  top.empty = false;
  if (top.kind == 'a') indent();
}

JsonWriter& JsonWriter::beginObject() {
  beforeValue();
  out_ += '{';
  stack_.push_back({'o', true});
  return *this;
}

JsonWriter& JsonWriter::endObject() {
  const bool wasEmpty = stack_.back().empty;
  stack_.pop_back();
  if (!wasEmpty) indent();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::beginArray() {
  beforeValue();
  out_ += '[';
  stack_.push_back({'a', true});
  return *this;
}

JsonWriter& JsonWriter::endArray() {
  const bool wasEmpty = stack_.back().empty;
  stack_.pop_back();
  if (!wasEmpty) indent();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  Level& top = stack_.back();
  if (!top.empty) out_ += ',';
  top.empty = false;
  indent();
  out_ += '"';
  appendEscaped(out_, k);
  out_ += "\": ";
  keyPending_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view v) {
  beforeValue();
  out_ += '"';
  appendEscaped(out_, v);
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  beforeValue();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  beforeValue();
  if (!std::isfinite(v)) {
    out_ += "null";  // JSON has no inf/nan; absent beats invalid
    return *this;
  }
  // The first of %.15g, %.16g, %.17g (to_chars with a precision prints
  // exactly what printf does) that parses back to the same double, so
  // manifests round-trip bit-exactly through parseJson.
  char buf[32];
  char* end = buf;
  for (const int precision : {15, 16, 17}) {
    end = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general,
                        precision)
              .ptr;
    double back = 0.0;
    std::from_chars(buf, end, back);
    if (back == v) break;
  }
  out_.append(buf, end);
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  beforeValue();
  char buf[24];
  out_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  beforeValue();
  char buf[24];
  out_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  return *this;
}

JsonWriter& JsonWriter::nullValue() {
  beforeValue();
  out_ += "null";
  return *this;
}

std::string JsonWriter::str() const& { return out_ + "\n"; }

std::string JsonWriter::str() && {
  out_ += '\n';
  return std::move(out_);
}

// ---------------------------------------------------------------------
// JSON parser
// ---------------------------------------------------------------------

const JsonValue* JsonValue::find(std::string_view k) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : members) {
    if (name == k) return &value;
  }
  return nullptr;
}

bool operator==(const JsonValue& a, const JsonValue& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case JsonValue::Kind::kNull: return true;
    case JsonValue::Kind::kBool: return a.boolean == b.boolean;
    case JsonValue::Kind::kNumber: return a.number == b.number;
    case JsonValue::Kind::kString: return a.string == b.string;
    case JsonValue::Kind::kArray: return a.items == b.items;
    case JsonValue::Kind::kObject: return a.members == b.members;
  }
  return false;
}

namespace {

constexpr int kMaxJsonDepth = 128;

struct JsonParser {
  std::string_view text;
  std::size_t at = 0;
  Status error;

  void fail(const std::string& what) {
    if (error.ok()) {
      error = Status(StatusCode::kParseError, what).withOffset(
          static_cast<std::int64_t>(at));
    }
  }

  void skipWs() {
    while (at < text.size() &&
           (text[at] == ' ' || text[at] == '\t' || text[at] == '\n' ||
            text[at] == '\r')) {
      ++at;
    }
  }

  bool consume(char c) {
    if (at < text.size() && text[at] == c) {
      ++at;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text.substr(at, word.size()) == word) {
      at += word.size();
      return true;
    }
    return false;
  }

  bool parseString(std::string& out) {
    if (!consume('"')) {
      fail("expected '\"'");
      return false;
    }
    out.clear();
    while (at < text.size()) {
      const char c = text[at++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
        return false;
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (at >= text.size()) break;
      const char esc = text[at++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (at + 4 > text.size()) {
            fail("truncated \\u escape");
            return false;
          }
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text[at++];
            cp <<= 4;
            if (h >= '0' && h <= '9') {
              cp |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              cp |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              cp |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("bad hex digit in \\u escape");
              return false;
            }
          }
          // UTF-8 encode (BMP only; our own writer never emits
          // surrogate escapes, so pairs are rejected as malformed).
          if (cp >= 0xD800 && cp <= 0xDFFF) {
            fail("surrogate \\u escape unsupported");
            return false;
          }
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default:
          fail("unknown escape");
          return false;
      }
    }
    fail("unterminated string");
    return false;
  }

  bool parseValue(JsonValue& out, int depth) {
    if (depth > kMaxJsonDepth) {
      fail("nesting too deep");
      return false;
    }
    skipWs();
    if (at >= text.size()) {
      fail("unexpected end of input");
      return false;
    }
    const char c = text[at];
    if (c == '{') {
      ++at;
      out.kind = JsonValue::Kind::kObject;
      skipWs();
      if (consume('}')) return true;
      while (true) {
        skipWs();
        std::string name;
        if (!parseString(name)) return false;
        skipWs();
        if (!consume(':')) {
          fail("expected ':'");
          return false;
        }
        JsonValue member;
        if (!parseValue(member, depth + 1)) return false;
        out.members.emplace_back(std::move(name), std::move(member));
        skipWs();
        if (consume(',')) continue;
        if (consume('}')) return true;
        fail("expected ',' or '}'");
        return false;
      }
    }
    if (c == '[') {
      ++at;
      out.kind = JsonValue::Kind::kArray;
      skipWs();
      if (consume(']')) return true;
      while (true) {
        JsonValue item;
        if (!parseValue(item, depth + 1)) return false;
        out.items.push_back(std::move(item));
        skipWs();
        if (consume(',')) continue;
        if (consume(']')) return true;
        fail("expected ',' or ']'");
        return false;
      }
    }
    if (c == '"') {
      out.kind = JsonValue::Kind::kString;
      return parseString(out.string);
    }
    if (literal("true")) {
      out.kind = JsonValue::Kind::kBool;
      out.boolean = true;
      return true;
    }
    if (literal("false")) {
      out.kind = JsonValue::Kind::kBool;
      out.boolean = false;
      return true;
    }
    if (literal("null")) {
      out.kind = JsonValue::Kind::kNull;
      return true;
    }
    if (c == '-' || (c >= '0' && c <= '9')) {
      const char* begin = text.data() + at;
      char* end = nullptr;
      errno = 0;
      const double v = std::strtod(begin, &end);
      if (end == begin) {
        fail("malformed number");
        return false;
      }
      out.kind = JsonValue::Kind::kNumber;
      out.number = v;
      at += static_cast<std::size_t>(end - begin);
      return true;
    }
    fail("unexpected character");
    return false;
  }
};

}  // namespace

Status parseJson(std::string_view text, JsonValue& out) {
  JsonParser p;
  p.text = text;
  out = {};
  if (!p.parseValue(out, 0)) return p.error;
  p.skipWs();
  if (p.at != text.size()) {
    p.fail("trailing garbage after document");
    return p.error;
  }
  return {};
}

// ---------------------------------------------------------------------
// Trace recorder
// ---------------------------------------------------------------------

namespace telemetry_detail {
std::atomic<bool> traceEnabled{false};
}

std::int64_t traceNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Per-thread span buffer. Owned by a thread_local, so destruction at
/// thread exit retires the spans into the registry instead of losing
/// them. Each buffer has its own lock: record() contends only with a
/// concurrent snapshot(), never with other recording threads.
struct TraceRecorder::ThreadBuffer {
  explicit ThreadBuffer(TraceRecorder* owner) : owner_(owner) {
    tid = owner->nextTid_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(owner->mutex_);
    owner->live_.push_back(this);
  }
  ~ThreadBuffer() { owner_->retire(this); }

  std::mutex mutex;
  std::vector<TraceSpan> spans;
  int tid = 0;

 private:
  TraceRecorder* owner_;
};

TraceRecorder& TraceRecorder::instance() {
  // Leaked singleton: worker threads may record until the very end of
  // the process; a destructor-ordered teardown would race them.
  static TraceRecorder* recorder = new TraceRecorder();
  return *recorder;
}

void TraceRecorder::enable() {
  pid_.store(static_cast<int>(::getpid()), std::memory_order_relaxed);
  telemetry_detail::traceEnabled.store(true, std::memory_order_relaxed);
}

void TraceRecorder::disable() {
  telemetry_detail::traceEnabled.store(false, std::memory_order_relaxed);
}

TraceRecorder::ThreadBuffer& TraceRecorder::localBuffer() {
  thread_local ThreadBuffer buffer(&instance());
  return buffer;
}

void TraceRecorder::retire(ThreadBuffer* buffer) {
  std::lock_guard<std::mutex> lock(mutex_);
  live_.erase(std::remove(live_.begin(), live_.end(), buffer), live_.end());
  retired_.insert(retired_.end(),
                  std::make_move_iterator(buffer->spans.begin()),
                  std::make_move_iterator(buffer->spans.end()));
}

void TraceRecorder::record(std::string name, std::int64_t startNs,
                           std::int64_t endNs, bool isInstant) {
  ThreadBuffer& buf = localBuffer();
  TraceSpan span{std::move(name), startNs, endNs,
                 pid_.load(std::memory_order_relaxed), buf.tid, isInstant};
  std::lock_guard<std::mutex> lock(buf.mutex);
  buf.spans.push_back(std::move(span));
}

void TraceRecorder::instant(std::string name) {
  const std::int64_t now = traceNowNs();
  record(std::move(name), now, now, /*isInstant=*/true);
}

void TraceRecorder::addForeign(TraceSpan span) {
  std::lock_guard<std::mutex> lock(mutex_);
  retired_.push_back(std::move(span));
}

std::vector<TraceSpan> TraceRecorder::snapshot() const {
  std::vector<TraceSpan> out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out = retired_;
    for (ThreadBuffer* buf : live_) {
      std::lock_guard<std::mutex> bufLock(buf->mutex);
      out.insert(out.end(), buf->spans.begin(), buf->spans.end());
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TraceSpan& a, const TraceSpan& b) {
              if (a.startNs != b.startNs) return a.startNs < b.startNs;
              if (a.pid != b.pid) return a.pid < b.pid;
              return a.tid < b.tid;
            });
  return out;
}

void TraceRecorder::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  retired_.clear();
  for (ThreadBuffer* buf : live_) {
    std::lock_guard<std::mutex> bufLock(buf->mutex);
    buf->spans.clear();
  }
}

// ---------------------------------------------------------------------
// Trace serialization
// ---------------------------------------------------------------------

std::string traceEventsJson(std::vector<TraceSpan> spans) {
  std::sort(spans.begin(), spans.end(),
            [](const TraceSpan& a, const TraceSpan& b) {
              if (a.startNs != b.startNs) return a.startNs < b.startNs;
              if (a.pid != b.pid) return a.pid < b.pid;
              return a.tid < b.tid;
            });
  // Rebase to the earliest event so timestamps are human-sized; all
  // processes share the monotonic timebase, so relative order survives.
  std::int64_t base = spans.empty() ? 0 : spans.front().startNs;

  JsonWriter w;
  w.beginObject();
  w.key("displayTimeUnit").value("ms");
  w.key("traceEvents").beginArray();
  for (const TraceSpan& span : spans) {
    w.beginObject();
    w.key("name").value(span.name);
    w.key("ph").value(span.instant ? "i" : "X");
    w.key("ts").value(static_cast<double>(span.startNs - base) / 1e3);
    if (span.instant) {
      w.key("s").value("t");
    } else {
      w.key("dur").value(static_cast<double>(span.endNs - span.startNs) /
                         1e3);
    }
    w.key("pid").value(span.pid);
    w.key("tid").value(span.tid);
    w.endObject();
  }
  w.endArray();
  w.endObject();
  return std::move(w).str();
}

Status writeTraceJson(const std::string& path,
                      std::vector<TraceSpan> spans) {
  // Atomic temp+rename write: a crash mid-dump never leaves a truncated
  // trace behind, and short writes (ENOSPC) surface as a Status.
  return atomicWriteFile(path, traceEventsJson(std::move(spans)));
}

namespace {

template <typename T>
void putRaw(std::string& out, T v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

template <typename T>
bool takeRaw(std::string_view bytes, std::size_t& at, T& v) {
  if (bytes.size() - at < sizeof v) return false;
  std::memcpy(&v, bytes.data() + at, sizeof v);
  at += sizeof v;
  return true;
}

}  // namespace

std::string encodeTraceSpans(const std::vector<TraceSpan>& spans) {
  std::string out;
  putRaw(out, static_cast<std::uint32_t>(spans.size()));
  for (const TraceSpan& span : spans) {
    putRaw(out, span.startNs);
    putRaw(out, span.endNs);
    putRaw(out, static_cast<std::int32_t>(span.pid));
    putRaw(out, static_cast<std::int32_t>(span.tid));
    putRaw(out, static_cast<std::uint8_t>(span.instant ? 1 : 0));
    putRaw(out, static_cast<std::uint32_t>(span.name.size()));
    out.append(span.name);
  }
  return out;
}

bool decodeTraceSpans(std::string_view payload, std::vector<TraceSpan>& out) {
  std::size_t at = 0;
  std::uint32_t count = 0;
  if (!takeRaw(payload, at, count)) return false;
  std::vector<TraceSpan> spans;
  for (std::uint32_t i = 0; i < count; ++i) {
    TraceSpan span;
    std::int32_t pid = 0;
    std::int32_t tid = 0;
    std::uint8_t instant = 0;
    std::uint32_t nameLen = 0;
    if (!takeRaw(payload, at, span.startNs) ||
        !takeRaw(payload, at, span.endNs) || !takeRaw(payload, at, pid) ||
        !takeRaw(payload, at, tid) || !takeRaw(payload, at, instant) ||
        !takeRaw(payload, at, nameLen) || payload.size() - at < nameLen) {
      return false;
    }
    span.pid = pid;
    span.tid = tid;
    span.instant = instant != 0;
    span.name.assign(payload.substr(at, nameLen));
    at += nameLen;
    spans.push_back(std::move(span));
  }
  if (at != payload.size()) return false;
  out.insert(out.end(), std::make_move_iterator(spans.begin()),
             std::make_move_iterator(spans.end()));
  return true;
}

// ---------------------------------------------------------------------
// Run manifest
// ---------------------------------------------------------------------

namespace {

void writePerfCounters(JsonWriter& w, const PerfCounters& perf) {
  w.beginObject();
  w.key("candidate_evals").value(perf.candidateEvals);
  w.key("candidate_cache_hits").value(perf.candidateCacheHits);
  w.key("profile_evals").value(perf.profileEvals);
  w.key("ledger_row_updates").value(perf.ledgerRowUpdates);
  w.key("ledger_folds").value(perf.ledgerFolds);
  w.key("full_scans").value(perf.fullScans);
  w.key("window_scans").value(perf.windowScans);
  w.key("nanos").beginObject();
  w.key("profile").value(perf.profileNanos);
  w.key("ledger").value(perf.ledgerNanos);
  w.key("scan").value(perf.scanNanos);
  w.key("candidate").value(perf.candidateNanos);
  w.endObject();
  w.endObject();
}

}  // namespace

std::string buildRunManifest(const RunManifestInfo& info,
                             const BatchConfig& config,
                             const BatchResult& result,
                             const RunCounters& counters,
                             const ShotStats& shotStats) {
  const FractureParams& p = config.params;
  std::int64_t failOn = 0;
  std::int64_t failOff = 0;
  for (const Solution& sol : result.solutions) {
    failOn += sol.failOn;
    failOff += sol.failOff;
  }

  JsonWriter w;
  w.beginObject();
  w.key("schema").value("mbf-run-manifest");
  w.key("version").value(2);
  // "interrupted" = a SIGTERM/SIGINT drain ended the run early; every
  // record present is still valid, shapes never started are reported
  // with a BUDGET_EXCEEDED interruption status.
  w.key("status").value(info.interrupted ? "interrupted" : "completed");

  w.key("input").beginObject();
  w.key("path").value(info.inputPath);
  w.key("shapes").value(static_cast<std::int64_t>(result.solutions.size()));
  w.endObject();

  w.key("output").beginObject();
  w.key("path").value(info.outputPath);
  w.endObject();

  w.key("config").beginObject();
  w.key("method").value(toString(config.method));
  // Every result field, so --verify can recompute the fingerprint.
  forEachResultField(p, [&](const char* name, const auto& field) {
    if constexpr (std::is_enum_v<std::decay_t<decltype(field)>>) {
      w.key(name).value(static_cast<int>(field));
    } else {
      w.key(name).value(field);
    }
  });
  w.key("threads").value(config.threads);
  w.key("budget_ms").value(p.shapeTimeBudgetMs);
  w.key("strict").value(!config.allowDegradation);
  w.key("ordered").value(info.ordered);
  w.key("hier").value(info.hier.enabled);
  w.key("top_cell").value(info.hier.topCell);
  w.key("fingerprint").value(info.fingerprint);
  w.endObject();

  // Artifact checksums: what --verify re-hashes. The manifest's own
  // digest lives in its .sha256 sidecar (a document cannot embed its
  // own hash).
  w.key("artifacts").beginArray();
  for (const ArtifactEntry& a : info.artifacts) {
    w.beginObject();
    w.key("kind").value(a.kind);
    w.key("path").value(a.path);
    w.key("bytes").value(a.bytes);
    w.key("sha256").value(a.sha256);
    w.endObject();
  }
  w.endArray();

  w.key("totals").beginObject();
  w.key("shots").value(result.totalShots);
  w.key("failing_pixels").value(result.totalFailingPixels);
  w.key("fail_on").value(failOn);
  w.key("fail_off").value(failOff);
  w.key("degraded_shapes").value(result.degradedShapes);
  w.key("wall_seconds").value(result.wallSeconds);
  w.key("shape_seconds_sum").value(result.shapeSecondsSum);
  w.endObject();

  const RefinerStats& rs = result.refinerStats;
  w.key("refiner").beginObject();
  w.key("iterations").value(rs.iterations);
  w.key("edge_moves").value(rs.edgeMoves);
  w.key("bias_steps").value(rs.biasSteps);
  w.key("shots_added").value(rs.shotsAdded);
  w.key("shots_removed").value(rs.shotsRemoved);
  w.key("merge_events").value(rs.mergeEvents);
  if (rs.limitCycleExits > 0) {
    w.key("limit_cycle_exits").value(rs.limitCycleExits);
  }
  w.key("stage_seconds").beginObject();
  w.key("total").value(rs.totalSeconds);
  w.key("setup").value(rs.setupSeconds);
  w.key("violation").value(rs.violationSeconds);
  w.key("edge_move").value(rs.edgeMoveSeconds);
  w.key("bias").value(rs.biasSeconds);
  w.key("structural").value(rs.structuralSeconds);
  w.key("merge").value(rs.mergeSeconds);
  w.endObject();
  w.endObject();

  w.key("perf");
  writePerfCounters(w, rs.perf);

  w.key("shot_stats").beginObject();
  w.key("count").value(shotStats.count);
  w.key("sliver_count").value(shotStats.sliverCount);
  w.key("min_dimension").value(shotStats.minDimension);
  w.key("max_dimension").value(shotStats.maxDimension);
  w.key("mean_area").value(shotStats.meanArea);
  w.key("overlap_fraction").value(shotStats.overlapFraction);
  w.key("total_shot_area").value(shotStats.totalShotArea);
  w.endObject();

  // Plan leverage, for flat and --hier runs alike: "fracture_work_avoided"
  // is the instantiated shapes the run did NOT fracture individually —
  // instancing (repeated cells, repeated flat shapes) plus the journal
  // and the persistent cell cache account for all of it.
  w.key("hier").beginObject();
  w.key("enabled").value(info.hier.enabled);
  w.key("top_cell").value(info.hier.topCell);
  w.key("cell_cache_dir").value(info.hier.cacheDir);
  w.key("cells_reachable").value(info.hier.reachableCells);
  w.key("unique_cells_fractured").value(info.hier.uniqueCellsFractured);
  w.key("unique_shapes_fractured").value(info.hier.uniqueShapesFractured);
  w.key("cache_hits").value(info.hier.cacheHits);
  w.key("cache_misses").value(info.hier.cacheMisses);
  w.key("cache_rejected").value(info.hier.cacheRejected);
  if (info.hier.cacheIoErrors > 0) {
    w.key("cache_io_errors").value(info.hier.cacheIoErrors);
  }
  if (info.hier.cacheEvicted > 0) {
    w.key("cache_evicted").value(info.hier.cacheEvicted);
  }
  if (info.hier.cacheEvictionsSkippedLive > 0) {
    w.key("cache_evictions_skipped_live")
        .value(info.hier.cacheEvictionsSkippedLive);
  }
  if (info.hier.cacheDisabled) {
    w.key("cache_disabled").value(true);
  }
  w.key("instances_expanded").value(info.hier.instancesExpanded);
  const auto instantiated = static_cast<std::int64_t>(result.solutions.size());
  w.key("instantiated_shapes").value(instantiated);
  w.key("fracture_work_avoided")
      .value(instantiated - info.hier.uniqueShapesFractured);
  w.endObject();

  w.key("recovery").beginObject();
  w.key("enabled").value(info.haveRecovery);
  w.key("resumed_shapes").value(counters.resumedShapes);
  w.key("fresh_shapes").value(counters.freshShapes);
  // Cell-granular recovery (hier journals): emitted only for journaled
  // hierarchical runs, keeping flat manifests byte-identical.
  if (info.hier.enabled && info.haveRecovery) {
    w.key("resumed_cells").value(counters.resumedCells);
    w.key("fresh_cells").value(counters.freshCells);
  }
  w.key("torn_tail").value(counters.tornTail);
  w.key("retried_ranges").value(counters.retriedRanges);
  w.key("crashed_workers").value(counters.crashedWorkers);
  w.key("hung_workers").value(counters.hungWorkers);
  w.key("crashed_shapes").value(counters.crashedShapes);
  // Degradation fields (section 18) are emitted only when set: a clean
  // run's manifest stays byte-identical across binary versions, which
  // the disarmed-vs-pre-PR identity check depends on.
  if (counters.journalDowngraded) {
    w.key("journal_downgraded").value(true);
  }
  if (counters.staleTempsRemoved > 0) {
    w.key("stale_temps_removed").value(counters.staleTempsRemoved);
  }
  w.key("isolated_shapes").beginArray();
  for (const int s : info.isolatedShapes) w.value(s);
  w.endArray();
  w.endObject();

  // The claims, once per plan cell: read from the cell's first instance,
  // which every other instance repeats (the stamped shape index is not
  // part of a status message). --verify expands them over the plan it
  // re-derives.
  std::vector<int> repaired = info.repairedShapes;
  std::sort(repaired.begin(), repaired.end());
  const auto results = static_cast<std::int64_t>(result.solutions.size());
  auto writeCell = [&](std::int64_t first, int shapes,
                       std::int64_t instances) {
    w.beginObject();
    w.key("instances").value(instances);
    w.key("shapes").beginArray();
    for (std::int64_t i = first; i < std::min(first + shapes, results); ++i) {
      const auto at = static_cast<std::size_t>(i);
      const Solution& sol = result.solutions[at];
      w.beginObject();
      w.key("method").value(sol.method);
      w.key("shots").value(sol.shotCount());
      w.key("fail_on").value(sol.failOn);
      w.key("fail_off").value(sol.failOff);
      w.key("cost").value(sol.cost);
      w.key("runtime_seconds").value(sol.runtimeSeconds);
      w.key("degraded").value(sol.degraded);
      w.key("repaired").value(std::binary_search(
          repaired.begin(), repaired.end(), static_cast<int>(i)));
      if (at < result.reports.size()) {
        const ShapeReport& rep = result.reports[at];
        w.key("status").beginObject();
        w.key("code").value(toString(rep.status.code()));
        w.key("message").value(rep.status.message());
        w.endObject();
      }
      w.endObject();
    }
    w.endArray();
    w.endObject();
  };
  w.key("cells").beginArray();
  if (info.cells.empty()) {
    for (std::int64_t i = 0; i < results; ++i) writeCell(i, 1, 1);
  }
  for (const RunManifestInfo::CellGroup& cell : info.cells) {
    writeCell(cell.firstResult, cell.shapes, cell.instances);
  }
  w.endArray();

  w.endObject();
  return std::move(w).str();
}

}  // namespace mbf
