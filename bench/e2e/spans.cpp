#include "spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <utility>

#include "support/telemetry.h"

namespace mbf::e2e {
namespace {

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int threadId() {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1);
  return id;
}

/// Self time of span `i`: its duration minus the union of its
/// children's intervals clipped to it (children may run concurrently).
std::int64_t selfNs(const std::vector<Span>& spans, std::size_t i) {
  const Span& s = spans[i];
  std::vector<std::pair<std::int64_t, std::int64_t>> kids;
  for (const Span& c : spans) {
    if (c.parent != static_cast<int>(i)) continue;
    const std::int64_t a = std::max(c.startNs, s.startNs);
    const std::int64_t b = std::min(c.endNs, s.endNs);
    if (b > a) kids.emplace_back(a, b);
  }
  std::sort(kids.begin(), kids.end());
  std::int64_t covered = 0;
  std::int64_t reach = std::numeric_limits<std::int64_t>::min();
  for (const auto& [a, b] : kids) {
    const std::int64_t from = std::max(a, reach);
    if (b > from) covered += b - from;
    reach = std::max(reach, b);
  }
  return (s.endNs - s.startNs) - covered;
}

}  // namespace

int SpanLog::begin(std::string name, int parent, const std::string& workload,
                   int run) {
  Span span;
  span.name = std::move(name);
  span.parent = parent;
  span.workload = workload;
  span.run = run;
  span.thread = threadId();
  span.startNs = nowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::end(int index) {
  const std::int64_t t = nowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(index)].endNs = t;
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::map<std::string, SpanLog::Times> SpanLog::timesOf(
    const std::string& workload, int run) const {
  const std::vector<Span> all = spans();
  std::map<std::string, Times> out;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].workload != workload || all[i].run != run) continue;
    Times& t = out[all[i].name];
    t.total += static_cast<double>(all[i].endNs - all[i].startNs) * 1e-9;
    t.self += static_cast<double>(selfNs(all, i)) * 1e-9;
  }
  return out;
}

std::string SpanLog::chromeJson() const {
  const std::vector<Span> all = spans();
  std::int64_t base = std::numeric_limits<std::int64_t>::max();
  for (const Span& s : all) base = std::min(base, s.startNs);
  JsonWriter w;
  w.beginObject();
  w.key("displayTimeUnit").value("ms");
  w.key("traceEvents").beginArray();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    w.beginObject();
    w.key("name").value(s.name);
    w.key("ph").value("X");
    w.key("ts").value(static_cast<double>(s.startNs - base) / 1e3);
    w.key("dur").value(static_cast<double>(s.endNs - s.startNs) / 1e3);
    w.key("pid").value(1);
    w.key("tid").value(s.thread);
    w.key("args").beginObject();
    w.key("workload").value(s.workload);
    w.key("run").value(s.run);
    w.key("id").value(static_cast<int>(i));
    w.key("parent").value(s.parent);
    w.key("self_us").value(static_cast<double>(selfNs(all, i)) / 1e3);
    w.endObject();
    w.endObject();
  }
  w.endArray();
  w.endObject();
  return w.str();
}

}  // namespace mbf::e2e
