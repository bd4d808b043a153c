// In-memory span log of the benchmark's traced run. Spans are recorded
// by the benchmark around its calls into each layer (the program itself
// is not instrumented here); each records name, start, end, parent,
// workload and run id. The log is written once, at exit, as Chrome
// trace JSON (chrome://tracing, Perfetto).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace mbf::e2e {

struct Span {
  std::string name;
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  int parent = -1;  ///< index into SpanLog::spans(), -1 = root
  std::string workload;
  int run = 0;
  int thread = 0;  ///< small id of the recording thread
};

class SpanLog {
 public:
  /// Opens a span and returns its index; close it with end().
  int begin(std::string name, int parent, const std::string& workload,
            int run);
  void end(int index);

  /// Copy of every span recorded so far.
  std::vector<Span> spans() const;

  /// Seconds of each span name summed over the spans of one run: total
  /// duration, and self time (duration minus the union of the intervals
  /// its children cover, clipped to the span).
  struct Times {
    double total = 0.0;
    double self = 0.0;
  };
  std::map<std::string, Times> timesOf(const std::string& workload,
                                       int run) const;

  /// Chrome trace JSON of every span; args carry workload, run, parent
  /// and self time.
  std::string chromeJson() const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span: begin() in the constructor, end() in the destructor.
class SpanScope {
 public:
  SpanScope(SpanLog& log, std::string name, int parent,
            const std::string& workload, int run)
      : log_(log),
        index_(log.begin(std::move(name), parent, workload, run)) {}
  ~SpanScope() { log_.end(index_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  int index() const { return index_; }

 private:
  SpanLog& log_;
  int index_;
};

}  // namespace mbf::e2e
