#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

/// \file trace.h
/// The benchmark's own instrumentation: a monotonic clock, in-memory spans
/// recorded around calls into each gsb layer (written out as Chrome
/// trace-event JSON at exit), sample statistics, and the ordered metric
/// set printed as the benchmark's result line.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
double now_s();

/// One recorded interval.  `id` is unique per log; `parent` is 0 for a
/// root span.  Request spans use the request's own id as `id`.
struct Span {
  std::string name;
  std::string layer;
  double start_s = 0.0;
  double end_s = 0.0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint32_t lane = 0;
};

/// Keeps spans in memory; thread-safe.  Disabled logs still hand out ids
/// and time spans (callers use the durations) but store nothing.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  std::uint64_t next_id();
  void add(Span span);
  void add_batch(std::vector<Span>& spans);
  /// Writes every span as a complete ("ph":"X") trace event.
  void write_chrome(const std::string& path) const;

 private:
  const bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
};

/// RAII span: opens on construction, records on stop() or destruction.
class Scope {
 public:
  Scope(SpanLog& log, std::string name, std::string layer,
        std::uint64_t parent = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return span_.id; }
  /// Ends the span (idempotent) and returns its duration in seconds.
  double stop();

 private:
  SpanLog& log_;
  Span span_;
  bool open_ = true;
};

/// Linear-interpolated quantile of \p values (q in [0, 1]); 0 when empty.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/// Ordered metric set, rendered as the result line's "metrics" object.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] std::string json() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Shortest round-trip decimal form of \p value (JSON-safe; non-finite
/// values render as 0 and should never be produced).
std::string format_number(double value);
std::string json_escape(const std::string& text);

/// 64-bit FNV-1a over \p data.
std::uint64_t fnv1a(const void* data, std::size_t size,
                    std::uint64_t seed = 0xcbf29ce484222325ull);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H
