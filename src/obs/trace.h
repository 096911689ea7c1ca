// Per-query trace spans.
//
// A Trace collects the spans of ONE query: parse, bind, optimize (or plan
// cache), execution, per-operator accesses and the individual market calls
// underneath them. Spans nest via parent ids and may be started/ended from
// any thread; the calls a scheduler batch keeps in flight at once land
// their spans in the same trace as the access that issued them. The
// finished span list travels with the QueryReport (so callers can
// answer "where did this query's time and money go" programmatically) and
// can optionally be mirrored to a JSONL sink for offline analysis.
//
// Span ids are 1-based within the trace; parent id 0 means root. Attributes
// are ordered key/value string pairs — small, flat, and good enough for
// datasets, binding values, transaction counts and retry/waste totals.
#ifndef PAYLESS_OBS_TRACE_H_
#define PAYLESS_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace payless::obs {

/// One finished (or still-open) span of a query trace.
struct SpanRecord {
  uint64_t id = 0;      // 1-based within the trace
  uint64_t parent = 0;  // 0 = root span
  std::string name;
  int64_t start_micros = 0;     // relative to the trace's first span
  int64_t duration_micros = -1;  // -1 while the span is open
  std::vector<std::pair<std::string, std::string>> attrs;

  bool closed() const { return duration_micros >= 0; }
};

/// Thread-safe span collector for one query. All members lock one internal
/// mutex; spans are identified by the id StartSpan returned, so handles can
/// cross threads freely.
class Trace {
 public:
  Trace() : epoch_(std::chrono::steady_clock::now()) {}
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  /// Opens a span; returns its id (never 0).
  uint64_t StartSpan(std::string name, uint64_t parent = 0);

  /// Closes a span. Returns false (and changes nothing) if `id` is unknown
  /// or the span is already closed — spans close exactly once.
  bool EndSpan(uint64_t id);

  void AddAttr(uint64_t id, std::string key, std::string value);
  void AddAttr(uint64_t id, std::string key, int64_t value);

  size_t num_spans() const;

  /// Moves the collected spans out (the trace becomes empty). Call after
  /// all spans are closed — open spans are surrendered as-is with
  /// duration -1.
  std::vector<SpanRecord> TakeSpans();

 private:
  int64_t NowMicros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

/// RAII close for a span; inert when `trace` is nullptr, so call sites can
/// instrument unconditionally and pay nothing when tracing is off.
class ScopedSpan {
 public:
  ScopedSpan() = default;
  ScopedSpan(Trace* trace, std::string name, uint64_t parent = 0)
      : trace_(trace) {
    if (trace_ != nullptr) id_ = trace_->StartSpan(std::move(name), parent);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (trace_ != nullptr) trace_->EndSpan(id_);
  }

  uint64_t id() const { return id_; }
  void AddAttr(std::string key, std::string value) {
    if (trace_ != nullptr) trace_->AddAttr(id_, std::move(key), std::move(value));
  }
  void AddAttr(std::string key, int64_t value) {
    if (trace_ != nullptr) trace_->AddAttr(id_, std::move(key), value);
  }

 private:
  Trace* trace_ = nullptr;
  uint64_t id_ = 0;
};

/// Receives every finished query trace. Implementations must be
/// thread-safe: concurrent queries finish concurrently.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void Emit(const std::string& tenant, uint64_t query_id,
                    const std::vector<SpanRecord>& spans) = 0;
};

/// Appends one JSON object per query to a file:
///   {"tenant":..., "query_id":..., "spans":[{...}, ...]}
class JsonlTraceSink : public TraceSink {
 public:
  /// Truncates `path`; returns an error if the file cannot be opened.
  static Result<std::unique_ptr<JsonlTraceSink>> Open(const std::string& path);
  ~JsonlTraceSink() override;

  void Emit(const std::string& tenant, uint64_t query_id,
            const std::vector<SpanRecord>& spans) override;

  int64_t lines_written() const;

 private:
  explicit JsonlTraceSink(std::FILE* file) : file_(file) {}

  mutable std::mutex mutex_;
  std::FILE* file_;
  int64_t lines_ = 0;
};

/// Renders spans as a JSON array (shared by the sink and tests).
std::string SpansToJson(const std::vector<SpanRecord>& spans);

/// Appends `s` with JSON string escapes (quotes, backslashes, \n, \t).
void AppendJsonEscaped(std::ostringstream& os, const std::string& s);

}  // namespace payless::obs

#endif  // PAYLESS_OBS_TRACE_H_
