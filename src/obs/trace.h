#ifndef CFGTAG_OBS_TRACE_H_
#define CFGTAG_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

namespace cfgtag::obs {

// A completed span, as recorded by ScopedSpan. Timestamps are microseconds
// since the tracer was constructed; `tid` is a small dense id assigned per
// observed thread, matching what the Chrome trace export emits.
struct SpanRecord {
  std::string name;
  uint64_t start_us = 0;
  uint64_t dur_us = 0;
  int depth = 0;  // nesting depth at record time (0 = top-level)
  uint32_t tid = 0;
};

// Collects spans and exports them as Chrome `trace_event` JSON — load the
// file via chrome://tracing or https://ui.perfetto.dev. Span begin/end is
// driven by ScopedSpan; spans nest per thread (a span opened while another
// is live on the same thread becomes its child).
//
// The buffer is a bounded ring: once `capacity` spans are stored, each new
// span overwrites the oldest one, so a long-lived service always holds the
// most recent window at O(capacity) memory. Overwrites are counted in
// dropped_spans() and mirrored into the default MetricsRegistry as
// `cfgtag_trace_spans_dropped_total`.
class Tracer {
 public:
  explicit Tracer(size_t capacity = 1 << 16);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Slash-joined path of the most recently *entered* span on any thread,
  // e.g. "core.Compile/hwgen.Generate" — still meaningful after the span
  // ends. Benches use it to say where a fatal Status came from.
  std::string LastSpanPath() const;

  // Completed spans in completion order (a parent therefore follows its
  // children), oldest retained span first.
  std::vector<SpanRecord> Snapshot() const;

  // Spans overwritten (oldest-first) because the ring was full.
  uint64_t dropped_spans() const;

  size_t capacity() const;

  // Resizes the ring, keeping the most recent min(n, size) spans. A
  // capacity of 0 drops every future span (still counted).
  void set_capacity(size_t n);

  // Writes the Chrome trace_event JSON ({"traceEvents": [...]}, "X" phase
  // complete events).
  void WriteChromeTrace(std::ostream& os) const;

  // Forgets all recorded spans (open ScopedSpans still record on exit).
  void Clear();

  // The process-wide tracer all built-in instrumentation writes to.
  static Tracer& Default();

 private:
  friend class ScopedSpan;

  uint64_t NowUs() const;
  void Record(SpanRecord record);
  void SetLastPath(std::string path);
  uint32_t ThreadId();

  size_t capacity_;
  // Process-unique, unlike the tracer's address, which a later tracer can
  // reuse: keys the per-thread id cache.
  const uint64_t serial_;
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // ring once full; spans_[ring_next_]
                                   // is the oldest retained span
  size_t ring_next_ = 0;
  uint64_t dropped_ = 0;
  std::string last_path_;
  uint32_t next_tid_ = 0;
};

// RAII span: records [construction, destruction) into a tracer. Spans on
// the same thread nest; the span path (for Tracer::LastSpanPath) is the
// slash-joined names of the enclosing ScopedSpans plus this one.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string name, Tracer* tracer = &Tracer::Default());
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  const std::string& name() const { return name_; }

 private:
  Tracer* tracer_;
  std::string name_;
  uint64_t start_us_;
  int depth_;
  ScopedSpan* parent_;  // enclosing span on this thread (any tracer)
};

}  // namespace cfgtag::obs

#endif  // CFGTAG_OBS_TRACE_H_
