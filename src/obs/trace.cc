#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <ostream>
#include <utility>

#include "obs/metrics.h"

namespace cfgtag::obs {

namespace {

// Innermost live span of the current thread, across all tracers — spans
// nest lexically regardless of which tracer they record into.
thread_local ScopedSpan* g_current_span = nullptr;

std::atomic<uint64_t> g_next_tracer_serial{0};

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

}  // namespace

Tracer::Tracer(size_t capacity)
    : capacity_(capacity),
      serial_(g_next_tracer_serial.fetch_add(1, std::memory_order_relaxed)),
      epoch_(std::chrono::steady_clock::now()) {}

uint64_t Tracer::NowUs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void Tracer::Record(SpanRecord record) {
  bool overwrote = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (capacity_ == 0) {
      ++dropped_;
      overwrote = true;
    } else if (spans_.size() < capacity_) {
      spans_.push_back(std::move(record));
    } else {
      spans_[ring_next_] = std::move(record);
      ring_next_ = (ring_next_ + 1) % capacity_;
      ++dropped_;
      overwrote = true;
    }
  }
  // Resolved once, like every other built-in metric handle: a full ring
  // overwrites on every span, and a registry lookup per drop would take
  // the registry mutex and build the name string each time.
  if (overwrote) {
    static Counter* const kDropped = MetricsRegistry::Default().GetCounter(
        "cfgtag_trace_spans_dropped_total",
        "Trace spans overwritten because the span ring was full");
    kDropped->Increment();
  }
}

void Tracer::SetLastPath(std::string path) {
  std::lock_guard<std::mutex> lock(mu_);
  last_path_ = std::move(path);
}

uint32_t Tracer::ThreadId() {
  // Dense per-tracer thread ids, assigned on first use by each thread.
  thread_local std::vector<std::pair<uint64_t, uint32_t>> cache;
  for (const auto& [serial, id] : cache) {
    if (serial == serial_) return id;
  }
  uint32_t id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = next_tid_++;
  }
  cache.emplace_back(serial_, id);
  return id;
}

std::string Tracer::LastSpanPath() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_path_;
}

std::vector<SpanRecord> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> out = spans_;
  if (ring_next_ != 0) {
    std::rotate(out.begin(),
                out.begin() + static_cast<ptrdiff_t>(ring_next_), out.end());
  }
  return out;
}

uint64_t Tracer::dropped_spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

size_t Tracer::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

void Tracer::set_capacity(size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  // Linearize oldest-first before resizing so truncation drops from the
  // old end.
  if (ring_next_ != 0) {
    std::rotate(spans_.begin(),
                spans_.begin() + static_cast<ptrdiff_t>(ring_next_),
                spans_.end());
    ring_next_ = 0;
  }
  capacity_ = n;
  if (spans_.size() > n) {
    spans_.erase(spans_.begin(),
                 spans_.end() - static_cast<ptrdiff_t>(n));
  }
}

void Tracer::WriteChromeTrace(std::ostream& os) const {
  std::vector<SpanRecord> spans = Snapshot();
  os << "{\"traceEvents\": [";
  for (size_t i = 0; i < spans.size(); ++i) {
    if (i > 0) os << ",";
    os << "\n  {\"name\": \"" << JsonEscape(spans[i].name)
       << "\", \"cat\": \"cfgtag\", \"ph\": \"X\", \"ts\": "
       << spans[i].start_us << ", \"dur\": " << spans[i].dur_us
       << ", \"pid\": 0, \"tid\": " << spans[i].tid << "}";
  }
  os << "\n], \"displayTimeUnit\": \"ms\"}\n";
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
  ring_next_ = 0;
  dropped_ = 0;
  last_path_.clear();
}

Tracer& Tracer::Default() {
  static Tracer* const kTracer = new Tracer();
  return *kTracer;
}

ScopedSpan::ScopedSpan(std::string name, Tracer* tracer)
    : tracer_(tracer),
      name_(std::move(name)),
      start_us_(tracer->NowUs()),
      depth_(g_current_span == nullptr ? 0 : g_current_span->depth_ + 1),
      parent_(g_current_span) {
  g_current_span = this;
  std::string path;
  for (const ScopedSpan* s = this; s != nullptr; s = s->parent_) {
    path = path.empty() ? s->name_ : s->name_ + "/" + path;
  }
  tracer_->SetLastPath(std::move(path));
}

ScopedSpan::~ScopedSpan() {
  g_current_span = parent_;
  SpanRecord record;
  record.name = std::move(name_);
  record.start_us = start_us_;
  const uint64_t end = tracer_->NowUs();
  record.dur_us = end > start_us_ ? end - start_us_ : 0;
  record.depth = depth_;
  record.tid = tracer_->ThreadId();
  tracer_->Record(std::move(record));
}

}  // namespace cfgtag::obs
