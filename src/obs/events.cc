#include "obs/events.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <ostream>

namespace cfgtag::obs {

namespace {

thread_local uint64_t g_correlation_id = 0;

std::atomic<uint64_t> g_next_correlation{1};

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

std::string JsonEscape(std::string_view s) {
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
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// Signal-dump state. The handler only reads g_dump_path and calls
// async-signal-safe functions.
char g_dump_path[512] = {0};

void SignalDumpHandler(int sig) {
  if (g_dump_path[0] != '\0') {
    const int fd =
        ::open(g_dump_path, O_CREAT | O_WRONLY | O_TRUNC, 0644);
    if (fd >= 0) {
      FlightRecorder::Default().DumpTo(fd);
      ::close(fd);
    }
  }
  // Restore the default disposition and re-raise so the process still dies
  // with the conventional signal exit status.
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

}  // namespace

const char* EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kStatusError:
      return "status_error";
    case EventKind::kNidsAlert:
      return "nids_alert";
    case EventKind::kDfaCacheFallback:
      return "dfa_cache_fallback";
    case EventKind::kSlowShard:
      return "slow_shard";
    case EventKind::kCustom:
      return "custom";
    case EventKind::kDeadlineExceeded:
      return "deadline_exceeded";
    case EventKind::kScanCancelled:
      return "scan_cancelled";
    case EventKind::kBudgetPressure:
      return "budget_pressure";
    case EventKind::kDegradedMode:
      return "degraded_mode";
    case EventKind::kFaultInjected:
      return "fault_injected";
    case EventKind::kStuckShard:
      return "stuck_shard";
    case EventKind::kShardFailed:
      return "shard_failed";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(size_t capacity)
    : capacity_(RoundUpPow2(std::max<size_t>(capacity, 2))),
      slots_(new Slot[RoundUpPow2(std::max<size_t>(capacity, 2))]),
      epoch_(std::chrono::steady_clock::now()) {}

FlightRecorder::~FlightRecorder() { delete[] slots_; }

void FlightRecorder::Record(EventKind kind, uint64_t correlation_id,
                            int64_t a, int64_t b, std::string_view detail) {
  const uint64_t seq = next_.fetch_add(1, std::memory_order_relaxed) + 1;
  Slot& slot = slots_[(seq - 1) & (capacity_ - 1)];
  // Claim: readers that see kBusy (or a seq that changed under them) skip
  // the slot. A writer lapped mid-write by another writer is not possible
  // short of capacity_ concurrent recorders, which the ring size makes
  // unreachable in practice; even then the loser only publishes a stale
  // seq that readers reject.
  //
  // Seqlock write protocol (Boehm, "Can seqlocks get along with
  // programming language memory models?"): the kBusy claim must become
  // visible before any payload word changes, and the payload words before
  // the committing seq — relaxed claim, release fence, relaxed payload
  // stores, release commit.
  slot.ready.store(kBusy, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  Event e;
  e.seq = seq;
  e.t_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
  e.correlation_id = correlation_id;
  e.a = a;
  e.b = b;
  e.kind = kind;
  const size_t n = std::min(detail.size(), sizeof(e.detail) - 1);
  std::memcpy(e.detail, detail.data(), n);
  e.detail[n] = '\0';
  uint64_t words[kEventWords] = {0};
  std::memcpy(words, &e, sizeof(e));
  for (size_t w = 0; w < kEventWords; ++w) {
    slot.words[w].store(words[w], std::memory_order_relaxed);
  }
  slot.ready.store(seq, std::memory_order_release);
}

bool FlightRecorder::ReadSlot(size_t i, Event* out) const {
  const Slot& slot = slots_[i];
  const uint64_t before = slot.ready.load(std::memory_order_acquire);
  if (before == 0 || before == kBusy) return false;
  uint64_t words[kEventWords];
  for (size_t w = 0; w < kEventWords; ++w) {
    words[w] = slot.words[w].load(std::memory_order_relaxed);
  }
  // The fence orders the payload loads before the re-read of the stamp:
  // an unchanged stamp therefore proves no writer touched the words while
  // they were being copied.
  std::atomic_thread_fence(std::memory_order_acquire);
  const uint64_t after = slot.ready.load(std::memory_order_relaxed);
  if (after != before) return false;
  std::memcpy(out, words, sizeof(Event));
  // The seq check rejects the one remaining hole: a writer that claimed,
  // wrote, and committed a *different* seq entirely between the two loads.
  return out->seq == before;
}

std::vector<Event> FlightRecorder::Snapshot() const {
  std::vector<Event> out;
  out.reserve(capacity_);
  for (size_t i = 0; i < capacity_; ++i) {
    Event copy;
    if (ReadSlot(i, &copy)) out.push_back(copy);
  }
  std::sort(out.begin(), out.end(),
            [](const Event& x, const Event& y) { return x.seq < y.seq; });
  return out;
}

uint64_t FlightRecorder::dropped() const {
  const uint64_t total = next_.load(std::memory_order_relaxed);
  return total > capacity_ ? total - capacity_ : 0;
}

void FlightRecorder::WriteJson(std::ostream& os) const {
  const std::vector<Event> events = Snapshot();
  os << "{\n  \"recorded\": " << total_recorded()
     << ",\n  \"dropped\": " << dropped() << ",\n  \"events\": [";
  for (size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"seq\": " << e.seq << ", \"t_us\": " << e.t_us
       << ", \"kind\": \"" << EventKindName(e.kind)
       << "\", \"correlation_id\": " << e.correlation_id
       << ", \"a\": " << e.a << ", \"b\": " << e.b << ", \"detail\": \""
       << JsonEscape(e.detail) << "\"}";
  }
  os << (events.empty() ? "]\n}\n" : "\n  ]\n}\n");
}

void FlightRecorder::DumpTo(int fd) const {
  // Async-signal-safe: fixed stack buffers, snprintf, write. The detail
  // string is emitted raw minus quotes/backslashes/control bytes rather
  // than escaped — recorder details are plain identifiers by convention.
  char buf[256];
  for (size_t i = 0; i < capacity_; ++i) {
    Event e;
    if (!ReadSlot(i, &e)) continue;
    char detail[sizeof(e.detail)];
    size_t n = 0;
    for (size_t k = 0; k < sizeof(e.detail) && e.detail[k] != '\0'; ++k) {
      const unsigned char c = static_cast<unsigned char>(e.detail[k]);
      if (c >= 0x20 && c != '"' && c != '\\') detail[n++] = e.detail[k];
    }
    detail[n] = '\0';
    const int len = ::snprintf(
        buf, sizeof(buf),
        "{\"seq\": %llu, \"t_us\": %llu, \"kind\": \"%s\", "
        "\"correlation_id\": %llu, \"a\": %lld, \"b\": %lld, "
        "\"detail\": \"%s\"}\n",
        static_cast<unsigned long long>(e.seq),
        static_cast<unsigned long long>(e.t_us), EventKindName(e.kind),
        static_cast<unsigned long long>(e.correlation_id),
        static_cast<long long>(e.a), static_cast<long long>(e.b), detail);
    if (len > 0) {
      ssize_t ignored =
          ::write(fd, buf, std::min(static_cast<size_t>(len), sizeof(buf)));
      (void)ignored;
    }
  }
}

void FlightRecorder::InstallSignalDump(const char* path) {
  if (path == nullptr) path = "";
  std::strncpy(g_dump_path, path, sizeof(g_dump_path) - 1);
  g_dump_path[sizeof(g_dump_path) - 1] = '\0';
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = &SignalDumpHandler;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
}

void FlightRecorder::Clear() {
  next_.store(0, std::memory_order_relaxed);
  for (size_t i = 0; i < capacity_; ++i) {
    slots_[i].ready.store(0, std::memory_order_relaxed);
  }
}

FlightRecorder& FlightRecorder::Default() {
  static FlightRecorder* const kRecorder = new FlightRecorder();
  return *kRecorder;
}

uint64_t NextCorrelationId(uint64_t count) {
  return g_next_correlation.fetch_add(count, std::memory_order_relaxed);
}

uint64_t CurrentCorrelationId() { return g_correlation_id; }

CorrelationScope::CorrelationScope(uint64_t id) : prev_(g_correlation_id) {
  g_correlation_id = id;
}

CorrelationScope::~CorrelationScope() { g_correlation_id = prev_; }

void RecordEvent(EventKind kind, int64_t a, int64_t b,
                 std::string_view detail) {
  FlightRecorder::Default().Record(kind, CurrentCorrelationId(), a, b,
                                   detail);
}

}  // namespace cfgtag::obs
