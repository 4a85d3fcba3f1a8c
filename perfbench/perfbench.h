#ifndef CFGTAG_PERFBENCH_PERFBENCH_H_
#define CFGTAG_PERFBENCH_PERFBENCH_H_

// Shared pieces of the repository benchmark: clocks and statistics, the
// in-memory span recorder, the run record that becomes the final JSON
// line, the seeded input generators and the workload table.

#include <sched.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "nids/context_filter.h"
#include "tagger/tag.h"
#include "xmlrpc/router.h"

namespace perfbench {

// The value of a library call the benchmark cannot do without; on an
// error the run ends with exit code 1 and no result line.
template <typename T>
T Must(cfgtag::StatusOr<T> v, const char* what) {
  if (!v.ok()) {
    std::fprintf(stderr, "perfbench: %s: %s\n", what,
                 v.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(v).value();
}

// ---- Clocks, statistics and host probes (harness.cc) ---------------------

// Monotonic seconds.
double Now();
double Median(std::vector<double> v);
// Percentile with linear interpolation between closest ranks, p in [0, 100].
double Percentile(std::vector<double> v, double p);
// Resident set from /proc/self/status, MiB: the high-water mark (VmHWM)
// and the current value (VmRSS).
double PeakRssMb();
double CurrentRssMb();
// Best-of-several memcpy bandwidth over buffers larger than a core's
// caches, MB/s, or 0 when it cannot be measured (which fails the
// throughput guard). Measured in a forked child so the buffers never count
// towards this process's peak resident set.
double MemcpyMbps();
// Moves every thread of this process, pass by pass, through windows of
// `width` consecutive CPUs of the affinity mask it started with. On a
// shared host a neighbour can slow one core for a whole run; rotating
// lets the quiet passes come from whichever cores are quiet. The
// destructor restores the starting mask.
class CpuRotation {
 public:
  explicit CpuRotation(int width);
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  // Pins to the next window; a no-op with no more CPUs than `width`.
  void Next();

 private:
  static void PinAllThreads(const cpu_set_t& set);

  int width_;
  cpu_set_t start_;
  std::vector<int> cpus_;
  size_t next_ = 0;
  bool moved_ = false;
};
// Latencies of every op of a timed loop in fixed memory: log-spaced
// buckets 0.1% wide from 10 ns to 100 s, all allocated up front, so
// recording never allocates and the peak resident set does not grow with
// the number of ops.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void Add(double seconds);
  uint64_t count() const { return count_; }
  // The p-th percentile in seconds, p in [0, 100], interpolated within
  // its bucket; 0 when empty.
  double Percentile(double p) const;

 private:
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
};
// `s` with quotes and backslashes escaped, for a JSON string.
std::string JsonEscape(const std::string& s);
// CPU model, SIMD flags, core count, compiler, build type and the given
// commit, as one JSON object.
std::string HostFingerprintJson(const std::string& commit);

// ---- Spans -----------------------------------------------------------------

// Records spans from the benchmark's own code around calls into the
// library: name, start, end, parent span and the id of the run (setup
// repetition or operation) they belong to. Spans stay in memory until
// ToJson() at the end of the run. Past kMaxSpans a span still reads the
// clock, so the overhead stays the same, but is only counted as dropped.
// A disabled tracer records nothing.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1;
    uint64_t run_id = 0;
  };

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, uint64_t run_id);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
    int saved_parent_ = -1;
  };

  static constexpr size_t kMaxSpans = 20000;

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  void set_enabled(bool enabled) { enabled_ = enabled; }
  const std::vector<Span>& spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }
  std::string ToJson() const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
  int current_ = -1;
};

// ---- The run record ---------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

// Everything one run reports. `metrics` become the final JSON line;
// `facts` are layer numbers that apply to this workload only and
// `absent` names metrics the library cannot produce yet — both go to the
// trace report. A failed check makes the run incorrect.
struct Record {
  Record(uint64_t seed, double seconds, bool trace, int cpus)
      : seed(seed), seconds(seconds), trace(trace), cpus(cpus), tracer(trace) {}

  void Add(const std::string& name, const std::string& unit, double value) {
    metrics.push_back({name, unit, value});
  }
  void Fact(const std::string& name, const std::string& unit, double value) {
    facts.push_back({name, unit, value});
  }
  void Absent(const std::string& name, const std::string& why) {
    absent.push_back(name + ": " + why);
  }
  // Ground-truth checks and guards. Returns `ok`.
  bool Check(bool ok, const std::string& what);
  // One operation of the closed loop.
  void CountOp(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  bool correct() const { return problems.empty() && failed == 0; }

  uint64_t seed;
  double seconds;
  bool trace;
  int cpus;  // CPUs the workload's measuring threads keep busy
  Tracer tracer;
  double memcpy_mbps = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> facts;
  std::vector<std::string> absent;
  std::vector<std::string> problems;
};

// Order-sensitive digest of a tag stream; the counting sink of the stream
// workloads.
struct TagDigest {
  uint64_t count = 0;
  uint64_t hash = 14695981039346656037ull;

  void Add(const cfgtag::tagger::Tag& t) {
    ++count;
    hash = (hash ^ (static_cast<uint64_t>(static_cast<uint32_t>(t.token)) *
                        0x9E3779B97F4A7C15ull +
                    t.end)) *
           0x100000001B3ull;
  }
  friend bool operator==(const TagDigest&, const TagDigest&) = default;
};
cfgtag::tagger::TagSink DigestSink(TagDigest* digest);

// An inclusive range of plausible values; a measured count outside it means
// the benchmark measured something other than the workload.
struct Band {
  double lo = 0;
  double hi = 0;
  bool Contains(double v) const { return v >= lo && v <= hi; }
  std::string ToString() const;
};

// Refuses a throughput above the host's memcpy bandwidth: no tagger reads
// its input faster than memory can be copied.
bool CheckThroughput(Record& r, double mbps, const char* what);

// ---- Seeded inputs (inputs.cc) ----------------------------------------------

// A newline-framed stream of XML-RPC messages from xmlrpc::MessageGenerator.
struct XmlRpcStream {
  std::string text;
  size_t messages = 0;
  size_t live_bytes = 0;  // bytes that are not whitespace
};
// Dense (generator defaults) or indentation-padded (whitespace_prob 0.9,
// runs of 16-64 bytes); at least `min_bytes` long.
XmlRpcStream MakeXmlRpcStream(uint64_t seed, bool padded, size_t min_bytes);
// Tags a `copies`-fold XML-RPC grammar may emit on `s`: at least the seven
// tokens every message carries, per copy, and at most two per live byte
// and copy.
Band XmlRpcTagBand(const XmlRpcStream& s, int copies);

// The REQ/PATH/HDR protocol grammar and its 64 rules: 4 real PATH
// signatures, 59 synthetic PATH signatures and one context-free rule.
const std::string& NidsGrammarText();
std::vector<cfgtag::nids::Rule> NidsRules();

// Independent flows of newline-framed requests with heavy-tailed request
// counts. Benign requests never contain a signature. Planted attacks put
// a PATH signature in the path (or the context-free signature in a header
// value); decoys put a PATH signature in a header value, where the context
// filter must stay silent. `expected` holds each flow's exact alerts.
struct NidsFlows {
  std::vector<std::string> flows;
  std::vector<std::vector<cfgtag::nids::Alert>> expected;
  std::vector<uint64_t> requests;  // per flow
  uint64_t total_requests = 0;
  uint64_t planted = 0;
  uint64_t decoys = 0;
  uint64_t bytes = 0;
};
// Flows are added until they hold at least `min_bytes`, so a batch costs
// about the same whatever the seed.
NidsFlows MakeNidsFlows(const std::vector<cfgtag::nids::Rule>& rules,
                        uint64_t seed, size_t min_bytes);
// Every request of this grammar yields exactly five tags
// (REQ PATH HDR WORD END).
constexpr uint64_t kNidsTagsPerRequest = 5;

// Six services on ports 1..6; everything else goes to port 0.
cfgtag::xmlrpc::RouterConfig RouterServices();
struct RouterMessages {
  std::vector<std::string> messages;
  std::vector<int> expected_port;
  size_t adversarial = 0;
  size_t unknown = 0;
  size_t shortest = 0;  // index of the shortest message
};
// Messages whose method is a service, an unknown name, or a service name
// with a suffix (which must not route as the service); about a third
// carry `adversarial` string values that embed service names.
RouterMessages MakeRouterMessages(const cfgtag::xmlrpc::RouterConfig& config,
                                  uint64_t seed, size_t count);

// ---- Workloads (workloads.cc) -----------------------------------------------

struct Workload {
  const char* name;
  int cpus;  // CPUs its measuring threads keep busy
  void (*run)(Record& r);
};
const std::vector<Workload>& Workloads();

struct MetricSpec {
  const char* name;
  const char* unit;
};
// The metrics every workload reports: untraced, then traced.
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

// Determinism of the generators and the guards on deliberately broken
// inputs. Returns the number of failed checks.
int SelfTest();

}  // namespace perfbench

#endif  // CFGTAG_PERFBENCH_PERFBENCH_H_
