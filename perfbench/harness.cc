#include <dirent.h>
#include <sched.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "perfbench.h"
#include "tagger/simd/dispatch.h"

namespace perfbench {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double at = std::clamp(p / 100.0, 0.0, 1.0) * (v.size() - 1);
  const size_t lo = static_cast<size_t>(at);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (at - lo) * (v[hi] - v[lo]);
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

namespace {

double StatusFieldMb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0) {
      return std::strtod(line.c_str() + len, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

double MeasureMemcpy() {
  constexpr size_t kBytes = 32u << 20;
  void* src = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  void* dst = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (src == MAP_FAILED || dst == MAP_FAILED) return 0;
  std::memset(src, 0x5a, kBytes);
  std::memset(dst, 0, kBytes);
  double best = 0;
  for (int i = 0; i < 6; ++i) {
    const double t0 = Now();
    std::memcpy(dst, src, kBytes);
    const double dt = Now() - t0;
    if (dt > 0) best = std::max(best, kBytes / 1e6 / dt);
    static_cast<volatile char*>(dst)[i] = 0;
  }
  munmap(src, kBytes);
  munmap(dst, kBytes);
  return best;
}

}  // namespace

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

double PeakRssMb() { return StatusFieldMb("VmHWM:"); }
double CurrentRssMb() { return StatusFieldMb("VmRSS:"); }

double MemcpyMbps() {
  int fds[2];
  if (pipe(fds) != 0) return 0;
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return 0;
  }
  if (pid == 0) {
    close(fds[0]);
    const double mbps = MeasureMemcpy();
    const ssize_t n = write(fds[1], &mbps, sizeof(mbps));
    _exit(n == static_cast<ssize_t>(sizeof(mbps)) ? 0 : 1);
  }
  close(fds[1]);
  double mbps = 0;
  const ssize_t n = read(fds[0], &mbps, sizeof(mbps));
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (n != static_cast<ssize_t>(sizeof(mbps)) || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return 0;
  }
  return mbps;
}

namespace {
constexpr double kHistogramMin = 1e-8;  // seconds
constexpr double kHistogramMax = 1e2;
const double kBucketLog = std::log(1.001);
}  // namespace

LatencyHistogram::LatencyHistogram()
    : buckets_(static_cast<size_t>(
                   std::ceil(std::log(kHistogramMax / kHistogramMin) /
                             kBucketLog)),
               0) {}

void LatencyHistogram::Add(double seconds) {
  const double at =
      std::log(std::max(seconds, kHistogramMin) / kHistogramMin) / kBucketLog;
  ++buckets_[std::min(static_cast<size_t>(at), buckets_.size() - 1)];
  ++count_;
}

double LatencyHistogram::Percentile(double p) const {
  if (count_ == 0) return 0;
  const double rank = std::clamp(p / 100.0, 0.0, 1.0) * (count_ - 1);
  uint64_t below = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    if (below + buckets_[i] > rank) {
      const double within = (rank - below + 1) / (buckets_[i] + 1);
      return kHistogramMin * std::exp((i + within) * kBucketLog);
    }
    below += buckets_[i];
  }
  return kHistogramMax;
}

CpuRotation::CpuRotation(int width) : width_(width) {
  CPU_ZERO(&start_);
  if (sched_getaffinity(0, sizeof(start_), &start_) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &start_)) cpus_.push_back(c);
  }
}

CpuRotation::~CpuRotation() {
  if (moved_) PinAllThreads(start_);
}

void CpuRotation::Next() {
  if (static_cast<int>(cpus_.size()) <= width_) return;
  cpu_set_t window;
  CPU_ZERO(&window);
  for (int k = 0; k < width_; ++k) {
    CPU_SET(cpus_[(next_ + k) % cpus_.size()], &window);
  }
  next_ = (next_ + 1) % cpus_.size();
  PinAllThreads(window);
  moved_ = true;
}

void CpuRotation::PinAllThreads(const cpu_set_t& set) {
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return;
  while (const dirent* entry = readdir(dir)) {
    const pid_t tid = static_cast<pid_t>(std::atoi(entry->d_name));
    if (tid > 0) sched_setaffinity(tid, sizeof(set), &set);
  }
  closedir(dir);
}

std::string HostFingerprintJson(const std::string& commit) {
  std::ifstream in("/proc/cpuinfo");
  std::string line, model = "unknown";
  std::set<std::string> simd;
  static const char* const kSimdFlags[] = {"sse2",    "ssse3",   "sse4_1",
                                           "sse4_2",  "avx",     "avx2",
                                           "avx512f", "avx512bw", "neon",
                                           "asimd"};
  while (std::getline(in, line)) {
    const size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string key =
        line.substr(0, line.find_last_not_of(" \t", colon - 1) + 1);
    const std::string value =
        colon + 2 <= line.size() ? line.substr(colon + 2) : "";
    if (key == "model name" && model == "unknown") model = value;
    if (key == "flags" || key == "Features") {
      std::istringstream words(value);
      std::string w;
      while (words >> w) {
        for (const char* f : kSimdFlags) {
          if (w == f) simd.insert(w);
        }
      }
    }
  }
  std::string flags;
  for (const std::string& f : simd) flags += (flags.empty() ? "" : " ") + f;
  std::ostringstream os;
  os << "{\"cpu\": \"" << JsonEscape(model) << "\", \"nproc\": "
     << std::thread::hardware_concurrency() << ", \"simd_flags\": \""
     << flags << "\", \"simd_dispatch\": \""
     << cfgtag::tagger::simd::IsaName(cfgtag::tagger::simd::Active().isa)
     << "\", \"compiler\": \"" << JsonEscape(__VERSION__)
     << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
     << "\", \"commit\": \"" << JsonEscape(commit) << "\"}";
  return os.str();
}

Tracer::Scope::Scope(Tracer* tracer, const char* name, uint64_t run_id)
    : tracer_(tracer) {
  if (!tracer_->enabled_) return;
  const double start = Now();
  if (tracer_->spans_.size() >= kMaxSpans) {
    ++tracer_->dropped_;
    return;
  }
  index_ = static_cast<int>(tracer_->spans_.size());
  saved_parent_ = tracer_->current_;
  tracer_->spans_.push_back({name, start, 0, tracer_->current_, run_id});
  tracer_->current_ = index_;
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  tracer_->spans_[index_].end = Now();
  tracer_->current_ = saved_parent_;
}

std::string Tracer::ToJson() const {
  std::ostringstream os;
  os.precision(17);
  os << "[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n " : "\n ") << "{\"id\": " << i << ", \"name\": \""
       << JsonEscape(s.name) << "\", \"start\": " << s.start
       << ", \"end\": " << s.end << ", \"parent\": " << s.parent
       << ", \"run_id\": " << s.run_id << "}";
  }
  os << "\n]";
  return os.str();
}

bool Record::Check(bool ok, const std::string& what) {
  if (!ok) {
    problems.push_back(what);
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
  return ok;
}

cfgtag::tagger::TagSink DigestSink(TagDigest* digest) {
  return [digest](const cfgtag::tagger::Tag& t) {
    digest->Add(t);
    return true;
  };
}

std::string Band::ToString() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "[%.0f, %.0f]", lo, hi);
  return buf;
}

bool CheckThroughput(Record& r, double mbps, const char* what) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%s: %.1f MB/s exceeds the host memcpy bandwidth %.1f MB/s",
                what, mbps, r.memcpy_mbps);
  return r.Check(r.memcpy_mbps > 0 && mbps > 0 && mbps <= r.memcpy_mbps, buf);
}

}  // namespace perfbench
