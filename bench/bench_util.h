#ifndef CFGTAG_BENCH_BENCH_UTIL_H_
#define CFGTAG_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "common/status.h"
#include "core/hardware_design.h"
#include "core/token_tagger.h"
#include "grammar/transforms.h"
#include "obs/attribution.h"
#include "obs/metrics.h"
#include "obs/stats_server.h"
#include "obs/trace.h"
#include "xmlrpc/xmlrpc_grammar.h"

namespace cfgtag::bench {

// Dies loudly: benches regenerate paper tables, a failure means the build
// is broken and the numbers would be meaningless. The abort message names
// the pipeline stage that was running (the tracer's last span path), so a
// techmap failure inside Compile is attributable without a debugger.
inline void CheckOk(const Status& status, const char* what) {
  if (!status.ok()) {
    const std::string span = obs::Tracer::Default().LastSpanPath();
    std::fprintf(stderr, "FATAL %s (last stage: %s): %s\n", what,
                 span.empty() ? "<none>" : span.c_str(),
                 status.ToString().c_str());
    std::abort();
  }
}

// Takes the StatusOr by value (never by reference): callers hand over
// ownership, and the value is moved out — uniform across lvalue/rvalue
// call sites.
template <typename T>
T ValueOrDie(StatusOr<T> v, const char* what) {
  CheckOk(v.status(), what);
  return std::move(v).value();
}

// XML-RPC grammar duplicated `copies` times — the paper's §4.3 scaling
// methodology.
inline grammar::Grammar DuplicatedXmlRpc(int copies) {
  auto base = xmlrpc::XmlRpcGrammar();
  CheckOk(base.status(), "XmlRpcGrammar");
  if (copies == 1) return std::move(base).value();
  auto dup = grammar::DuplicateGrammar(*base, copies);
  CheckOk(dup.status(), "DuplicateGrammar");
  return std::move(dup).value();
}

inline core::CompiledTagger CompileXmlRpc(int copies,
                                          const hwgen::HwOptions& opt = {}) {
  auto compiled = core::CompiledTagger::Compile(DuplicatedXmlRpc(copies), opt);
  CheckOk(compiled.status(), "Compile");
  return std::move(compiled).value();
}

inline core::HardwareDesign DesignXmlRpc(int copies,
                                         const hwgen::HwOptions& opt = {}) {
  auto design = core::HardwareDesign::Create(DuplicatedXmlRpc(copies), opt);
  CheckOk(design.status(), "HardwareDesign");
  return std::move(design).value();
}

// Strips the suite-wide --smoke flag out of argv (so downstream parsers —
// google-benchmark included — never see it) and reports whether it was
// present. Every bench main() calls this instead of hand-rolling the loop.
inline bool StripSmokeFlag(int* argc, char** argv) {
  bool smoke = false;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  return smoke;
}

// Parses and strips `--name=N` / `--name N` out of argv (the bench suite's
// own integer flags must never reach google-benchmark's parser). Returns
// `missing` when the flag is absent; dies on a malformed value, matching
// the suite's fail-loudly convention.
inline int StripIntFlag(int* argc, char** argv, const char* name,
                        int missing) {
  int value = missing;
  int out = 1;
  const size_t name_len = std::strlen(name);
  for (int i = 1; i < *argc; ++i) {
    const char* arg = argv[i];
    const char* text = nullptr;
    if (std::strncmp(arg, name, name_len) == 0 && arg[name_len] == '=') {
      text = arg + name_len + 1;
    } else if (std::strcmp(arg, name) == 0) {
      if (i + 1 >= *argc) {
        std::fprintf(stderr, "FATAL %s needs a value\n", name);
        std::abort();
      }
      text = argv[++i];
    } else {
      argv[out++] = argv[i];
      continue;
    }
    char* end = nullptr;
    const long parsed = std::strtol(text, &end, 10);
    if (end == text || *end != '\0') {
      std::fprintf(stderr, "FATAL %s: not an integer: %s\n", name, text);
      std::abort();
    }
    value = static_cast<int>(parsed);
  }
  *argc = out;
  return value;
}

// Starts the loopback stats server when `port` >= 0 (0 picks an ephemeral
// port) and switches hot-path attribution on so /rules has content to
// serve. The server lives for the rest of the process — bench binaries
// exit via return from main, which is fine: the leaked server's socket
// closes with the process. Returns the bound port, or -1 when no server
// was requested.
inline int MaybeServeStats(int port) {
  if (port < 0) return -1;
  obs::AttributionTable::set_enabled(true);
  static obs::StatsServer* const kServer = new obs::StatsServer;
  CheckOk(kServer->Start(port), "stats server");
  std::fprintf(stderr,
               "stats server on http://127.0.0.1:%d/ (/metrics /metrics.json "
               "/trace.json /events /rules /healthz)\n",
               kServer->port());
  return kServer->port();
}

// Keeps the process alive for `seconds` after the bench body finishes, so
// an external scraper (the CI smoke job) has a window to curl the stats
// endpoints before the process exits.
inline void HoldStats(int seconds) {
  if (seconds <= 0) return;
  std::fprintf(stderr, "holding %d s for stats scrapes\n", seconds);
  std::this_thread::sleep_for(std::chrono::seconds(seconds));
}

// Dumps the default metrics registry — populated by the instrumented paths
// the bench exercised plus the bench's own gauges — as JSON to `path`, the
// machine-readable trail BENCH_*.json trajectories and the CI perf gate
// consume.
inline void WriteMetricsJson(const char* path) {
  std::ofstream out(path, std::ios::binary);
  out << obs::MetricsRegistry::Default().ToJson();
  if (out) {
    std::fprintf(stderr, "wrote %s\n", path);
  } else {
    std::fprintf(stderr, "cannot write %s\n", path);
  }
}

}  // namespace cfgtag::bench

#endif  // CFGTAG_BENCH_BENCH_UTIL_H_
