// perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--commit <id>] [--out-dir <dir>]
// perfbench --list        workload and metric names, as JSON
// perfbench --self-test   generator determinism and guard checks
//
// Human-readable lines start with '#'; the last line of standard output
// is the JSON result.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "perfbench.h"

namespace perfbench {
namespace {

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
           Number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  return out + "}";
}

std::string ListJson() {
  auto names = [](const std::vector<MetricSpec>& specs) {
    std::string out = "[";
    for (size_t i = 0; i < specs.size(); ++i) {
      out += std::string(i ? ", " : "") + "{\"name\": \"" + specs[i].name +
             "\", \"unit\": \"" + specs[i].unit + "\"}";
    }
    return out + "]";
  };
  std::string workloads = "[";
  for (size_t i = 0; i < Workloads().size(); ++i) {
    workloads += std::string(i ? ", " : "") + "\"" + Workloads()[i].name + "\"";
  }
  return "{\"workloads\": " + workloads + "], \"end_to_end\": " +
         names(EndToEndMetrics()) + ", \"per_layer\": " +
         names(PerLayerMetrics()) + "}";
}

// The metrics of this mode, in the declared order, each exactly once and
// finite; anything else is a benchmark bug and fails the run.
std::vector<Metric> Declared(Record& r) {
  const auto& specs = r.trace ? PerLayerMetrics() : EndToEndMetrics();
  std::vector<Metric> out;
  for (const MetricSpec& spec : specs) {
    int found = 0;
    for (const Metric& m : r.metrics) {
      if (m.name != spec.name) continue;
      ++found;
      r.Check(m.unit == spec.unit && std::isfinite(m.value),
              "metric " + m.name + " has a bad unit or value");
      out.push_back(m);
    }
    r.Check(found == 1, std::string("metric ") + spec.name + " reported " +
                            std::to_string(found) + " times");
  }
  r.Check(out.size() == r.metrics.size(), "undeclared metrics reported");
  return out;
}

void WriteTrace(const Record& r, const std::string& path,
                const std::string& workload, const std::string& host,
                const std::vector<Metric>& metrics) {
  std::ofstream out(path);
  out << "{\"workload\": \"" << workload << "\", \"seed\": " << r.seed
      << ", \"host\": " << host << ",\n\"metrics\": " << MetricsJson(metrics)
      << ",\n\"facts\": " << MetricsJson(r.facts) << ",\n\"absent\": [";
  for (size_t i = 0; i < r.absent.size(); ++i) {
    out << (i ? ", \"" : "\"") << JsonEscape(r.absent[i]) << "\"";
  }
  out << "],\n\"spans_dropped\": " << r.tracer.dropped()
      << ",\n\"spans\": " << r.tracer.ToJson() << "}\n";
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--commit <id>] [--out-dir <dir>]\n"
               "       perfbench --list | --self-test\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload, commit = "unknown", out_dir;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      std::printf("%s\n", ListJson().c_str());
      return 0;
    }
    if (arg == "--self-test") return SelfTest() == 0 ? 0 : 1;
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--commit") {
      commit = value;
    } else if (arg == "--out-dir") {
      out_dir = value;
    } else {
      return Usage();
    }
  }
  const Workload* chosen = nullptr;
  for (const Workload& w : Workloads()) {
    if (workload == w.name) chosen = &w;
  }
  if (chosen == nullptr || !(seconds > 0)) return Usage();

  Record r(seed, seconds, trace, chosen->cpus);
  r.memcpy_mbps = MemcpyMbps();
  const std::string host = HostFingerprintJson(commit);
  std::printf("# host: %s\n# memcpy: %.1f MB/s\n", host.c_str(),
              r.memcpy_mbps);
  std::printf("# workload %s, seed %llu, %.1f s, %s\n", chosen->name,
              static_cast<unsigned long long>(seed), seconds,
              trace ? "traced" : "untraced");
  chosen->run(r);
  r.Check(r.attempted > 0, "no operation ran");
  const std::vector<Metric> metrics = Declared(r);

  for (const Metric& m : r.facts) {
    std::printf("# %s = %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& a : r.absent) std::printf("# absent %s\n", a.c_str());
  if (trace && !out_dir.empty()) {
    const std::string path = out_dir + "/trace-" + chosen->name + "-" +
                             std::to_string(seed) + ".json";
    WriteTrace(r, path, chosen->name, host, metrics);
    std::printf("# %zu spans written to %s (%llu more dropped)\n",
                r.tracer.spans().size(), path.c_str(),
                static_cast<unsigned long long>(r.tracer.dropped()));
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              r.correct() ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return r.correct() ? 0 : 1;
}
