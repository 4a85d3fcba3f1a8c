// Context-gated intrusion detection (the paper's §1 motivation as a
// subsystem): signature matching restricted to grammatical context vs the
// same signatures applied context-free. Reports per-rule-count false
// positives on decoy-laden traffic, and scan throughput.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "grammar/grammar_parser.h"
#include "nids/context_filter.h"
#include "nids/scan_engine.h"
#include "obs/metrics.h"

namespace cfgtag::bench {
namespace {

constexpr char kProtocol[] = R"grm(
PATH [a-zA-Z0-9/._-]+
WORD [a-zA-Z0-9/._-]+
%%
msg:  "REQ" path "HDR" hval "END";
path: PATH;
hval: WORD;
%%
)grm";

std::vector<nids::Rule> MakeRules(int n) {
  std::vector<nids::Rule> rules = {
      {"TRAVERSAL", "../", "PATH", 3},
      {"PASSWD", "/etc/passwd", "PATH", 3},
      {"DROPPER", "cmd.exe", "PATH", 2},
      {"SHELL", "bin/sh", "PATH", 2},
  };
  // Synthetic additional signatures.
  Rng rng(2006);
  while (static_cast<int>(rules.size()) < n) {
    rules.push_back({"SYN-" + std::to_string(rules.size()),
                     "sig" + rng.NextString(6, "abcdef0123456789"),
                     "PATH", 1});
  }
  rules.resize(n);
  return rules;
}

// Traffic: benign requests whose *header values* embed signature strings
// (decoys). Every alert is a false positive by construction.
std::string MakeDecoyTraffic(const std::vector<nids::Rule>& rules,
                             int messages, uint64_t seed) {
  Rng rng(seed);
  std::string out;
  for (int i = 0; i < messages; ++i) {
    out += "REQ /static/" + rng.NextString(8, "abcdefgh") + ".html HDR ";
    out += "agent-";
    // Embed a random rule's pattern in the header value (escaping '/'
    // which WORD also accepts, so the decoy stays in-token).
    out += rules[rng.NextIndex(rules.size())].pattern;
    out += "-v" + std::to_string(rng.NextIndex(10));
    out += " END\n";
  }
  return out;
}

// Median wall seconds of `reps` calls of `fn` after one untimed warm-up
// call, so a column reads the warm steady state rather than one cold call
// (first session checkout, transition-cache fill, worker wake-up).
template <typename Fn>
double MedianWarmSeconds(int reps, Fn&& fn) {
  fn();
  std::vector<double> secs;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    secs.push_back(std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count());
  }
  std::sort(secs.begin(), secs.end());
  return secs[secs.size() / 2];
}

void Run(bool smoke) {
  auto g = grammar::ParseGrammar(kProtocol);
  CheckOk(g.status(), "protocol grammar");
  const int messages = smoke ? 60 : 400;
  const int reps = smoke ? 3 : 15;

  std::printf(
      "Context-gated NIDS vs context-free signatures\n"
      "(decoy traffic: every signature hit is a false positive)\n\n");
  std::printf("%8s | %12s %12s | %14s %14s\n", "rules", "naive FPs",
              "context FPs", "scan MB/s", "engine4 MB/s");

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  for (int nrules : {4, 16, 64}) {
    auto rules = MakeRules(nrules);
    hwgen::HwOptions opt;
    opt.tagger.arm_mode = tagger::ArmMode::kResync;
    auto filter = ValueOrDie(
        nids::ContextFilter::Create(g->Clone(), rules, opt), "filter");
    const std::string traffic = MakeDecoyTraffic(rules, messages, 7);

    const auto naive = filter.ScanUngated(traffic);
    std::vector<nids::Alert> context;
    const double secs =
        MedianWarmSeconds(reps, [&] { context = filter.Scan(traffic); });

    // The same scan through the parallel engine, sharded across 4
    // workers — the before/after of the batch-scan change.
    nids::ScanEngineOptions eopt;
    eopt.num_threads = 4;
    eopt.min_shard_bytes = 1 << 10;
    nids::ScanEngine engine(&filter, eopt);
    std::vector<nids::Alert> parallel;
    const double esecs = MedianWarmSeconds(
        reps, [&] { parallel = engine.ScanStream(traffic).alerts; });
    if (parallel != context) {
      std::fprintf(stderr, "FATAL engine/sequential alert mismatch\n");
      std::abort();
    }
    const double scan_mbps = traffic.size() / 1e6 / (secs > 0 ? secs : 1e-9);
    std::printf("%8d | %12zu %12zu | %14.1f %14.1f\n", nrules, naive.size(),
                context.size(), scan_mbps,
                traffic.size() / 1e6 / (esecs > 0 ? esecs : 1e-9));
    reg.GetGauge("cfgtag_bench_nids_mbps{rules=\"" + std::to_string(nrules) +
                     "\"}",
                 "ContextFilter::Scan MB/s")
        ->Set(scan_mbps);
  }

  std::printf(
      "\nExpected shape: the context-free scanner alerts on every decoy;\n"
      "the context filter scans only PATH spans and stays silent. Attack\n"
      "traffic (signatures in the path) alerts in both (see nids_test).\n");

  WriteMetricsJson("bench_metrics.json");
}

}  // namespace
}  // namespace cfgtag::bench

int main(int argc, char** argv) {
  const bool smoke = cfgtag::bench::StripSmokeFlag(&argc, argv);
  // --stats-port serves the observability endpoints over loopback for the
  // life of the run (and switches attribution on, so /rules ranks the NIDS
  // rules this bench fires); --stats-hold-seconds leaves a scrape window.
  const int stats_port =
      cfgtag::bench::StripIntFlag(&argc, argv, "--stats-port", -1);
  const int stats_hold =
      cfgtag::bench::StripIntFlag(&argc, argv, "--stats-hold-seconds", 0);
  cfgtag::bench::MaybeServeStats(stats_port);
  cfgtag::bench::Run(smoke);
  cfgtag::bench::HoldStats(stats_hold);
  return 0;
}
