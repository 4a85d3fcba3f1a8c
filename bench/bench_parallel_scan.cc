// Parallel batch-scan engine vs the sequential scan path: the same
// ContextFilter scanning the same traffic, once on one thread and once
// fanned across the ScanEngine's worker pool (independent streams, and one
// large stream sharded at resync delimiter boundaries). Verifies the
// engine is byte-identical to the sequential path before timing it, and
// records the speedups plus the whole metrics registry in
// bench_metrics.json.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <thread>
#include <string>
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

std::vector<nids::Rule> MakeRules() {
  std::vector<nids::Rule> rules = {
      {"TRAVERSAL", "../", "PATH", 3},
      {"PASSWD", "/etc/passwd", "PATH", 3},
      {"DROPPER", "cmd.exe", "PATH", 2},
      {"SHELL", "bin/sh", "PATH", 2},
      {"GLOBAL-TOKEN", "forbidden", "", 1},
  };
  Rng rng(2006);
  while (rules.size() < 16) {
    rules.push_back({"SYN-" + std::to_string(rules.size()),
                     "sig" + rng.NextString(6, "abcdef0123456789"),
                     "PATH", 1});
  }
  return rules;
}

// Mixed traffic: mostly benign requests, some with signature strings in
// the path (true alerts) and some with decoys in the header value.
std::string MakeTraffic(const std::vector<nids::Rule>& rules, int messages,
                        uint64_t seed) {
  Rng rng(seed);
  std::string out;
  for (int i = 0; i < messages; ++i) {
    const size_t roll = rng.NextIndex(10);
    out += "REQ /";
    if (roll == 0) {
      out += "a/" + rules[rng.NextIndex(rules.size())].pattern;
    } else {
      out += "static/" + rng.NextString(10, "abcdefgh") + ".html";
    }
    out += " HDR agent-";
    if (roll == 1) out += rules[rng.NextIndex(rules.size())].pattern + "-";
    out += rng.NextString(6, "xyz0189");
    out += " END\n";
  }
  return out;
}

double Time(const std::function<void()>& fn, int iters) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count() / iters;
}

void Run(bool smoke) {
  auto g = grammar::ParseGrammar(kProtocol);
  CheckOk(g.status(), "protocol grammar");
  hwgen::HwOptions opt;
  opt.tagger.arm_mode = tagger::ArmMode::kResync;
  auto filter = ValueOrDie(
      nids::ContextFilter::Create(std::move(g).value(), MakeRules(), opt),
      "filter");

  // Batch workload: independent streams of a few hundred messages each.
  const int num_streams = smoke ? 8 : 64;
  const int msgs_per_stream = smoke ? 100 : 600;
  std::vector<std::string> stream_storage;
  std::vector<std::string_view> streams;
  size_t batch_bytes = 0;
  for (int i = 0; i < num_streams; ++i) {
    stream_storage.push_back(MakeTraffic(filter.rules(), msgs_per_stream,
                                         1000 + static_cast<uint64_t>(i)));
    batch_bytes += stream_storage.back().size();
  }
  for (const std::string& s : stream_storage) streams.push_back(s);

  // Sequential reference, also the correctness baseline.
  std::vector<std::vector<nids::Alert>> reference(streams.size());
  for (size_t i = 0; i < streams.size(); ++i) {
    reference[i] = filter.Scan(streams[i]);
  }

  const int kIters = smoke ? 1 : 5;
  const double seq_secs = Time(
      [&] {
        for (const std::string_view s : streams) {
          auto alerts = filter.Scan(s);
          if (alerts.empty() && !s.empty()) std::abort();
        }
      },
      kIters);

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  const unsigned cores = std::thread::hardware_concurrency();
  reg.GetGauge("cfgtag_bench_hardware_threads",
               "std::thread::hardware_concurrency() on the bench host")
      ->Set(cores);
  std::printf(
      "Parallel batch scan: %zu streams, %.1f MB total, %u hardware "
      "thread(s)\n"
      "(speedup is bounded by hardware threads; on a 1-core host the\n"
      " expected result is ~1.00x, i.e. no engine overhead)\n\n",
      streams.size(), batch_bytes / 1e6, cores);
  reg.GetGauge("cfgtag_bench_scan_seq_mbps",
               "Sequential batch scan MB/s")
      ->Set(batch_bytes / 1e6 / seq_secs);

  std::printf("%10s | %12s | %10s\n", "threads", "MB/s", "speedup");
  std::printf("%10s | %12.1f | %10s\n", "seq",
              batch_bytes / 1e6 / seq_secs, "1.00x");
  for (int threads : {1, 2, 4, 8}) {
    nids::ScanEngineOptions eopt;
    eopt.num_threads = threads;
    nids::ScanEngine engine(&filter, eopt);
    // Equivalence before timing: the engine must be byte-identical.
    auto results = engine.ScanBatch(streams);
    for (size_t i = 0; i < streams.size(); ++i) {
      if (results[i].alerts != reference[i]) {
        std::fprintf(stderr, "FATAL batch mismatch on stream %zu\n", i);
        std::abort();
      }
    }
    const double secs =
        Time([&] { auto r = engine.ScanBatch(streams); }, kIters);
    const double speedup = seq_secs / secs;
    std::printf("%10d | %12.1f | %9.2fx\n", threads,
                batch_bytes / 1e6 / secs, speedup);
    reg.GetGauge("cfgtag_bench_batch_speedup{threads=\"" +
                     std::to_string(threads) + "\"}",
                 "ScanBatch speedup over the sequential loop")
        ->Set(speedup);
  }

  // Sharded single-stream workload: one ~4 MB stream (smoke: ~200 KB).
  const std::string big = MakeTraffic(filter.rules(), smoke ? 5000 : 100000, 9);
  const auto big_reference = filter.Scan(big);
  const double big_seq_secs =
      Time([&] { auto r = filter.Scan(big); }, kIters);
  std::printf(
      "\nSharded single stream: %.1f MB, resync delimiter boundaries\n\n",
      big.size() / 1e6);
  std::printf("%10s | %12s | %10s\n", "threads", "MB/s", "speedup");
  std::printf("%10s | %12.1f | %10s\n", "seq",
              big.size() / 1e6 / big_seq_secs, "1.00x");
  for (int threads : {1, 2, 4, 8}) {
    nids::ScanEngineOptions eopt;
    eopt.num_threads = threads;
    eopt.min_shard_bytes = 1 << 16;
    nids::ScanEngine engine(&filter, eopt);
    const auto sharded = engine.ScanStream(big);
    if (sharded.alerts != big_reference) {
      std::fprintf(stderr, "FATAL sharded mismatch at %d threads\n",
                   threads);
      std::abort();
    }
    const double secs =
        Time([&] { auto r = engine.ScanStream(big); }, kIters);
    const double speedup = big_seq_secs / secs;
    std::printf("%10d | %12.1f | %9.2fx\n", threads,
                big.size() / 1e6 / secs, speedup);
    reg.GetGauge("cfgtag_bench_sharded_speedup{threads=\"" +
                     std::to_string(threads) + "\"}",
                 "ScanStream speedup over one sequential Scan")
        ->Set(speedup);
  }

  WriteMetricsJson("bench_metrics.json");
}

}  // namespace
}  // namespace cfgtag::bench

int main(int argc, char** argv) {
  const bool smoke = cfgtag::bench::StripSmokeFlag(&argc, argv);
  // --stats-port serves the observability endpoints over loopback for the
  // life of the run (and switches attribution on); --stats-hold-seconds
  // leaves a scrape window after the bench body.
  const int stats_port =
      cfgtag::bench::StripIntFlag(&argc, argv, "--stats-port", -1);
  const int stats_hold =
      cfgtag::bench::StripIntFlag(&argc, argv, "--stats-hold-seconds", 0);
  cfgtag::bench::MaybeServeStats(stats_port);
  cfgtag::bench::Run(smoke);
  cfgtag::bench::HoldStats(stats_hold);
  return 0;
}
