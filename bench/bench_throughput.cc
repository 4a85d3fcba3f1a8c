// Software throughput of every engine in the repository (google-benchmark).
// The paper's hardware throughput is Fmax x 1 byte/cycle (reported by
// bench_table1); these benches measure what the *software* components
// deliver on the host: the compiled tagger (the lazy DFA), the reference LL
// parser, the Aho-Corasick naive matcher, and the cycle-accurate gate-level
// simulation (orders of magnitude slower, by design).

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <ctime>
#include <cstring>
#include <fstream>
#include <vector>

#include "bench/bench_util.h"
#include "tagger/artifact/cache.h"
#include "obs/metrics.h"
#include "reference/functional_model.h"
#include "reference/lexer.h"
#include "reference/ll_parser.h"
#include "tagger/lazy_dfa.h"
#include "tagger/naive_matcher.h"
#include "tagger/simd/dispatch.h"
#include "xmlrpc/message_gen.h"

namespace cfgtag::bench {
namespace {

const std::string& Workload() {
  static const std::string* const kStream = [] {
    xmlrpc::MessageGenerator gen({}, /*seed=*/42);
    return new std::string(gen.GenerateStream(/*count=*/0, /*min_bytes=*/1 << 20));
  }();
  return *kStream;
}

// One XML-RPC message (streams of messages are not a sentence of the
// Fig. 14 grammar, so the LL benchmark parses per message).
const std::vector<std::string>& Messages() {
  static const std::vector<std::string>* const kMessages = [] {
    xmlrpc::MessageGenerator gen({}, /*seed=*/43);
    auto* v = new std::vector<std::string>;
    for (int i = 0; i < 64; ++i) v->push_back(gen.Generate());
    return v;
  }();
  return *kMessages;
}

void BM_CompiledTagger(benchmark::State& state) {
  // Resync mode keeps every message of the stream live: anchored mode goes
  // dead after the first message, and the dead-tail skip would leave
  // nothing to time.
  const int copies = static_cast<int>(state.range(0));
  hwgen::HwOptions opt;
  opt.tagger.arm_mode = tagger::ArmMode::kResync;
  core::CompiledTagger tagger = CompileXmlRpc(copies, opt);
  const std::string& input = Workload();
  size_t tags = 0;
  for (auto _ : state) {
    tagger.Tag(input, [&tags](const tagger::Tag&) {
      ++tags;
      return true;
    });
  }
  benchmark::DoNotOptimize(tags);
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(input.size()));
  state.counters["grammar_bytes"] =
      static_cast<double>(tagger.grammar().PatternBytes());
}
BENCHMARK(BM_CompiledTagger)->Arg(1)->Arg(4)->Arg(10)->Unit(benchmark::kMillisecond);

void BM_LlParser(benchmark::State& state) {
  auto g = xmlrpc::XmlRpcGrammar();
  CheckOk(g.status(), "grammar");
  auto parser =
      ValueOrDie(tagger::PredictiveParser::Create(&g.value(), {}), "parser");
  size_t bytes = 0;
  for (auto _ : state) {
    for (const std::string& msg : Messages()) {
      auto tags = parser.Parse(msg);
      benchmark::DoNotOptimize(tags);
      bytes += msg.size();
    }
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
}
BENCHMARK(BM_LlParser)->Unit(benchmark::kMillisecond);

void BM_FlexStyleLexer(benchmark::State& state) {
  // Context-free combined-DFA lexing — fast, but blind to grammar context.
  auto g = xmlrpc::XmlRpcGrammar();
  CheckOk(g.status(), "grammar");
  auto lexer = ValueOrDie(tagger::Lexer::Create(&g.value()), "lexer");
  const std::string& input = Workload();
  for (auto _ : state) {
    auto tags = lexer.Lex(input);
    benchmark::DoNotOptimize(tags);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(input.size()));
}
BENCHMARK(BM_FlexStyleLexer)->Unit(benchmark::kMillisecond);

void BM_NaiveMatcher(benchmark::State& state) {
  tagger::NaiveMatcher naive(
      {"deposit", "withdraw", "acctinfo", "buy", "sell", "price"});
  const std::string& input = Workload();
  for (auto _ : state) {
    size_t hits = 0;
    naive.Scan(input, [&hits](int32_t, uint64_t) {
      ++hits;
      return true;
    });
    benchmark::DoNotOptimize(hits);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(input.size()));
}
BENCHMARK(BM_NaiveMatcher)->Unit(benchmark::kMillisecond);

void BM_CycleAccurateSim(benchmark::State& state) {
  core::HardwareDesign design = DesignXmlRpc(1);
  xmlrpc::MessageGenerator gen({}, 7);
  const std::string msg = gen.Generate();
  for (auto _ : state) {
    auto tags = design.TagCycleAccurate(msg);
    CheckOk(tags.status(), "sim");
    benchmark::DoNotOptimize(tags);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(msg.size()));
}
BENCHMARK(BM_CycleAccurateSim)->Unit(benchmark::kMillisecond);

void BM_CompileTagger(benchmark::State& state) {
  const int copies = static_cast<int>(state.range(0));
  for (auto _ : state) {
    core::CompiledTagger tagger = CompileXmlRpc(copies);
    benchmark::DoNotOptimize(tagger.lazy_model());
  }
}
BENCHMARK(BM_CompileTagger)->Arg(1)->Arg(10)->Unit(benchmark::kMillisecond);

void BM_ImplementFlow(benchmark::State& state) {
  // Tech map + timing analysis (the "vendor flow" substitute).
  const int copies = static_cast<int>(state.range(0));
  core::HardwareDesign design = DesignXmlRpc(copies);
  for (auto _ : state) {
    auto report = design.Implement(rtl::Virtex4LX200());
    CheckOk(report.status(), "implement");
    benchmark::DoNotOptimize(report->area.luts);
  }
}
BENCHMARK(BM_ImplementFlow)->Arg(1)->Arg(10)->Unit(benchmark::kMillisecond);

// The lazy DFA with no transition cache: its sessions fall back at their
// first miss and step the fused tables uncached for every byte after.
tagger::LazyDfaTagger FallbackTagger(const grammar::Grammar& g,
                                     tagger::TaggerOptions topt) {
  topt.dfa_cache_bytes = 0;
  topt.dfa_flush_fallback = 1;
  return ValueOrDie(tagger::LazyDfaTagger::Create(&g, topt), "fallback");
}

// Head-to-head engine comparison on the sustained (resync) workload — the
// functional reference, the lazy DFA in fallback (configured with no
// cache, so it steps the fused tables uncached from its first miss) and
// the lazy DFA proper, each constructed directly, tag the same byte stream
// end to end, equivalence-checked first, and the resulting MB/s land in
// bench_metrics.json as cfgtag_bench_backend_mbps{backend=...,copies=...}
// gauges plus the cfgtag_bench_backend_speedup{copies=...} (fallback over
// functional) and cfgtag_bench_lazy_over_fallback_speedup{copies=...}
// ratios. Resync mode keeps every message live (anchored mode goes dead
// after the first message, which the idle fast paths would skip outright
// and the comparison would measure nothing).
void RecordBackendComparison(bool smoke) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  const std::string& full = Workload();
  const std::string_view input =
      smoke ? std::string_view(full).substr(0, 128 << 10)
            : std::string_view(full);
  const int iters = smoke ? 1 : 3;

  std::printf("\nBackend comparison (%zu KB, resync mode, %d iteration%s)\n",
              input.size() >> 10, iters, iters == 1 ? "" : "s");
  std::printf("%8s | %14s %14s %14s | %8s %10s\n", "copies",
              "functional MB/s", "fallback MB/s", "lazy-dfa MB/s", "speedup",
              "lazy/fallback");

  auto time_engine = [&](const auto& engine) {
    size_t tags = 0;
    const tagger::TagSink sink = [&tags](const tagger::Tag&) {
      ++tags;
      return true;
    };
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) engine.Run(input, sink);
    const auto t1 = std::chrono::steady_clock::now();
    const double secs =
        std::chrono::duration<double>(t1 - t0).count() / iters;
    return input.size() / 1e6 / (secs > 0 ? secs : 1e-9);
  };

  for (int copies : {1, 4, 10}) {
    const grammar::Grammar g = DuplicatedXmlRpc(copies);
    tagger::TaggerOptions topt;
    topt.arm_mode = tagger::ArmMode::kResync;
    auto functional =
        ValueOrDie(tagger::FunctionalTagger::Create(&g, topt), "functional");
    auto fallback = FallbackTagger(g, topt);
    auto lazy = ValueOrDie(tagger::LazyDfaTagger::Create(&g, topt), "lazy");
    // Tag-for-tag equivalence before timing anything.
    const auto want = functional.TagAll(input);
    if (fallback.TagAll(input) != want) {
      std::fprintf(stderr, "FATAL fallback/functional tag mismatch (x%d)\n",
                   copies);
      std::abort();
    }
    if (lazy.TagAll(input) != want) {
      std::fprintf(stderr, "FATAL lazy/functional tag mismatch (x%d)\n",
                   copies);
      std::abort();
    }
    const double functional_mbps = time_engine(functional);
    const double fallback_mbps = time_engine(fallback);
    const double lazy_mbps = time_engine(lazy);
    const double speedup = fallback_mbps / functional_mbps;
    const double lazy_over_fallback = lazy_mbps / fallback_mbps;
    std::printf("%8d | %14.1f %14.1f %14.1f | %7.2fx %9.2fx\n", copies,
                functional_mbps, fallback_mbps, lazy_mbps, speedup,
                lazy_over_fallback);
    const std::string copies_label = "copies=\"" + std::to_string(copies) +
                                     "\"";
    reg.GetGauge("cfgtag_bench_backend_mbps{backend=\"functional\"," +
                     copies_label + "}",
                 "Sustained tagging MB/s of the software backend")
        ->Set(functional_mbps);
    reg.GetGauge(
           "cfgtag_bench_backend_mbps{backend=\"fallback\"," + copies_label +
               "}",
           "Sustained tagging MB/s of the software backend")
        ->Set(fallback_mbps);
    reg.GetGauge("cfgtag_bench_backend_mbps{backend=\"lazy_dfa\"," +
                     copies_label + "}",
                 "Sustained tagging MB/s of the software backend")
        ->Set(lazy_mbps);
    reg.GetGauge("cfgtag_bench_backend_speedup{" + copies_label + "}",
                 "Lazy-DFA fallback over functional throughput ratio")
        ->Set(speedup);
    reg.GetGauge(
           "cfgtag_bench_lazy_over_fallback_speedup{" + copies_label + "}",
           "Cached lazy-DFA over fallback throughput ratio")
        ->Set(lazy_over_fallback);
  }

  // Context-free lexer baseline on the same bytes (copies don't apply: the
  // combined DFA is one machine either way).
  auto g = xmlrpc::XmlRpcGrammar();
  CheckOk(g.status(), "grammar");
  auto lexer = ValueOrDie(tagger::Lexer::Create(&g.value()), "lexer");
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    auto tags = lexer.Lex(input);
    benchmark::DoNotOptimize(tags);
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count() / iters;
  const double lexer_mbps = input.size() / 1e6 / (secs > 0 ? secs : 1e-9);
  std::printf("%8s | %14.1f (context-free DFA baseline)\n", "lexer",
              lexer_mbps);
  reg.GetGauge("cfgtag_bench_backend_mbps{backend=\"lexer\"}",
               "Context-free combined-DFA lexer MB/s baseline")
      ->Set(lexer_mbps);
}

// Scalar-vs-SIMD dispatch comparison on a delimiter-heavy stream — the
// workload the vector kernels exist for. The generator emulates
// heavily padded XML-RPC (whitespace between almost every token pair,
// in runs of 256-1024 bytes — the shape of indentation-padded or
// keepalive-padded feeds), so idle delimiter skipping and chunked
// classification dominate the byte count. The lazy DFA, in fallback and
// cached, tags the stream under forced-scalar and under the best vector
// tier the host offers, equivalence-checked first; MB/s land in
// bench_metrics.json as cfgtag_bench_simd_mbps{backend=...,dispatch=...}
// and the ratio as cfgtag_bench_simd_speedup{backend=...}.
void RecordSimdComparison(bool smoke) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  static const std::string* const kWsHeavy = [] {
    xmlrpc::MessageGenOptions opt;
    opt.whitespace_prob = 0.97;
    opt.ws_run_min = 256;
    opt.ws_run_max = 1024;
    xmlrpc::MessageGenerator gen(opt, /*seed=*/44);
    return new std::string(
        gen.GenerateStream(/*count=*/0, /*min_bytes=*/1 << 20));
  }();
  const std::string_view input =
      smoke ? std::string_view(*kWsHeavy).substr(0, 128 << 10)
            : std::string_view(*kWsHeavy);
  const int iters = smoke ? 1 : 3;

  const tagger::simd::Isa best = tagger::simd::BestAvailable();
  std::printf(
      "\nSIMD dispatch comparison (%zu KB delimiter-heavy, resync mode, "
      "best tier %s)\n",
      input.size() >> 10, tagger::simd::IsaName(best));
  std::printf("%8s | %12s %12s | %8s\n", "backend", "scalar MB/s",
              "simd MB/s", "speedup");

  const grammar::Grammar g = DuplicatedXmlRpc(1);
  tagger::TaggerOptions topt;
  topt.arm_mode = tagger::ArmMode::kResync;
  auto fallback = FallbackTagger(g, topt);
  auto lazy = ValueOrDie(tagger::LazyDfaTagger::Create(&g, topt), "lazy");

  auto time_engine = [&](const auto& engine) {
    size_t tags = 0;
    const tagger::TagSink sink = [&tags](const tagger::Tag&) {
      ++tags;
      return true;
    };
    engine.Run(input, sink);  // warm-up (and, for the lazy DFA, cache fill)
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) engine.Run(input, sink);
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(tags);
    const double secs =
        std::chrono::duration<double>(t1 - t0).count() / iters;
    return input.size() / 1e6 / (secs > 0 ? secs : 1e-9);
  };

  auto run_backend = [&](const char* name, const auto& engine) {
    // Byte-identical tags under both dispatches before timing anything.
    tagger::simd::ForceIsa(tagger::simd::Isa::kScalar);
    const auto want = engine.TagAll(input);
    tagger::simd::ForceIsa(best);
    if (engine.TagAll(input) != want) {
      std::fprintf(stderr, "FATAL %s scalar/simd tag mismatch\n", name);
      std::abort();
    }
    tagger::simd::ForceIsa(tagger::simd::Isa::kScalar);
    const double scalar_mbps = time_engine(engine);
    tagger::simd::ForceIsa(best);
    const double simd_mbps = time_engine(engine);
    const double speedup = simd_mbps / scalar_mbps;
    std::printf("%8s | %12.1f %12.1f | %7.2fx\n", name, scalar_mbps,
                simd_mbps, speedup);
    const std::string backend_label = std::string("backend=\"") + name + "\"";
    reg.GetGauge("cfgtag_bench_simd_mbps{" + backend_label +
                     ",dispatch=\"scalar\"}",
                 "Delimiter-heavy tagging MB/s under forced-scalar dispatch")
        ->Set(scalar_mbps);
    reg.GetGauge("cfgtag_bench_simd_mbps{" + backend_label +
                     ",dispatch=\"simd\"}",
                 "Delimiter-heavy tagging MB/s under the best vector tier")
        ->Set(simd_mbps);
    reg.GetGauge("cfgtag_bench_simd_speedup{" + backend_label + "}",
                 "Vectorized over forced-scalar throughput ratio on the "
                 "delimiter-heavy workload")
        ->Set(speedup);
  };
  run_backend("fallback", fallback);
  run_backend("lazy_dfa", lazy);
  tagger::simd::ClearForcedIsa();
}

// Cold-start economics of the compiled-tagger artifacts (BENCH_9.json).
// Two claims are measured, both CI-gated:
//   1. Loading a serialized artifact (mmap + validate + table binding) is
//      >= 10x faster than the work a compile-cache miss does — compiling
//      the grammar from source plus baking the AOT transition table. That
//      is exactly what a cache hit skips.
//   2. With the AOT-determinized transition table baked into the artifact,
//      a *fresh* lazy-DFA session's first megabyte runs within 10% of its
//      warmed-up steady state (cfgtag_bench_artifact_coldstart_ratio) —
//      the baked table replaces the cache-fill transient.
// Tag equivalence between the compiled and the loaded tagger is asserted
// before anything is timed.
void RecordArtifactComparison(bool smoke) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  const std::string& full = Workload();
  const std::string_view input =
      smoke ? std::string_view(full).substr(0, 128 << 10)
            : std::string_view(full);

  hwgen::HwOptions opt;
  opt.tagger.arm_mode = tagger::ArmMode::kResync;
  // The default 4096-state budget covers the BFS-shallow prefix of the
  // product space, but this workload's hot loop lives ~600 states deep and
  // only partially inside it. 16384 lets the determinization close the
  // reachable space (it converges well under the budget), so the baked
  // table covers every state the stream touches — the tuning rule
  // docs/artifact_cache.md gives for cold-start-critical deployments.
  opt.tagger.aot_state_budget = 16384;

  // --- miss-path (compile + AOT bake) vs hit-path (load) wall time -------
  const auto c0 = std::chrono::steady_clock::now();
  core::CompiledTagger compiled = CompileXmlRpc(1, opt);
  const std::string bytes =
      ValueOrDie(compiled.Serialize(), "artifact serialize");
  const auto c1 = std::chrono::steady_clock::now();
  const double compile_secs = std::chrono::duration<double>(c1 - c0).count();
  const std::string path =
      "bench_artifact_" + std::to_string(::getpid()) + ".cfgtag";
  CheckOk(tagger::artifact::AtomicWriteFile(path, bytes), "artifact write");

  const int load_reps = smoke ? 3 : 7;
  double load_secs = 1e9;
  for (int r = 0; r < load_reps; ++r) {
    const auto l0 = std::chrono::steady_clock::now();
    auto loaded = core::CompiledTagger::LoadArtifact(path);
    const auto l1 = std::chrono::steady_clock::now();
    CheckOk(loaded.status(), "artifact load");
    load_secs =
        std::min(load_secs, std::chrono::duration<double>(l1 - l0).count());
  }
  const double load_speedup = compile_secs / (load_secs > 0 ? load_secs : 1e-9);

  // --- equivalence before timing anything else ---------------------------
  core::CompiledTagger loaded =
      ValueOrDie(core::CompiledTagger::LoadArtifact(path), "artifact load");
  {
    const auto want = compiled.Tag(input);
    if (loaded.Tag(input) != want) {
      std::fprintf(stderr, "FATAL artifact/compiled tag mismatch\n");
      std::abort();
    }
  }

  // --- cold start out of the baked AOT table -----------------------------
  // Each repetition loads a *fresh* tagger (empty runtime transition
  // cache, baked table only) and times its very first pass over the slice;
  // the warm figure is the same tagger's third pass (the second finishes
  // filling whatever the AOT budget left out). Medians across repetitions
  // reject scheduler bursts. The slice is the acceptance's full first
  // megabyte even under --smoke: on a shorter slice the per-pass wall time
  // drops to ~1 ms and timer jitter swamps the effect being measured.
  const std::string_view cold_input =
      std::string_view(full).substr(0, std::min<size_t>(full.size(), 1 << 20));
  const tagger::TagSink sink = [](const tagger::Tag&) { return true; };
  auto time_pass = [&](const core::CompiledTagger& t) {
    const auto t0 = std::chrono::steady_clock::now();
    t.Tag(cold_input, sink);
    const auto t1 = std::chrono::steady_clock::now();
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    return cold_input.size() / 1e6 / (secs > 0 ? secs : 1e-9);
  };
  // Cold is measurable exactly once per loaded tagger, so each repetition
  // is one adjacent cold/warm pair and the ratio is the median of the
  // per-pair ratios — adjacency cancels host-throughput drift within a
  // pair (same trick as the attribution bench), where a global
  // median(cold)/median(warm) would compare passes seconds apart.
  const int reps = smoke ? 11 : 15;
  std::vector<double> cold, warm, ratios;
  for (int r = 0; r < reps; ++r) {
    core::CompiledTagger fresh =
        ValueOrDie(core::CompiledTagger::LoadArtifact(path), "artifact load");
    const double c = time_pass(fresh);
    time_pass(fresh);  // finish warming the runtime cache
    const double w = time_pass(fresh);
    cold.push_back(c);
    warm.push_back(w);
    ratios.push_back(c / w);
  }
  std::sort(cold.begin(), cold.end());
  std::sort(warm.begin(), warm.end());
  std::sort(ratios.begin(), ratios.end());
  const double cold_mbps = cold[cold.size() / 2];
  const double warm_mbps = warm[warm.size() / 2];
  const double coldstart_ratio = ratios[ratios.size() / 2];
  std::remove(path.c_str());

  std::printf(
      "\nArtifact cold start (lazy-dfa x1, %zu KB, AOT budget %u)\n"
      "  compile+bake %.1f ms, load %.2f ms (%.0fx), artifact %zu bytes\n"
      "  first pass %.1f MB/s, warm %.1f MB/s, cold/warm %.3f "
      "(acceptance >= 0.9)\n",
      cold_input.size() >> 10, opt.tagger.aot_state_budget, compile_secs * 1e3,
      load_secs * 1e3, load_speedup, bytes.size(), cold_mbps, warm_mbps,
      coldstart_ratio);

  reg.GetGauge("cfgtag_bench_artifact_compile_seconds",
               "Wall time of the cache-miss path: compile the XML-RPC "
               "grammar from source and bake the AOT table")
      ->Set(compile_secs);
  reg.GetGauge("cfgtag_bench_artifact_load_seconds",
               "Wall time to mmap, validate and bind the artifact (best of "
               "several)")
      ->Set(load_secs);
  reg.GetGauge("cfgtag_bench_artifact_load_speedup",
               "Compile wall time over artifact load wall time (CI gate: "
               ">= 10)")
      ->Set(load_speedup);
  reg.GetGauge("cfgtag_bench_artifact_bytes",
               "Size of the serialized lazy-DFA artifact")
      ->Set(static_cast<double>(bytes.size()));
  reg.GetGauge("cfgtag_bench_artifact_coldstart_mbps{phase=\"cold\"}",
               "Fresh-session first-pass MB/s out of the baked AOT table")
      ->Set(cold_mbps);
  reg.GetGauge("cfgtag_bench_artifact_coldstart_mbps{phase=\"warm\"}",
               "Same tagger steady-state MB/s after the runtime cache "
               "filled")
      ->Set(warm_mbps);
  reg.GetGauge("cfgtag_bench_artifact_coldstart_ratio",
               "Cold first-pass over warm throughput with baked AOT "
               "(acceptance >= 0.9; CI gate >= 0.85 for scheduler noise)")
      ->Set(coldstart_ratio);
}

// Acceptance gauge for the attribution hot path: a warm lazy DFA tags the
// same resync stream with per-token attribution off, then on, and the
// slowdown lands in bench_metrics.json as cfgtag_bench_attr_overhead_pct
// alongside cfgtag_bench_attr_mbps{attribution="off"/"on"}. The budget is
// < 2% sequential; the gauge is the paper trail, printed but not CI-gated
// (single-run timing on shared CI runners is too noisy to gate on).
void RecordAttributionOverhead(bool smoke) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  const std::string& full = Workload();
  // A deliberately small slice: ~4 ms legs are short enough that a noisy
  // neighbour's burst poisons one leg's best-of instead of a whole block
  // of pairs, and the pair count (not the leg length) buys the precision.
  const std::string_view input = std::string_view(full).substr(0, 64 << 10);

  const grammar::Grammar g = DuplicatedXmlRpc(4);
  tagger::TaggerOptions topt;
  topt.arm_mode = tagger::ArmMode::kResync;
  auto lazy = ValueOrDie(tagger::LazyDfaTagger::Create(&g, topt), "lazy");

  // Sessions sample the attribution flag at Reset, and Run checks out a
  // freshly reset session, so flipping the flag between timings is enough.
  // The pooled session keeps its transition cache across runs, so after
  // the warm-up every leg times the cached hit path.
  // Thread CPU time, not wall time: on a shared host a leg that loses the
  // CPU for a scheduler quantum would otherwise be charged the whole
  // preemption, which dwarfs the effect being measured.
  auto thread_seconds = [] {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
  };
  auto time_run = [&] {
    size_t tags = 0;
    const tagger::TagSink sink = [&tags](const tagger::Tag&) {
      ++tags;
      return true;
    };
    const double t0 = thread_seconds();
    lazy.Run(input, sink);
    const double t1 = thread_seconds();
    benchmark::DoNotOptimize(tags);
    const double secs = t1 - t0;
    return input.size() / 1e6 / (secs > 0 ? secs : 1e-9);
  };

  // Host throughput swings several percent over seconds on a shared
  // machine, so a single long off-then-on pair routinely reports noise as
  // overhead (or as a speedup). Instead: many *short* adjacent off/on
  // pairs — adjacency cancels drift within a pair, alternating which
  // config goes first keeps drift off one side, and the median of the
  // per-pair ratios rejects the bursts that poison best-of and means.
  // Each leg is itself a best-of-5 (even thread CPU time drifts with
  // frequency scaling and neighbour cache pressure; five tries make it
  // unlikely every sample of a leg landed inside the same burst).
  // Even the smoke count stays high: a handful of pairs is still hostage
  // to a single multi-second load burst spanning several of them; the
  // median needs tens of independent ratios to settle inside +-1%.
  const bool was_enabled = obs::AttributionTable::enabled();
  const int pairs = smoke ? 96 : 160;
  auto time_leg = [&] {
    double best = 0;
    for (int k = 0; k < 5; ++k) best = std::max(best, time_run());
    return best;
  };
  std::vector<double> ratios;
  double off_mbps = 0;
  double on_mbps = 0;
  time_run();  // warm up caches and the session pool outside the timings
  for (int r = 0; r < pairs; ++r) {
    double pair[2];  // [0] = off, [1] = on
    for (int leg = 0; leg < 2; ++leg) {
      const bool on = (leg == 0) == ((r & 1) != 0);
      obs::AttributionTable::set_enabled(on);
      pair[on ? 1 : 0] = time_leg();
    }
    ratios.push_back(pair[0] / pair[1]);
    off_mbps = std::max(off_mbps, pair[0]);
    on_mbps = std::max(on_mbps, pair[1]);
  }
  obs::AttributionTable::set_enabled(was_enabled);

  std::sort(ratios.begin(), ratios.end());
  const double overhead_pct = (ratios[ratios.size() / 2] - 1.0) * 100.0;
  std::printf(
      "\nAttribution overhead (lazy-dfa x4, %zu KB): off %.1f MB/s, on %.1f "
      "MB/s, overhead %.2f%% (budget < 2%%)\n",
      input.size() >> 10, off_mbps, on_mbps, overhead_pct);
  reg.GetGauge("cfgtag_bench_attr_mbps{attribution=\"off\"}",
               "Warm lazy-DFA sequential MB/s with per-token attribution off")
      ->Set(off_mbps);
  reg.GetGauge("cfgtag_bench_attr_mbps{attribution=\"on\"}",
               "Warm lazy-DFA sequential MB/s with per-token attribution on")
      ->Set(on_mbps);
  reg.GetGauge("cfgtag_bench_attr_overhead_pct",
               "Percent throughput lost to per-token attribution on the "
               "sequential warm lazy-DFA path (budget: < 2)")
      ->Set(overhead_pct);
}

// Acceptance gauge for the resilience layer's disarmed cost: the same
// compiled tagger scans the same resync stream through the plain Tag()
// path and through TagWithControl() with a default (inert) ScanControl —
// infinite deadline, inert cancel token, 64 KiB check interval, fault
// injector disarmed. The difference is the whole price of the deadline/
// cancel/budget plumbing when nothing is armed; the CI release-bench lane
// gates it < 2% out of BENCH_10.json. Methodology is the attribution
// gauge's: short adjacent off/on pairs on thread CPU time, alternating
// order, median of per-pair ratios (see RecordAttributionOverhead).
void RecordResilienceOverhead(bool smoke) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  const std::string& full = Workload();
  const std::string_view input = std::string_view(full).substr(0, 64 << 10);

  grammar::Grammar g = DuplicatedXmlRpc(4);
  hwgen::HwOptions opt;
  opt.tagger.arm_mode = tagger::ArmMode::kResync;
  auto tagger =
      ValueOrDie(core::CompiledTagger::Compile(std::move(g), opt), "compile");

  auto thread_seconds = [] {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
  };
  const core::resilience::ScanControl inert;
  auto time_run = [&](bool controlled) {
    size_t tags = 0;
    const tagger::TagSink sink = [&tags](const tagger::Tag&) {
      ++tags;
      return true;
    };
    const double t0 = thread_seconds();
    if (controlled) {
      (void)tagger.TagWithControl(input, sink, inert);
    } else {
      tagger.Tag(input, sink);
    }
    const double t1 = thread_seconds();
    benchmark::DoNotOptimize(tags);
    const double secs = t1 - t0;
    return input.size() / 1e6 / (secs > 0 ? secs : 1e-9);
  };

  const int pairs = smoke ? 96 : 160;
  auto time_leg = [&](bool controlled) {
    double best = 0;
    for (int k = 0; k < 5; ++k) best = std::max(best, time_run(controlled));
    return best;
  };
  std::vector<double> ratios;
  double off_mbps = 0;
  double on_mbps = 0;
  time_run(false);  // warm up caches and the session pool
  time_run(true);
  for (int r = 0; r < pairs; ++r) {
    double pair[2];  // [0] = plain Tag, [1] = TagWithControl
    for (int leg = 0; leg < 2; ++leg) {
      const bool on = (leg == 0) == ((r & 1) != 0);
      pair[on ? 1 : 0] = time_leg(on);
    }
    ratios.push_back(pair[0] / pair[1]);
    off_mbps = std::max(off_mbps, pair[0]);
    on_mbps = std::max(on_mbps, pair[1]);
  }

  std::sort(ratios.begin(), ratios.end());
  const double overhead_pct = (ratios[ratios.size() / 2] - 1.0) * 100.0;
  std::printf(
      "\nResilience overhead (lazy-dfa x4, %zu KB): plain %.1f MB/s, "
      "controlled %.1f MB/s, overhead %.2f%% (budget < 2%%)\n",
      input.size() >> 10, off_mbps, on_mbps, overhead_pct);
  reg.GetGauge("cfgtag_bench_resilience_mbps{control=\"off\"}",
               "Sequential MB/s through the plain Tag() path")
      ->Set(off_mbps);
  reg.GetGauge("cfgtag_bench_resilience_mbps{control=\"on\"}",
               "Sequential MB/s through TagWithControl() with an "
               "inert default ScanControl")
      ->Set(on_mbps);
  reg.GetGauge("cfgtag_bench_resilience_overhead_pct",
               "Percent throughput lost to the disarmed resilience layer "
               "(inert ScanControl vs plain Tag; CI gate: < 2)")
      ->Set(overhead_pct);
}

}  // namespace
}  // namespace cfgtag::bench

// Like BENCHMARK_MAIN(), plus a machine-readable trail: the default
// metrics registry — populated by the instrumented Tag/Compile/Implement
// paths the benchmarks exercised — is dumped to bench_metrics.json so
// BENCH_*.json trajectories carry per-stage cost attribution.
int main(int argc, char** argv) {
  // --smoke (ours, stripped before google-benchmark sees the args) shrinks
  // the backend comparison to a CI-sized workload; pair it with a
  // --benchmark_filter to keep the google-benchmark section short too.
  const bool smoke = cfgtag::bench::StripSmokeFlag(&argc, argv);
  // --stats-port serves /metrics et al. over loopback for the life of the
  // run (and turns attribution on); --stats-hold-seconds keeps the process
  // alive after the bench body so CI can scrape before exit.
  const int stats_port =
      cfgtag::bench::StripIntFlag(&argc, argv, "--stats-port", -1);
  const int stats_hold =
      cfgtag::bench::StripIntFlag(&argc, argv, "--stats-hold-seconds", 0);
  cfgtag::bench::MaybeServeStats(stats_port);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  cfgtag::obs::MetricsRegistry::Default()
      .GetGauge("cfgtag_bench_workload_bytes",
                "Bytes of the generated XML-RPC workload stream")
      ->Set(static_cast<double>(cfgtag::bench::Workload().size()));
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  cfgtag::bench::RecordBackendComparison(smoke);
  cfgtag::bench::RecordSimdComparison(smoke);
  cfgtag::bench::RecordArtifactComparison(smoke);
  cfgtag::bench::RecordAttributionOverhead(smoke);
  cfgtag::bench::RecordResilienceOverhead(smoke);
  cfgtag::bench::WriteMetricsJson("bench_metrics.json");
  // BENCH_9.json carries the artifact load-speedup and AOT cold-start
  // gauges its CI gate parses.
  cfgtag::bench::WriteMetricsJson("BENCH_9.json");
  // BENCH_10.json re-baselines after the service-resilience layer and
  // carries the disarmed-control overhead gauge its CI gate parses.
  cfgtag::bench::WriteMetricsJson("BENCH_10.json");
  cfgtag::bench::HoldStats(stats_hold);
  return 0;
}
