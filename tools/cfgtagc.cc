// cfgtagc — the paper's "automatic hardware generator" as a command-line
// tool: a Yacc-style grammar file in, VHDL + implementation reports out,
// with optional tagging of an input file for quick experiments.
//
//   cfgtagc GRAMMAR [options]
//
//   --vhdl FILE         write structural VHDL for the generated tagger
//   --netlist FILE      write the gate-level netlist (cfgtag-netlist-v1)
//   --entity NAME       VHDL entity name (default: tagger)
//   --report            print LUT/FF/Fmax/bandwidth for both paper devices
//   --analysis          print the First/Follow analysis (paper Fig. 10)
//   --lint              print grammar diagnostics (arm conflicts etc.)
//   --tag FILE          tag the contents of FILE and print the tag stream
//   --cycle-accurate    tag via gate-level simulation instead of the model
//   --vcd FILE          with --tag: dump a VCD waveform of the simulation
//   --testbench FILE    with --tag: emit a self-checking VHDL testbench
//                       that replays the tagged input and asserts the tags
//   --mode MODE         anchored | scan | resync       (default anchored)
//   --threads N         with --tag: shard the input at newline record
//                       boundaries and tag shards in parallel (needs
//                       --mode resync and newline-framed records;
//                       default 1)
//   --bytes-per-cycle N 1, 2 or 4                      (default 1)
//   --replicate N       decoder replication threshold  (default off)
//   --no-longest-match  disable the Fig. 7 look-ahead
//   --no-encoder        omit the index encoder
//   --metrics-out FILE  write Prometheus-style metrics ("-" = stdout)
//   --trace-out FILE    write a Chrome trace_event JSON of the run
//   --stats-port N      serve /metrics, /metrics.json, /trace.json,
//                       /events, /rules and /healthz over HTTP on
//                       127.0.0.1:N for the run's duration (0 = pick a
//                       free port; the bound port is printed)
//   --attribution       per-token/per-rule hot-path attribution (the
//                       /rules ranking and cfgtag_attr_* metrics)
//   --flight-recorder-out FILE
//                       dump the flight-recorder event ring to FILE on
//                       exit — and from a SIGINT/SIGTERM handler, so an
//                       interrupted run still leaves its last events
//   --save-artifact FILE
//                       serialize the compiled software tagger into a
//                       zero-copy artifact file
//   --load-artifact FILE
//                       skip the grammar compile entirely: mmap a saved
//                       artifact and tag with it (software engine only —
//                       no GRAMMAR argument, no hardware outputs)
//   --cache-dir DIR     content-addressed compile cache: load the
//                       artifact keyed by (grammar, options) from DIR if
//                       present, else compile and store it (ignored when
//                       hardware outputs are requested — those need the
//                       netlist, which artifacts do not carry)
//   --deadline-ms N     with --tag: abort the (software) scan N ms in,
//                       print the tags found so far, and exit nonzero
//                       with DEADLINE_EXCEEDED (ignored by
//                       --cycle-accurate; with --threads the deadline is
//                       shared across all shards)
//   --memory-budget-mb N
//                       cap the resilience resource budget at N MiB; as
//                       pressure rises the run degrades (DFA cache shed,
//                       session pools trimmed, artifact cache read-only)
//                       instead of growing unbounded — see
//                       docs/robustness.md
//   --faults SPEC       arm the fault injector, e.g.
//                       "artifact.mmap,scan.chunk:3:20" (same syntax as
//                       the CFGTAG_FAULTS environment variable; see
//                       docs/robustness.md for the site catalog)
//
// A second positional argument is shorthand for --tag:
//   cfgtagc GRAMMAR INPUT == cfgtagc GRAMMAR --tag INPUT
// With --load-artifact the grammar positional is dropped, so the first
// positional (if any) is the input to tag.

#include <unistd.h>

#include <cerrno>
#include <climits>
#include <optional>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "core/hardware_design.h"
#include "core/resilience/budget.h"
#include "core/resilience/deadline.h"
#include "core/resilience/fault_injector.h"
#include "core/token_tagger.h"
#include "core/worker_pool.h"
#include "grammar/analysis.h"
#include "grammar/grammar_parser.h"
#include "grammar/lint.h"
#include "obs/attribution.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/stats_server.h"
#include "obs/trace.h"
#include "rtl/device.h"
#include "rtl/serialize.h"
#include "tagger/artifact/cache.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s GRAMMAR [INPUT] [--vhdl FILE] [--entity NAME]\n"
               "       [--report] [--analysis] [--tag FILE]\n"
               "       [--cycle-accurate] [--mode anchored|scan|resync]\n"
               "       [--threads N] [--bytes-per-cycle N] [--replicate N]\n"
               "       [--no-longest-match] [--no-encoder]\n"
               "       [--metrics-out FILE] [--trace-out FILE]\n"
               "       [--stats-port N] [--attribution]\n"
               "       [--flight-recorder-out FILE]\n"
               "       [--save-artifact FILE] [--load-artifact FILE]\n"
               "       [--cache-dir DIR] [--deadline-ms N]\n"
               "       [--memory-budget-mb N] [--faults SPEC]\n",
               argv0);
  return 2;
}

// Observability sinks, written on every exit path (a failed run's partial
// metrics and trace are exactly what one wants when debugging it).
std::string g_metrics_out;
std::string g_trace_out;
std::string g_flight_out;

// Lives for the whole process so /healthz stays up across the run; the
// destructor joins the accept thread on exit.
cfgtag::obs::StatsServer g_stats_server;

// Prints a stage's Status failure, flight-records it (so --flight-
// recorder-out dumps carry the failure that ended the run), and returns
// the tool's error exit code.
int FailStatus(const char* stage, const cfgtag::Status& status) {
  std::fprintf(stderr, "%s error: %s\n", stage, status.ToString().c_str());
  cfgtag::obs::RecordEvent(cfgtag::obs::EventKind::kStatusError, 0, 0,
                           std::string(stage) + ": " + status.ToString());
  return 1;
}

void WriteObservability() {
  if (!g_metrics_out.empty()) {
    const std::string text =
        cfgtag::obs::MetricsRegistry::Default().ExpositionText();
    if (g_metrics_out == "-") {
      std::fwrite(text.data(), 1, text.size(), stdout);
    } else {
      std::ofstream out(g_metrics_out, std::ios::binary);
      out << text;
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", g_metrics_out.c_str());
      } else {
        std::fprintf(stderr, "wrote metrics to %s\n", g_metrics_out.c_str());
      }
    }
  }
  if (!g_trace_out.empty()) {
    std::ofstream out(g_trace_out, std::ios::binary);
    cfgtag::obs::Tracer::Default().WriteChromeTrace(out);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", g_trace_out.c_str());
    } else {
      std::fprintf(stderr, "wrote trace to %s (open in chrome://tracing)\n",
                   g_trace_out.c_str());
    }
  }
  if (!g_flight_out.empty()) {
    std::ofstream out(g_flight_out, std::ios::binary);
    cfgtag::obs::FlightRecorder::Default().WriteJson(out);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", g_flight_out.c_str());
    } else {
      std::fprintf(stderr, "wrote flight-recorder events to %s\n",
                   g_flight_out.c_str());
    }
  }
}

// Strict positive-integer parse: the whole string must be digits (no
// trailing junk — "12abc" is an error, unlike atoi), and the value must fit
// and be >= 1.
bool ParsePositiveInt(const char* s, int* out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0') return false;
  if (v <= 0 || v > INT_MAX) return false;
  *out = static_cast<int>(v);
  return true;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

int RunTool(int argc, char** argv) {
  if (argc < 2) return Usage(argv[0]);

  std::string grammar_path;
  std::string vhdl_path;
  std::string netlist_path;
  std::string entity = "tagger";
  std::string tag_path;
  std::string vcd_path;
  std::string testbench_path;
  bool report = false;
  bool analysis = false;
  bool lint = false;
  bool cycle_accurate = false;
  std::string save_artifact;
  std::string load_artifact;
  std::string cache_dir;
  int threads = 1;
  int deadline_ms = 0;       // 0 = no deadline
  int memory_budget_mb = 0;  // 0 = unlimited
  int stats_port = -1;  // -1 = no stats server; 0 = kernel-assigned
  bool attribution = false;
  cfgtag::hwgen::HwOptions options;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    // --flag=VALUE and --flag VALUE are both accepted; flags and
    // positionals mix in any order.
    std::string inline_value;
    bool has_inline = false;
    if (arg.rfind("--", 0) == 0) {
      const size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        inline_value = arg.substr(eq + 1);
        arg.resize(eq);
        has_inline = true;
      }
    } else {
      // Positionals: first the grammar, then optionally an input to tag.
      if (grammar_path.empty()) {
        grammar_path = arg;
      } else if (tag_path.empty()) {
        tag_path = arg;
      } else {
        return Usage(argv[0]);
      }
      continue;
    }
    auto next = [&]() -> const char* {
      if (has_inline) return inline_value.c_str();
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--vhdl") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      vhdl_path = v;
    } else if (arg == "--netlist") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      netlist_path = v;
    } else if (arg == "--entity") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      entity = v;
    } else if (arg == "--tag") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      tag_path = v;
    } else if (arg == "--vcd") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      vcd_path = v;
    } else if (arg == "--testbench") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      testbench_path = v;
    } else if (arg == "--report") {
      report = true;
    } else if (arg == "--analysis") {
      analysis = true;
    } else if (arg == "--lint") {
      lint = true;
    } else if (arg == "--cycle-accurate") {
      cycle_accurate = true;
    } else if (arg == "--mode") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      if (std::strcmp(v, "anchored") == 0) {
        options.tagger.arm_mode = cfgtag::tagger::ArmMode::kAnchored;
      } else if (std::strcmp(v, "scan") == 0) {
        options.tagger.arm_mode = cfgtag::tagger::ArmMode::kScan;
      } else if (std::strcmp(v, "resync") == 0) {
        options.tagger.arm_mode = cfgtag::tagger::ArmMode::kResync;
      } else {
        return Usage(argv[0]);
      }
    } else if (arg == "--threads") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      if (!ParsePositiveInt(v, &threads)) {
        std::fprintf(stderr, "--threads needs a positive count, got \"%s\"\n",
                     v);
        return Usage(argv[0]);
      }
    } else if (arg == "--bytes-per-cycle") {
      // Validated here, not by the generator: the netlist is only built
      // when a hardware output asks for it, so a tag-only run would
      // otherwise accept a bad value silently.
      const char* v = next();
      if (!v) return Usage(argv[0]);
      if (!ParsePositiveInt(v, &options.bytes_per_cycle) ||
          (options.bytes_per_cycle != 1 && options.bytes_per_cycle != 2 &&
           options.bytes_per_cycle != 4)) {
        std::fprintf(stderr,
                     "--bytes-per-cycle must be 1, 2 or 4, got \"%s\"\n", v);
        return Usage(argv[0]);
      }
    } else if (arg == "--replicate") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      int threshold = 0;
      if (!ParsePositiveInt(v, &threshold)) {
        std::fprintf(stderr,
                     "--replicate needs a positive threshold, got \"%s\"\n",
                     v);
        return Usage(argv[0]);
      }
      options.decoder_replication = true;
      options.replication_threshold = static_cast<uint32_t>(threshold);
    } else if (arg == "--no-longest-match") {
      options.tagger.longest_match = false;
    } else if (arg == "--no-encoder") {
      options.emit_index_encoder = false;
    } else if (arg == "--metrics-out") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      g_metrics_out = v;
    } else if (arg == "--trace-out") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      g_trace_out = v;
    } else if (arg == "--stats-port") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      if (std::strcmp(v, "0") == 0) {
        stats_port = 0;
      } else if (!ParsePositiveInt(v, &stats_port) || stats_port > 65535) {
        std::fprintf(stderr, "--stats-port needs a port (0-65535), got "
                     "\"%s\"\n", v);
        return Usage(argv[0]);
      }
    } else if (arg == "--attribution") {
      attribution = true;
    } else if (arg == "--flight-recorder-out") {
      const char* v = next();
      if (!v || *v == '\0') return Usage(argv[0]);
      // Validate the path up front, exactly like --threads/--stats-port
      // validate their values: a dump that would only fail at exit (or in
      // the signal handler) is a silently lost flight recording. Probe by
      // opening for append — creates the file if absent, never truncates
      // an existing one.
      std::ofstream probe(v, std::ios::app | std::ios::binary);
      if (!probe) {
        std::fprintf(stderr,
                     "--flight-recorder-out needs a writable path, "
                     "cannot open \"%s\"\n", v);
        return Usage(argv[0]);
      }
      g_flight_out = v;
    } else if (arg == "--save-artifact") {
      const char* v = next();
      if (!v || *v == '\0') return Usage(argv[0]);
      // Same up-front probe discipline as --flight-recorder-out: fail
      // before the (potentially long) compile, not after it. Append mode
      // creates the file if absent and never truncates an existing one.
      std::ofstream probe(v, std::ios::app | std::ios::binary);
      if (!probe) {
        std::fprintf(stderr,
                     "--save-artifact needs a writable path, "
                     "cannot open \"%s\"\n", v);
        return Usage(argv[0]);
      }
      save_artifact = v;
    } else if (arg == "--load-artifact") {
      const char* v = next();
      if (!v || *v == '\0') return Usage(argv[0]);
      std::ifstream probe(v, std::ios::binary);
      if (!probe) {
        std::fprintf(stderr,
                     "--load-artifact needs a readable artifact file, "
                     "cannot open \"%s\"\n", v);
        return Usage(argv[0]);
      }
      load_artifact = v;
    } else if (arg == "--cache-dir") {
      const char* v = next();
      if (!v || *v == '\0') return Usage(argv[0]);
      // Probe by creating (and removing) a file in the directory — the
      // one capability the cache needs; an unwritable or missing
      // directory fails here instead of silently disabling the cache.
      const std::string probe_path =
          std::string(v) + "/.cfgtag-probe-" + std::to_string(::getpid());
      {
        std::ofstream probe(probe_path, std::ios::binary);
        if (!probe) {
          std::fprintf(stderr,
                       "--cache-dir needs a writable directory, "
                       "cannot create files in \"%s\"\n", v);
          return Usage(argv[0]);
        }
      }
      std::remove(probe_path.c_str());
      cache_dir = v;
    } else if (arg == "--deadline-ms") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      if (!ParsePositiveInt(v, &deadline_ms)) {
        std::fprintf(stderr,
                     "--deadline-ms needs a positive millisecond count, "
                     "got \"%s\"\n", v);
        return Usage(argv[0]);
      }
    } else if (arg == "--memory-budget-mb") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      if (!ParsePositiveInt(v, &memory_budget_mb)) {
        std::fprintf(stderr,
                     "--memory-budget-mb needs a positive MiB count, "
                     "got \"%s\"\n", v);
        return Usage(argv[0]);
      }
    } else if (arg == "--faults") {
      const char* v = next();
      if (!v || *v == '\0') return Usage(argv[0]);
      // Validate-and-arm up front, like every other flag: a typo'd site
      // name fails the run here, not silently never-fires.
      const cfgtag::Status armed =
          cfgtag::core::resilience::FaultInjector::Instance().ArmFromSpec(v);
      if (!armed.ok()) {
        std::fprintf(stderr, "--faults: %s\n", armed.ToString().c_str());
        return Usage(argv[0]);
      }
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return Usage(argv[0]);
    }
  }

  const bool needs_hardware = report || cycle_accurate ||
                              !vhdl_path.empty() || !netlist_path.empty() ||
                              !testbench_path.empty() || !vcd_path.empty();
  if (!load_artifact.empty()) {
    // No grammar compile happens, so the grammar positional slot becomes
    // the input to tag.
    if (!grammar_path.empty()) {
      if (!tag_path.empty()) return Usage(argv[0]);
      tag_path = grammar_path;
      grammar_path.clear();
    }
    if (needs_hardware) {
      std::fprintf(stderr,
                   "--load-artifact provides the software engine only; "
                   "--vhdl/--netlist/--report/--cycle-accurate/"
                   "--testbench/--vcd need a grammar compile\n");
      return Usage(argv[0]);
    }
    if (analysis || lint) {
      std::fprintf(stderr,
                   "--analysis/--lint need the grammar source, not an "
                   "artifact\n");
      return Usage(argv[0]);
    }
  } else if (grammar_path.empty()) {
    return Usage(argv[0]);
  }

  if (attribution) cfgtag::obs::AttributionTable::set_enabled(true);
  if (memory_budget_mb > 0) {
    // Before any tagger construction, so the compile's DFA cache and the
    // artifact mmap both charge against the cap from byte one.
    cfgtag::core::resilience::ResourceBudget::Process().SetLimit(
        static_cast<uint64_t>(memory_budget_mb) << 20);
    std::printf("memory budget: %d MiB\n", memory_budget_mb);
  }
  if (!g_flight_out.empty()) {
    // Crash-safe path: SIGINT/SIGTERM dump the ring before the process
    // dies with the conventional signal status.
    cfgtag::obs::FlightRecorder::InstallSignalDump(g_flight_out.c_str());
  }
  if (stats_port >= 0) {
    const cfgtag::Status started = g_stats_server.Start(stats_port);
    if (!started.ok()) return FailStatus("stats server", started);
    std::printf("stats server on http://127.0.0.1:%d/ "
                "(/metrics /metrics.json /trace.json /events /rules "
                "/healthz)\n",
                g_stats_server.port());
  }

  std::optional<cfgtag::core::CompiledTagger> tagger;
  if (!load_artifact.empty()) {
    auto loaded = cfgtag::core::CompiledTagger::LoadArtifact(load_artifact);
    if (!loaded.ok()) return FailStatus("artifact", loaded.status());
    tagger.emplace(std::move(loaded).value());
    const auto& g = tagger->grammar();
    std::printf("grammar: %zu tokens, %zu nonterminals, %zu productions, "
                "%zu pattern bytes (from artifact %s)\n",
                g.NumTokens(), g.NumNonterminals(), g.productions().size(),
                g.PatternBytes(), load_artifact.c_str());
  } else {
    std::string grammar_text;
    if (!ReadFile(grammar_path, &grammar_text)) {
      std::fprintf(stderr, "cannot read %s\n", grammar_path.c_str());
      return 1;
    }
    auto grammar = [&] {
      cfgtag::obs::ScopedSpan span("grammar.Parse");
      return cfgtag::grammar::ParseGrammar(grammar_text);
    }();
    if (!grammar.ok()) return FailStatus("grammar", grammar.status());
    std::printf("grammar: %zu tokens, %zu nonterminals, %zu productions, "
                "%zu pattern bytes\n",
                grammar->NumTokens(), grammar->NumNonterminals(),
                grammar->productions().size(), grammar->PatternBytes());

    if (analysis) {
      auto a = cfgtag::grammar::Analyze(*grammar);
      if (!a.ok()) return FailStatus("analysis", a.status());
      std::printf("\n%s", a->ToString(*grammar).c_str());
    }

    if (lint) {
      auto findings = cfgtag::grammar::Lint(*grammar);
      if (!findings.ok()) return FailStatus("lint", findings.status());
      if (findings->empty()) {
        std::printf("lint: no findings\n");
      }
      for (const auto& f : *findings) {
        std::printf("lint [%s]: %s\n",
                    cfgtag::grammar::LintKindName(f.kind), f.message.c_str());
      }
    }

    // Hardware outputs need the grammar, which artifacts do not carry, so
    // the cache only serves software-tagging runs.
    auto compiled =
        (!cache_dir.empty() && !needs_hardware)
            ? cfgtag::core::CompiledTagger::CompileCached(
                  std::move(grammar).value(), options, cache_dir)
            : cfgtag::core::CompiledTagger::Compile(
                  std::move(grammar).value(), options);
    if (!compiled.ok()) return FailStatus("compile", compiled.status());
    tagger.emplace(std::move(compiled).value());
  }
  // The netlist is generated only for runs that write a hardware output.
  std::optional<cfgtag::core::HardwareDesign> design;
  if (tagger->loaded_from_artifact()) {
    std::printf("software engine loaded from artifact (no netlist)\n");
  } else if (needs_hardware) {
    auto created =
        cfgtag::core::HardwareDesign::Create(tagger->grammar(), options);
    if (!created.ok()) return FailStatus("hwgen", created.status());
    design.emplace(std::move(created).value());
    const cfgtag::hwgen::GeneratedTagger& hardware = design->generated();
    const auto stats = hardware.netlist.ComputeStats();
    std::printf("netlist: %zu gates, %zu registers, %d byte(s)/cycle, "
                "match latency %d cycle(s)\n",
                stats.num_gates, stats.num_regs, hardware.lanes,
                hardware.match_latency);
  }

  if (!save_artifact.empty()) {
    auto bytes = tagger->Serialize();
    if (!bytes.ok()) return FailStatus("artifact", bytes.status());
    const cfgtag::Status stored =
        cfgtag::tagger::artifact::AtomicWriteFile(save_artifact, *bytes);
    if (!stored.ok()) return FailStatus("artifact", stored);
    std::printf("wrote %zu-byte artifact to %s\n", bytes->size(),
                save_artifact.c_str());
  }

  if (report) {
    for (const cfgtag::rtl::Device& device :
         {cfgtag::rtl::VirtexE2000(), cfgtag::rtl::Virtex4LX200()}) {
      auto r = design->Implement(device);
      if (!r.ok()) return FailStatus("implement", r.status());
      std::printf("\n%s: %zu LUTs (%.2f/byte), %zu FFs, %.0f MHz, "
                  "%.2f Gbps\n",
                  device.name.c_str(), r->area.luts, r->area.luts_per_byte,
                  r->area.ffs, r->timing.fmax_mhz, r->bandwidth_gbps);
      for (const auto& bucket : r->area.breakdown) {
        std::printf("  %-10s %6zu LUTs %6zu FFs\n",
                    bucket.scope.empty() ? "(misc)" : bucket.scope.c_str(),
                    bucket.luts, bucket.ffs);
      }
      std::printf("  %s\n", r->timing.ToString().c_str());
    }
  }

  if (!vhdl_path.empty()) {
    auto vhdl = design->ExportVhdl(entity);
    if (!vhdl.ok()) return FailStatus("vhdl", vhdl.status());
    std::ofstream out(vhdl_path, std::ios::binary);
    out << *vhdl;
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", vhdl_path.c_str());
      return 1;
    }
    std::printf("wrote %zu bytes of VHDL to %s (entity %s)\n", vhdl->size(),
                vhdl_path.c_str(), entity.c_str());
  }

  if (!netlist_path.empty()) {
    std::ofstream out(netlist_path, std::ios::binary);
    const std::string text =
        cfgtag::rtl::SerializeNetlist(design->generated().netlist);
    out << text;
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", netlist_path.c_str());
      return 1;
    }
    std::printf("wrote %zu bytes of netlist to %s\n", text.size(),
                netlist_path.c_str());
  }

  if (!tag_path.empty()) {
    std::string input;
    if (!ReadFile(tag_path, &input)) {
      std::fprintf(stderr, "cannot read %s\n", tag_path.c_str());
      return 1;
    }
    cfgtag::obs::ScopedSpan tag_span("cfgtagc.Tag");
    std::vector<cfgtag::tagger::Tag> tags;
    cfgtag::Status tag_status;
    if (cycle_accurate) {
      if (deadline_ms > 0) {
        std::fprintf(stderr,
                     "--deadline-ms is ignored with --cycle-accurate "
                     "(the simulator is not deadline-aware)\n");
      }
      if (threads > 1) {
        std::fprintf(stderr,
                     "--threads is ignored with --cycle-accurate "
                     "(the simulator is single-stream)\n");
      }
      auto hw = design->TagCycleAccurate(input);
      if (!hw.ok()) return FailStatus("simulation", hw.status());
      tags = std::move(hw).value();
    } else {
      // One deadline for the whole tag run (infinite without
      // --deadline-ms): with --threads every shard checks the same clock,
      // so the first shard to notice trips them all.
      cfgtag::core::resilience::ScanControl control;
      if (deadline_ms > 0) {
        control.deadline =
            cfgtag::core::resilience::Deadline::AfterMillis(deadline_ms);
      }
      // --threads shards the input at newline record boundaries, where a
      // fresh resync tagger provably equals one that streamed through.
      const cfgtag::regex::CharClass record =
          cfgtag::regex::CharClass::Of('\n');
      const bool sharded =
          threads > 1 && cfgtag::core::RecordShardingIsExact(
                             tagger->options().tagger, record);
      if (threads > 1 && !sharded) {
        std::fprintf(stderr,
                     "--threads needs --mode resync with newline as a "
                     "tagger delimiter; tagging with one thread instead\n");
      }
      const std::vector<size_t> starts =
          sharded ? cfgtag::core::ShardSplitPoints(
                        input, record,
                        /*max_shards=*/2 * static_cast<size_t>(threads),
                        /*min_shard_bytes=*/4096)
                  : std::vector<size_t>{0};
      std::vector<std::vector<cfgtag::tagger::Tag>> shard(starts.size());
      std::vector<cfgtag::Status> shard_status(starts.size());
      const auto tag_shard = [&](size_t /*slot*/, size_t i) {
        const size_t end =
            i + 1 < starts.size() ? starts[i + 1] : input.size();
        shard_status[i] = tagger->TagWithControl(
            std::string_view(input).substr(starts[i], end - starts[i]),
            [&](const cfgtag::tagger::Tag& t) {
              shard[i].push_back(t);
              return true;
            },
            control);
      };
      if (sharded) {
        cfgtag::core::WorkerPool pool(threads);
        pool.RunIndexed(starts.size(), tag_shard);
        std::printf("tagged with %d thread(s) across %zu shard(s)\n",
                    pool.num_threads(), starts.size());
      } else {
        tag_shard(0, 0);
      }
      // Merge every shard — a tripped shard still tagged its consumed
      // prefix, and those partial tags are worth printing.
      for (size_t i = 0; i < starts.size(); ++i) {
        for (cfgtag::tagger::Tag t : shard[i]) {
          t.end += starts[i];
          tags.push_back(t);
        }
        if (tag_status.ok() && !shard_status[i].ok()) {
          tag_status = sharded ? shard_status[i].WithContext(
                                     "shard " + std::to_string(i))
                               : shard_status[i];
        }
      }
    }
    if (!testbench_path.empty()) {
      // The software engine's tags are the oracle the bench asserts.
      const std::vector<cfgtag::tagger::Tag> expected = tagger->Tag(input);
      auto tb = design->ExportVhdlTestbench(entity, input, expected);
      if (!tb.ok()) return FailStatus("testbench", tb.status());
      std::ofstream out(testbench_path, std::ios::binary);
      out << *tb;
      std::printf("wrote testbench to %s (run against the --vhdl output)\n",
                  testbench_path.c_str());
    }
    if (!vcd_path.empty()) {
      std::ofstream vcd(vcd_path, std::ios::binary);
      auto status = design->DumpWaveform(input, vcd);
      if (!status.ok()) return FailStatus("vcd", status);
      std::printf("wrote waveform to %s\n", vcd_path.c_str());
    }
    const char* engine = cycle_accurate ? "cycle-accurate" : "lazy-dfa";
    std::printf("%zu tags from %s (%s engine)%s:\n", tags.size(),
                tag_path.c_str(), engine,
                tag_status.ok() ? "" : ", partial — scan aborted");
    for (const auto& t : tags) {
      std::printf("  byte %8llu  %s\n",
                  static_cast<unsigned long long>(t.end),
                  tagger->grammar().tokens()[t.token].name.c_str());
    }
    // Partial tags printed above; the exit status still reports the trip.
    if (!tag_status.ok()) return FailStatus("tag", tag_status);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const int code = RunTool(argc, argv);
  if (code != 2) WriteObservability();  // usage errors have nothing to report
  return code;
}
