// The four workloads. Each builds the product object from grammar text
// (timed as setup), generates its inputs from the seed, checks the outputs
// against ground truth, and then either runs the closed loop untraced
// (end-to-end metrics) or probes each layer's public calls (per-layer
// metrics, traced).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>

#include "core/token_tagger.h"
#include "grammar/analysis.h"
#include "grammar/grammar_parser.h"
#include "grammar/transforms.h"
#include "hwgen/tagger_gen.h"
#include "nids/scan_engine.h"
#include "obs/metrics.h"
#include "perfbench.h"
#include "rtl/device.h"
#include "tagger/skip_scan.h"
#include "xmlrpc/xmlrpc_grammar.h"

namespace perfbench {
namespace {

namespace core = cfgtag::core;
namespace grammar = cfgtag::grammar;
namespace hwgen = cfgtag::hwgen;
namespace nids = cfgtag::nids;
namespace tagger = cfgtag::tagger;
namespace xmlrpc = cfgtag::xmlrpc;
using cfgtag::StatusOr;

// Setup repetitions per run; setup_s and the setup layer times are medians.
constexpr int kSetupReps = 25;
// Warm passes behind each per-layer tagger time.
constexpr int kProbePasses = 5;
// The paper's Virtex4 line rate on the 300-byte XML-RPC grammar, MB/s.
constexpr double kPaperLineRateMbps = 533;

std::string Fmt(const char* format, double a, double b = 0, double c = 0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), format, a, b, c);
  return buf;
}

// Stream workloads tag back-to-back messages, so they arm in resync mode;
// everything else is the library default.
hwgen::HwOptions StreamOptions() {
  hwgen::HwOptions options;
  options.tagger.arm_mode = tagger::ArmMode::kResync;
  return options;
}

// Builds the product object once, timed into `setup_times`, and returns
// it: the object the workload uses is laid out on a fresh heap, as a
// user's would be. Traced runs report the resident set right after it.
template <typename Build>
auto Setup(Record& r, Build build, std::vector<double>* setup_times)
    -> decltype(build()) {
  const double t0 = Now();
  auto built = build();
  setup_times->push_back(Now() - t0);
  if (r.trace) r.Add("core.setup_rss_mb", "MiB", CurrentRssMb());
  return built;
}

// ---- The closed loop --------------------------------------------------------

// One operation: runs it and returns whether its output was right; sets
// the input bytes it consumed.
using Op = std::function<bool(uint64_t id, double* bytes)>;

struct Loop {
  LatencyHistogram latency;  // every op
  size_t parts_per_pass = 1;
  std::vector<double> part_bytes;    // input bytes of each part of a pass
  std::vector<double> part_seconds;  // in order; entry i is part
                                     // i % parts_per_pass of its pass
  size_t passes() const { return part_seconds.size() / parts_per_pass; }
};

// How a workload's ops cover its input: a pass is `ops_per_pass`
// consecutive ops that cover the whole input once, and it is timed in
// parts of `ops_per_part` ops, which must divide it. A part of a few
// milliseconds can fall into a quiet moment of the host that a whole pass
// would outlast.
struct Passes {
  size_t ops_per_pass = 1;
  size_t ops_per_part = 1;
};

// Issues operations back to back from this thread until `seconds` pass,
// moving the process to the next window of CPUs after every pass. Room
// for `expected_passes` is reserved up front. `between`, when set, runs
// kSetupReps - 1 times at even intervals, between operations and outside
// their timing.
Loop ClosedLoop(Record& r, double seconds, const Op& op, Passes passes,
                size_t expected_passes,
                const std::function<void()>& between = nullptr) {
  Loop loop;
  const size_t ops_per_pass = passes.ops_per_pass;
  const size_t ops_per_part = passes.ops_per_part;
  loop.parts_per_pass = ops_per_pass / ops_per_part;
  loop.part_seconds.reserve(expected_passes * loop.parts_per_pass);
  CpuRotation rotation(r.cpus);
  rotation.Next();
  double part_bytes = 0, part_seconds = 0;
  const double start = Now();
  const double between_every = seconds / kSetupReps;
  int betweens = 0;
  do {
    if (between && betweens < kSetupReps - 1 &&
        Now() - start >= (betweens + 1) * between_every) {
      between();
      ++betweens;
    }
    const uint64_t id = loop.latency.count();
    double bytes = 0;
    const double t0 = Now();
    bool ok;
    {
      Tracer::Scope span(&r.tracer, "op", id);
      ok = op(id, &bytes);
    }
    const double dt = Now() - t0;
    r.CountOp(ok);
    loop.latency.Add(dt);
    part_bytes += bytes;
    part_seconds += dt;
    if (loop.latency.count() % ops_per_part == 0) {
      if (loop.part_bytes.size() < loop.parts_per_pass) {
        loop.part_bytes.push_back(part_bytes);
      }
      loop.part_seconds.push_back(part_seconds);
      part_bytes = part_seconds = 0;
    }
    if (loop.latency.count() % ops_per_pass == 0) rotation.Next();
  } while (Now() - start < seconds || loop.passes() == 0);
  return loop;
}

// Throughput over the quiet runs of each part: for every part of a pass,
// the median time of the kQuietShare of its runs that were fastest; their
// sum is the time of a quiet pass. On a shared host, other tenants slow a
// core by up to half for seconds at a time, and how much of a run they
// cover varies from run to run; a median over all runs flips with it. A
// change to the code moves every run alike, so it moves the quiet ones
// too. An intermittent stall of the code's own hides in the slow runs, so
// the op latencies are taken over every op instead. `share` 1 gives the
// median over all runs.
constexpr double kQuietShare = 0.02;

double QuietMbps(const Loop& loop, double share = kQuietShare) {
  double bytes = 0, seconds = 0;
  for (size_t k = 0; k < loop.parts_per_pass; ++k) {
    std::vector<double> times;
    for (size_t i = k; i < loop.part_seconds.size(); i += loop.parts_per_pass) {
      times.push_back(loop.part_seconds[i]);
    }
    std::sort(times.begin(), times.end());
    times.resize(std::max<size_t>(1, std::lround(share * times.size())));
    bytes += loop.part_bytes[k];
    seconds += Median(times);
  }
  return bytes / 1e6 / seconds;
}

// Passes a loop of `seconds` is expected to make, with headroom, from
// the time of one op.
size_t ExpectedPasses(double seconds, double op_seconds, size_t ops_per_pass) {
  return 2 * static_cast<size_t>(seconds / (op_seconds * ops_per_pass)) + 64;
}

// The untraced run's measurement: one checked warm-up operation, then the
// closed loop for the run's seconds, then the peak resident set of the
// whole run. `rebuild` builds and drops one more product object; its
// builds are spread over the loop, so the median setup time samples the
// whole run, not one moment of it.
void TimedLoop(Record& r, const Op& op, Passes passes, const char* workload,
               const std::function<void()>& rebuild,
               std::vector<double> setup_times) {
  double bytes = 0;
  const double t0 = Now();
  r.Check(op(0, &bytes), "warm-up operation differs from ground truth");
  const size_t expected =
      ExpectedPasses(r.seconds, Now() - t0, passes.ops_per_pass);
  const Loop loop = ClosedLoop(r, r.seconds, op, passes, expected, [&] {
    const double b0 = Now();
    rebuild();
    setup_times.push_back(Now() - b0);
  });
  r.Add("peak_rss_mb", "MiB", PeakRssMb());
  r.Add("setup_s", "s", Median(setup_times));
  const double mbps = QuietMbps(loop);
  // The p99 is printed, not reported: where every op does the same work
  // it measures only the host (see README.md).
  const double p50_us = loop.latency.Percentile(50) * 1e6;
  const double p99_us = loop.latency.Percentile(99) * 1e6;
  CheckThroughput(r, mbps, workload);
  r.Add("mbps", "MB/s", mbps);
  r.Add("op_p50_us", "us", p50_us);
  std::printf("# %s: %zu passes, quiet median %.3f MB/s, all-pass median "
              "%.3f MB/s; op latency over all %llu ops: p50 %.1f us, p99 "
              "%.1f us\n",
              workload, loop.passes(), mbps, QuietMbps(loop, 1),
              static_cast<unsigned long long>(loop.latency.count()), p50_us,
              p99_us);
  if (std::string_view(workload) == "xmlrpc_stream") {
    std::printf("# line rate: %.2f MB/s is %.4f of the paper's %.0f MB/s "
                "Virtex4 design\n",
                mbps, mbps / kPaperLineRateMbps, kPaperLineRateMbps);
  }
}

// The traced run's closed loop: alternating untraced and traced halves,
// whose throughput ratio is the tracing overhead.
void TracedLoops(Record& r, const Op& op, Passes passes) {
  std::vector<double> plain, traced;
  for (int round = 0; round < 2; ++round) {
    r.tracer.set_enabled(false);
    plain.push_back(QuietMbps(ClosedLoop(r, r.seconds / 4, op, passes, 0)));
    r.tracer.set_enabled(true);
    traced.push_back(QuietMbps(ClosedLoop(r, r.seconds / 4, op, passes, 0)));
  }
  const double ratio = Median(traced) / Median(plain);
  CheckThroughput(r, Median(traced), "traced loop");
  r.Add("trace.mbps_ratio", "ratio", ratio);
  std::printf("# tracing overhead: traced %.2f MB/s vs untraced %.2f MB/s\n",
              Median(traced), Median(plain));
}

// ---- Per-layer probes -------------------------------------------------------

// What the probes need from a workload: how its grammar is built from
// text, the tagger inside its product object, the input split into the
// units its entry point takes, and that entry point, checked.
struct Subject {
  std::function<StatusOr<grammar::Grammar>()> grammar;
  const core::CompiledTagger* tagger = nullptr;
  std::vector<std::string_view> units;
  std::function<bool(size_t unit)> entry;

  double bytes() const {
    double n = 0;
    for (std::string_view u : units) n += u.size();
    return n;
  }
};

double TagPass(const core::CompiledTagger& t, const Subject& s,
               TagDigest* digest) {
  const double t0 = Now();
  for (std::string_view u : s.units) t.Tag(u, DigestSink(digest));
  return Now() - t0;
}

// grammar, hwgen and core compile stages, each called directly.
// Returns the last compiled tagger: fresh, never used to tag.
core::CompiledTagger ProbeSetupLayers(Record& r, const Subject& s) {
  const hwgen::HwOptions& options = s.tagger->options();
  std::vector<double> build, analyze, generate, compile;
  std::optional<core::CompiledTagger> fresh;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    Tracer::Scope setup(&r.tracer, "setup", rep);
    double t0 = Now();
    grammar::Grammar g = [&] {
      Tracer::Scope span(&r.tracer, "grammar.build", rep);
      return Must(s.grammar(), "grammar");
    }();
    build.push_back(Now() - t0);
    t0 = Now();
    {
      Tracer::Scope span(&r.tracer, "grammar.analyze", rep);
      Must(grammar::Analyze(g), "Analyze");
    }
    analyze.push_back(Now() - t0);
    t0 = Now();
    {
      Tracer::Scope span(&r.tracer, "hwgen.generate", rep);
      Must(hwgen::TaggerGenerator::Generate(g, options), "Generate");
    }
    generate.push_back(Now() - t0);
    t0 = Now();
    {
      Tracer::Scope span(&r.tracer, "core.compile", rep);
      fresh.reset();
      fresh.emplace(Must(core::CompiledTagger::Compile(std::move(g), options),
                         "Compile"));
    }
    compile.push_back(Now() - t0);
  }
  r.Add("grammar.build_s", "s", Median(build));
  r.Add("grammar.analyze_s", "s", Median(analyze));
  r.Add("hwgen.generate_s", "s", Median(generate));
  r.Add("core.compile_s", "s", Median(compile));
  r.Add("core.software_build_s", "s", Median(compile) - Median(generate));
  return std::move(*fresh);
}

// The calibrated model's Virtex4 rows of Table 1 (bench_table1,
// EXPERIMENTS.md): Fmax in MHz
// and LUT count for the 1-copy and 10-copy XML-RPC grammar.
struct Table1Row {
  int copies;
  double fmax_mhz;
  size_t luts;
};
constexpr Table1Row kTable1[] = {{1, 533.0, 761}, {10, 315.0, 5196}};

// Maps the design onto the Virtex4 model. For the XML-RPC grammars the
// Table 1 row, compiled with default options as bench_table1 does, must
// equal the calibrated model's.
void ProbeRtl(Record& r, const core::CompiledTagger& t, int table1_copies) {
  std::vector<double> times;
  core::ImplementationReport report;
  for (int rep = 0; rep < 3; ++rep) {
    Tracer::Scope span(&r.tracer, "rtl.implement", rep);
    const double t0 = Now();
    report = Must(t.Implement(cfgtag::rtl::Virtex4LX200()), "Implement");
    times.push_back(Now() - t0);
  }
  r.Add("rtl.implement_s", "s", Median(times));
  r.Add("rtl.fmax_mhz", "MHz", report.timing.fmax_mhz);
  r.Add("rtl.luts_per_byte", "LUT/B", report.area.luts_per_byte);
  if (table1_copies == 0) return;
  grammar::Grammar g = Must(xmlrpc::XmlRpcGrammar(), "XmlRpcGrammar");
  if (table1_copies > 1) {
    g = Must(grammar::DuplicateGrammar(g, table1_copies), "DuplicateGrammar");
  }
  const auto table1 = Must(
      Must(core::CompiledTagger::Compile(std::move(g)), "Compile")
          .Implement(cfgtag::rtl::Virtex4LX200()),
      "Implement");
  for (const Table1Row& row : kTable1) {
    if (row.copies != table1_copies) continue;
    r.Check(std::round(table1.timing.fmax_mhz) == row.fmax_mhz &&
                table1.area.luts == row.luts,
            Fmt("Table 1 anchor (%.0f copies): %.3f MHz and %.0f LUTs differ "
                "from the calibrated model",
                row.copies, table1.timing.fmax_mhz,
                static_cast<double>(table1.area.luts)));
    std::printf("# Table 1 anchor, %d cop%s: %.0f MHz, %zu LUTs, %.2f LUTs/B, "
                "%.2f Gbps (calibrated: %.0f MHz, %zu LUTs)\n",
                row.copies, row.copies == 1 ? "y" : "ies",
                table1.timing.fmax_mhz, table1.area.luts,
                table1.area.luts_per_byte, table1.bandwidth_gbps,
                row.fmax_mhz, row.luts);
  }
}

uint64_t SkipBytes(tagger::SkipMetrics::Kind kind) {
  uint64_t n = 0;
  for (int s = 0; s < tagger::kNumSkipStrategies; ++s) {
    n += tagger::SkipMetrics::Get()
             .Of(kind, static_cast<tagger::SkipStrategy>(s))
             ->Value();
  }
  return n;
}

// The tagging engine behind the product's default path.
void ProbeTagger(Record& r, const Subject& s,
                 const core::CompiledTagger& fresh) {
  const core::CompiledTagger& t = *s.tagger;
  const double bytes = s.bytes();

  // Cold start: the first passes of a never-used tagger.
  std::vector<double> cold;
  for (int pass = 0; pass < 3; ++pass) {
    Tracer::Scope span(&r.tracer, "tagger.cold_pass", pass);
    TagDigest d;
    cold.push_back(TagPass(fresh, s, &d));
  }
  r.Add("tagger.cold_over_warm", "ratio", cold[0] / cold[2]);

  // Warm passes, with the skip counters read around them.
  static const char* const kKinds[] = {"delimiter", "anchored", "resync",
                                       "armed"};
  uint64_t skip_before[tagger::SkipMetrics::kNumKinds];
  for (int k = 0; k < tagger::SkipMetrics::kNumKinds; ++k) {
    skip_before[k] = SkipBytes(static_cast<tagger::SkipMetrics::Kind>(k));
  }
  std::vector<double> warm;
  TagDigest d;
  for (int pass = 0; pass < kProbePasses; ++pass) {
    Tracer::Scope span(&r.tracer, "tagger.pass", pass);
    d = TagDigest();
    warm.push_back(TagPass(t, s, &d));
  }
  double skipped = 0;
  for (int k = 0; k < tagger::SkipMetrics::kNumKinds; ++k) {
    const double share =
        (SkipBytes(static_cast<tagger::SkipMetrics::Kind>(k)) -
         skip_before[k]) /
        (bytes * kProbePasses);
    skipped += share;
    r.Fact(std::string("tagger.skip_share.") + kKinds[k], "ratio", share);
  }
  r.Add("tagger.ns_per_byte", "ns/B", Median(warm) / bytes * 1e9);
  r.Fact("tagger.tags_per_kb", "tags/KiB", d.count / (bytes / 1024));
  r.Add("tagger.stepped_share", "ratio", 1.0 - skipped);

  // Deadline and cancellation checks that never trip.
  std::vector<double> controlled;
  const core::resilience::ScanControl inert;
  for (int pass = 0; pass < kProbePasses; ++pass) {
    Tracer::Scope span(&r.tracer, "core.controlled_pass", pass);
    TagDigest c;
    const double t0 = Now();
    for (std::string_view u : s.units) {
      r.Check(t.TagWithControl(u, DigestSink(&c), inert).ok(),
              "TagWithControl with an inert control failed");
    }
    controlled.push_back(Now() - t0);
    r.Check(c == d, "TagWithControl tags differ from Tag");
  }
  r.Add("core.control_ratio", "ratio", Median(controlled) / Median(warm));
  r.Fact("core.control_overhead_pct", "%",
         (Median(controlled) / Median(warm) - 1) * 100);

  if (t.lazy_model() == nullptr) {
    r.Absent("tagger.dfa_hit_ratio", "the default engine has no DFA");
    r.Absent("tagger.dfa_states", "the default engine has no DFA");
  } else {
    // Cumulative over the process, which has tagged only this workload.
    auto& reg = cfgtag::obs::MetricsRegistry::Default();
    const double hits = reg.GetCounter("cfgtag_dfa_cache_hits_total")->Value();
    const double misses =
        reg.GetCounter("cfgtag_dfa_cache_misses_total")->Value();
    if (hits + misses > 0) {
      r.Fact("tagger.dfa_hit_ratio", "ratio", hits / (hits + misses));
    } else {
      r.Absent("tagger.dfa_hit_ratio", "DFA counters need attribution on");
    }
    r.Fact("tagger.dfa_states", "count",
           reg.GetCounter("cfgtag_dfa_cache_states")->Value());
  }

  const StatusOr<std::string> artifact = t.Serialize();
  if (!artifact.ok()) {
    r.Absent("tagger.artifact_load_s",
             "the default engine cannot serialize: " +
                 artifact.status().ToString());
  } else {
    std::vector<double> loads;
    for (int rep = 0; rep < kProbePasses; ++rep) {
      Tracer::Scope span(&r.tracer, "tagger.artifact_load", rep);
      const double t0 = Now();
      const core::CompiledTagger loaded =
          Must(core::CompiledTagger::Deserialize(*artifact), "Deserialize");
      loads.push_back(Now() - t0);
      TagDigest l;
      TagPass(loaded, s, &l);
      r.Check(l == d, "artifact-loaded tagger tags differ");
    }
    r.Fact("tagger.artifact_load_s", "s", Median(loads));
  }
}

// The product entry point against the tagger inside it, unit by unit.
void ProbeEntry(Record& r, const Subject& s) {
  std::vector<double> per_call, entry_passes, tag_passes;
  for (int pass = 0; pass < kProbePasses; ++pass) {
    Tracer::Scope span(&r.tracer, "entry.pass", pass);
    const double t0 = Now();
    for (size_t i = 0; i < s.units.size(); ++i) {
      const double c0 = Now();
      r.Check(s.entry(i), "entry point output differs from ground truth");
      per_call.push_back(Now() - c0);
    }
    entry_passes.push_back(Now() - t0);
    TagDigest d;
    tag_passes.push_back(TagPass(*s.tagger, s, &d));
  }
  r.Add("entry.call_us", "us", Median(per_call) * 1e6);
  r.Add("entry.call_p99_us", "us", Percentile(per_call, 99) * 1e6);
  r.Fact("entry.tag_share", "ratio", Median(tag_passes) / Median(entry_passes));
}

void ProbeLayers(Record& r, const Subject& s, int table1_copies) {
  const core::CompiledTagger fresh = ProbeSetupLayers(r, s);
  ProbeTagger(r, s, fresh);
  ProbeRtl(r, *s.tagger, table1_copies);
  ProbeEntry(r, s);
}

// ---- xmlrpc_stream, xmlrpc_wide_padded --------------------------------------

constexpr size_t kDenseStreamBytes = 256u << 10;
constexpr size_t kPaddedStreamBytes = 128u << 10;

StatusOr<grammar::Grammar> XmlRpcCopies(int copies) {
  auto g = xmlrpc::XmlRpcGrammar();
  if (!g.ok() || copies == 1) return g;
  return grammar::DuplicateGrammar(*g, copies);
}

// Tags a prefix of a few KiB, cut after a message, through the gate-level
// simulation and checks it tag for tag against the software engine and
// against the same tags of the whole-stream pass.
void CheckCycleAccurate(Record& r, const core::CompiledTagger& t,
                        const std::string& text,
                        const std::vector<tagger::Tag>& full) {
  const size_t cut = text.rfind('\n', 4096);
  if (!r.Check(cut != std::string::npos,
               "no message ends in the first 4 KiB")) {
    return;
  }
  const std::string_view prefix(text.data(), cut + 1);
  const std::vector<tagger::Tag> sw = t.Tag(prefix);
  const std::vector<tagger::Tag> hw =
      Must(t.TagCycleAccurate(prefix), "TagCycleAccurate");
  r.Check(sw == hw, Fmt("software and cycle-accurate tags differ on the "
                        "%.0f-byte prefix (%.0f vs %.0f tags)",
                        prefix.size(), sw.size(), hw.size()));
  std::vector<tagger::Tag> head;
  for (const tagger::Tag& tag : full) {
    if (tag.end <= cut) head.push_back(tag);
  }
  std::vector<tagger::Tag> sw_head;
  for (const tagger::Tag& tag : sw) {
    if (tag.end <= cut) sw_head.push_back(tag);
  }
  r.Check(head == sw_head, "prefix tags differ from the whole-stream pass");
}

void RunXmlRpcStream(Record& r, int copies, bool padded, const char* name) {
  auto build = [&] {
    return Must(core::CompiledTagger::Compile(
                    Must(XmlRpcCopies(copies), "grammar"), StreamOptions()),
                "Compile");
  };
  std::vector<double> setup_times;
  const core::CompiledTagger t = Setup(r, build, &setup_times);
  const XmlRpcStream s = MakeXmlRpcStream(
      r.seed, padded, padded ? kPaddedStreamBytes : kDenseStreamBytes);

  // Ground truth: the reference pass, its plausibility band, and the
  // gate-level simulation on a prefix.
  const std::vector<tagger::Tag> full = t.Tag(s.text);
  TagDigest ref;
  for (const tagger::Tag& tag : full) ref.Add(tag);
  const Band band = XmlRpcTagBand(s, copies);
  r.Check(band.Contains(ref.count),
          Fmt("%.0f tags on %.0f messages is outside the band the generator "
              "implies",
              ref.count, s.messages) +
              " " + band.ToString());
  CheckCycleAccurate(r, t, s.text, full);
  std::printf("# %s: %zu bytes, %zu messages, %zu live bytes, %llu tags "
              "(1 per %.2f live bytes), %d grammar cop%s\n",
              name, s.text.size(), s.messages, s.live_bytes,
              static_cast<unsigned long long>(ref.count),
              static_cast<double>(s.live_bytes) / ref.count, copies,
              copies == 1 ? "y" : "ies");

  const Op pass = [&](uint64_t, double* bytes) {
    TagDigest d;
    t.Tag(s.text, DigestSink(&d));
    *bytes = s.text.size();
    return d == ref;
  };
  if (!r.trace) {
    TimedLoop(r, pass, Passes{}, name, build, setup_times);
    return;
  }
  Subject subject;
  subject.grammar = [copies] { return XmlRpcCopies(copies); };
  subject.tagger = &t;
  subject.units = {s.text};
  subject.entry = [&](size_t) {
    double bytes = 0;
    return pass(0, &bytes);
  };
  ProbeLayers(r, subject, copies);
  TracedLoops(r, pass, Passes{});
}

void RunXmlRpcDense(Record& r) {
  RunXmlRpcStream(r, 1, false, "xmlrpc_stream");
}
void RunXmlRpcWidePadded(Record& r) {
  RunXmlRpcStream(r, 10, true, "xmlrpc_wide_padded");
}

// ---- nids_flows -------------------------------------------------------------

constexpr size_t kBatchBytes = 384u << 10;
constexpr int kEngineWorkers = 2;

// Checks one flow's scan result against its planted attacks and the
// grammar's fixed tag count.
bool FlowMatches(const NidsFlows& in, size_t i,
                 const std::vector<nids::Alert>& alerts,
                 const nids::ScanStats& stats) {
  return alerts == in.expected[i] &&
         stats.tokens == in.requests[i] * kNidsTagsPerRequest &&
         stats.bytes == in.flows[i].size();
}

void RunNidsFlows(Record& r) {
  const std::vector<nids::Rule> rules = NidsRules();
  auto build = [&] {
    return Must(nids::ContextFilter::Create(
                    Must(grammar::ParseGrammar(NidsGrammarText()), "grammar"),
                    rules, StreamOptions()),
                "ContextFilter::Create");
  };
  std::vector<double> setup_times;
  const nids::ContextFilter filter = Setup(r, build, &setup_times);
  const NidsFlows in = MakeNidsFlows(rules, r.seed, kBatchBytes);
  std::vector<std::string_view> views(in.flows.begin(), in.flows.end());

  // Ground truth: the sequential scan raises exactly the planted alerts
  // (so decoys raise none) with five tags per request; the ungated
  // baseline also fires on every decoy.
  uint64_t context_alerts = 0, ungated_alerts = 0, spans = 0, tokens = 0;
  size_t bad_flows = 0;
  for (size_t i = 0; i < views.size(); ++i) {
    nids::ScanStats stats;
    const auto alerts = filter.Scan(views[i], &stats);
    bad_flows += !FlowMatches(in, i, alerts, stats);
    context_alerts += alerts.size();
    ungated_alerts += filter.ScanUngated(views[i]).size();
    spans += stats.spans_scanned;
    tokens += stats.tokens;
  }
  r.Check(bad_flows == 0,
          Fmt("%.0f of %.0f flows: sequential Scan differs from the planted "
              "attacks or the tag count",
              bad_flows, views.size()));
  r.Check(context_alerts == in.planted &&
              ungated_alerts >= in.planted + in.decoys,
          Fmt("%.0f context alerts and %.0f ungated alerts for %.0f planted "
              "attacks",
              context_alerts, ungated_alerts, in.planted));
  std::printf("# nids_flows: %zu flows, %llu requests, %llu bytes, %llu "
              "planted attacks, %llu decoys, longest flow %llu requests\n",
              views.size(), static_cast<unsigned long long>(in.total_requests),
              static_cast<unsigned long long>(in.bytes),
              static_cast<unsigned long long>(in.planted),
              static_cast<unsigned long long>(in.decoys),
              static_cast<unsigned long long>(
                  *std::max_element(in.requests.begin(), in.requests.end())));

  nids::ScanEngineOptions engine_options;
  engine_options.num_threads = kEngineWorkers;
  const nids::ScanEngine engine(&filter, engine_options);
  const Op batch = [&](uint64_t, double* bytes) {
    const std::vector<nids::StreamResult> results = engine.ScanBatch(views);
    *bytes = in.bytes;
    bool ok = results.size() == views.size();
    for (size_t i = 0; ok && i < results.size(); ++i) {
      ok = FlowMatches(in, i, results[i].alerts, results[i].stats);
    }
    return ok;
  };
  if (!r.trace) {
    TimedLoop(r, batch, Passes{}, "nids_flows", build, setup_times);
    return;
  }

  Subject subject;
  subject.grammar = [] { return grammar::ParseGrammar(NidsGrammarText()); };
  subject.tagger = &filter.tagger();
  subject.units = views;
  subject.entry = [&](size_t i) {
    nids::ScanStats stats;
    const auto alerts = filter.Scan(views[i], &stats);
    return FlowMatches(in, i, alerts, stats);
  };
  ProbeLayers(r, subject, 0);

  // The back end: sequential scans against the tagger alone, the
  // context-free and ungated passes, and the engine fan-out.
  std::vector<double> scan_s, tag_s, cf_s, ungated_s, batch_s;
  double slowest = 0;
  for (int pass = 0; pass < kProbePasses; ++pass) {
    Tracer::Scope span(&r.tracer, "nids.passes", pass);
    double t0 = Now();
    for (size_t i = 0; i < views.size(); ++i) {
      const double f0 = Now();
      filter.Scan(views[i]);
      slowest = std::max(slowest, Now() - f0);
    }
    scan_s.push_back(Now() - t0);
    TagDigest d;
    tag_s.push_back(TagPass(filter.tagger(), subject, &d));
    t0 = Now();
    for (std::string_view v : views) filter.ScanContextFree(v);
    cf_s.push_back(Now() - t0);
    t0 = Now();
    for (std::string_view v : views) filter.ScanUngated(v);
    ungated_s.push_back(Now() - t0);
    t0 = Now();
    engine.ScanBatch(views);
    batch_s.push_back(Now() - t0);
  }
  const double scan = Median(scan_s);
  r.Fact("nids.scan_s", "s", scan);
  r.Fact("nids.tag_s", "s", Median(tag_s));
  r.Fact("nids.backend_s", "s", scan - Median(tag_s));
  r.Fact("nids.context_free_s", "s", Median(cf_s));
  r.Fact("nids.ungated_s", "s", Median(ungated_s));
  r.Fact("nids.spans_per_token", "ratio",
         static_cast<double>(spans) / tokens);
  r.Fact("nids.alerts", "count", context_alerts);
  r.Fact("nids.fp_suppressed", "count", ungated_alerts - context_alerts);
  r.Fact("nids.engine_efficiency", "ratio",
         scan / (kEngineWorkers * Median(batch_s)));
  r.Fact("nids.slowest_flow_share", "ratio",
         slowest / (scan / kEngineWorkers));
  TracedLoops(r, batch, Passes{});
}

// ---- router_messages --------------------------------------------------------

constexpr size_t kRouterMessages = 4096;
constexpr size_t kRoutesPerPart = 256;

void RunRouterMessages(Record& r) {
  const xmlrpc::RouterConfig config = RouterServices();
  auto build = [&] {
    return Must(xmlrpc::XmlRpcRouter::Create(config), "XmlRpcRouter::Create");
  };
  std::vector<double> setup_times;
  const xmlrpc::XmlRpcRouter router = Setup(r, build, &setup_times);
  const RouterMessages in = MakeRouterMessages(config, r.seed, kRouterMessages);

  // Ground truth: every message routes to its method's port (unknown and
  // suffixed names to the default), adversarial payloads included, with a
  // plausible tag count.
  size_t misrouted = 0, implausible = 0;
  for (size_t i = 0; i < in.messages.size(); ++i) {
    misrouted += router.Route(in.messages[i]) != in.expected_port[i];
    const double tags = router.tagger().Tag(in.messages[i]).size();
    const Band band{7, 2.0 * in.messages[i].size()};
    implausible += !band.Contains(tags);
  }
  r.Check(misrouted == 0, Fmt("%.0f of %.0f messages misrouted", misrouted,
                              in.messages.size()));
  r.Check(implausible == 0,
          Fmt("%.0f messages tag outside the band the generator implies",
              implausible));
  double bytes = 0;
  for (const std::string& m : in.messages) bytes += m.size();
  std::printf("# router_messages: %zu messages, %.0f bytes, %zu adversarial, "
              "%zu to unknown methods\n",
              in.messages.size(), bytes, in.adversarial, in.unknown);

  const Op route = [&](uint64_t id, double* bytes_out) {
    const size_t i = id % in.messages.size();
    *bytes_out = in.messages[i].size();
    return router.Route(in.messages[i]) == in.expected_port[i];
  };
  const Passes passes{in.messages.size(), kRoutesPerPart};
  if (!r.trace) {
    TimedLoop(r, route, passes, "router_messages", build, setup_times);
    return;
  }

  Subject subject;
  subject.grammar = [&] {
    std::vector<std::string> names;
    for (const auto& s : config.services) names.push_back(s.name);
    return xmlrpc::XmlRpcRouterGrammar(names);
  };
  subject.tagger = &router.tagger();
  subject.units.assign(in.messages.begin(), in.messages.end());
  subject.entry = [&](size_t i) {
    return router.Route(in.messages[i]) == in.expected_port[i];
  };
  ProbeLayers(r, subject, 0);

  // Route split into its tagger call and the routing decision, and the
  // floor: Route on the shortest valid message.
  std::vector<double> tag_us, decide_us, floor_us;
  for (size_t i = 0; i < in.messages.size(); ++i) {
    Tracer::Scope span(&r.tracer, "xmlrpc.route_parts", i);
    double t0 = Now();
    const std::vector<tagger::Tag> tags = router.tagger().Tag(in.messages[i]);
    tag_us.push_back((Now() - t0) * 1e6);
    t0 = Now();
    const int port = router.RouteTags(tags);
    decide_us.push_back((Now() - t0) * 1e6);
    r.Check(port == in.expected_port[i], "RouteTags misrouted");
  }
  for (int rep = 0; rep < 1000; ++rep) {
    const double t0 = Now();
    router.Route(in.messages[in.shortest]);
    floor_us.push_back((Now() - t0) * 1e6);
  }
  r.Fact("xmlrpc.tag_us", "us", Median(tag_us));
  r.Fact("xmlrpc.decide_us", "us", Median(decide_us));
  r.Fact("xmlrpc.floor_us", "us", Median(floor_us));
  TracedLoops(r, route, passes);
}

}  // namespace

const std::vector<Workload>& Workloads() {
  // BENCHMARK.json and README.md give each workload's rationale.
  static const std::vector<Workload> kWorkloads = {
      {"xmlrpc_stream", 1, RunXmlRpcDense},
      {"xmlrpc_wide_padded", 1, RunXmlRpcWidePadded},
      {"nids_flows", kEngineWorkers, RunNidsFlows},
      {"router_messages", 1, RunRouterMessages},
  };
  return kWorkloads;
}

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"setup_s", "s"},
      {"mbps", "MB/s"},
      {"peak_rss_mb", "MiB"},
      {"op_p50_us", "us"},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"grammar.build_s", "s"},
      {"grammar.analyze_s", "s"},
      {"hwgen.generate_s", "s"},
      {"core.compile_s", "s"},
      {"core.software_build_s", "s"},
      {"core.setup_rss_mb", "MiB"},
      {"core.control_ratio", "ratio"},
      {"tagger.ns_per_byte", "ns/B"},
      {"tagger.cold_over_warm", "ratio"},
      {"tagger.stepped_share", "ratio"},
      {"rtl.implement_s", "s"},
      {"rtl.fmax_mhz", "MHz"},
      {"rtl.luts_per_byte", "LUT/B"},
      {"entry.call_us", "us"},
      {"entry.call_p99_us", "us"},
      {"trace.mbps_ratio", "ratio"},
  };
  return kMetrics;
}

}  // namespace perfbench
