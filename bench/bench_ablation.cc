// Ablations of the design choices the paper calls out:
//
//   1. §3.4  pipelined OR-tree index encoder vs. the naive single-stage
//            encoder ("almost always the critical path ... in a naive
//            implementation").
//   2. Fig.7 longest-match look-ahead on/off (area cost and tag noise).
//   3. §5.2  decoder replication / fan-out balancing — the paper's proposed
//            fix for the routing-delay wall, implemented and measured.

#include <cstdio>

#include "bench/bench_util.h"
#include "rtl/device.h"
#include "xmlrpc/message_gen.h"

namespace cfgtag::bench {
namespace {

void EncoderAblation() {
  std::printf(
      "Ablation 1: index encoder structure (Virtex4 LX200)\n\n"
      "%8s %8s | %10s %9s | %10s %9s\n",
      "Copies", "Tokens", "pipe MHz", "pipe lat", "naive MHz", "naive lat");
  for (int copies : {1, 4, 10}) {
    hwgen::HwOptions pipelined;
    hwgen::HwOptions naive;
    naive.pipelined_encoder = false;

    core::CompiledTagger a = CompileXmlRpc(copies, pipelined);
    core::CompiledTagger b = CompileXmlRpc(copies, naive);
    auto ra = ValueOrDie(a.Implement(rtl::Virtex4LX200()), "implement");
    auto rb = ValueOrDie(b.Implement(rtl::Virtex4LX200()), "implement");
    std::printf("%8d %8zu | %10.0f %9d | %10.0f %9d\n", copies,
                a.grammar().NumTokens(), ra.timing.fmax_mhz,
                a.hardware().value()->index_latency, rb.timing.fmax_mhz,
                b.hardware().value()->index_latency);
  }
  std::printf(
      "\nExpected shape (paper §3.4: a CASE-statement encoder \"is almost\n"
      "always the critical path of the entire system\"): the naive priority\n"
      "chain's linear depth crushes Fmax as the token count grows; the\n"
      "pipelined OR tree holds Fmax at the routing-limited value and pays\n"
      "ceil(log2 N) cycles of latency.\n\n");
}

void LongestMatchAblation() {
  std::printf("Ablation 2: Fig. 7 longest-match look-ahead\n\n");
  xmlrpc::MessageGenerator gen({}, 17);
  const std::string msg = gen.GenerateStream(20);

  hwgen::HwOptions on;
  hwgen::HwOptions off;
  off.tagger.longest_match = false;

  core::CompiledTagger with = CompileXmlRpc(1, on);
  core::CompiledTagger without = CompileXmlRpc(1, off);
  auto r_with = ValueOrDie(with.Implement(rtl::Virtex4LX200()), "implement");
  auto r_without =
      ValueOrDie(without.Implement(rtl::Virtex4LX200()), "implement");

  std::printf("%22s | %10s %10s\n", "", "look-ahead", "disabled");
  std::printf("%22s | %10zu %10zu\n", "LUTs", r_with.area.luts,
              r_without.area.luts);
  std::printf("%22s | %10zu %10zu\n", "tags on 20 messages",
              with.Tag(msg).size(), without.Tag(msg).size());
  std::printf(
      "\nExpected shape: without the look-ahead every cycle of a +/* run\n"
      "asserts a detection (paper: \"the logic would indicate detection at\n"
      "every cycle\"), inflating the tag stream; the look-ahead costs a\n"
      "modest number of LUTs.\n\n");
}

void ReplicationAblation() {
  std::printf(
      "Ablation 3: decoder replication / fanout balancing (paper "
      "§5.2,\n3000-byte grammar, Virtex4 LX200)\n\n");
  std::printf("%12s | %10s %10s %9s %9s\n", "threshold", "Fmax(MHz)",
              "maxfanout", "LUTs", "FFs");

  for (uint32_t threshold : {0u, 256u, 128u, 64u, 32u}) {
    hwgen::HwOptions opt;
    opt.decoder_replication = threshold != 0;
    opt.replication_threshold = threshold == 0 ? 1 : threshold;
    core::CompiledTagger tagger = CompileXmlRpc(10, opt);
    auto report = ValueOrDie(tagger.Implement(rtl::Virtex4LX200()),
                             "implement");
    const std::string label =
        threshold == 0 ? "off" : std::to_string(threshold);
    std::printf("%12s | %10.0f %10u %9zu %9zu\n", label.c_str(),
                report.timing.fmax_mhz, report.timing.worst_net_fanout,
                report.area.luts, report.area.ffs);
  }
  std::printf(
      "\nExpected shape: tighter thresholds bound the decoded-bit fanout\n"
      "and recover clock frequency at the cost of replica registers —\n"
      "the §5.2 future-work trade-off, quantified.\n");
}

void SynthesisOptimizationAblation() {
  std::printf(
      "\nAblation 5: synthesis cleanup (CSE + constant folding + dead-logic\n"
      "removal) before mapping, Virtex4 LX200. The Table 1 calibration uses\n"
      "the raw generated structure; this shows what a synthesis front end\n"
      "recovers.\n\n");
  std::printf("%8s | %9s %9s %8s | %10s %10s\n", "Copies", "raw LUT",
              "opt LUT", "saved", "raw MHz", "opt MHz");
  for (int copies : {1, 4, 10}) {
    core::CompiledTagger tagger = CompileXmlRpc(copies);
    auto raw = ValueOrDie(tagger.Implement(rtl::Virtex4LX200(), false),
                          "implement");
    auto opt = ValueOrDie(tagger.Implement(rtl::Virtex4LX200(), true),
                          "implement");
    std::printf("%8d | %9zu %9zu %7.1f%% | %10.0f %10.0f\n", copies,
                raw.area.luts, opt.area.luts,
                100.0 * (raw.area.luts - opt.area.luts) /
                    static_cast<double>(raw.area.luts),
                raw.timing.fmax_mhz, opt.timing.fmax_mhz);
  }
  std::printf(
      "\nExpected shape: CSE saves area but *lowers* Fmax — shared gates\n"
      "concentrate fan-out on fewer nets, the very effect the paper's §5.2\n"
      "replication idea works against. The generator intentionally leaves\n"
      "duplication in place (speed over area), like the paper's design.\n");
}

void MultiByteAblation() {
  std::printf(
      "\nAblation 4: bytes per clock cycle (paper §5.2 \"scaling the design "
      "to\nprocess 32-bits or 64-bits per clock cycle\", XML-RPC grammar,\n"
      "Virtex4 LX200)\n\n");
  std::printf("%8s | %10s %10s %9s %9s\n", "bytes/clk", "Fmax(MHz)",
              "BW(Gbps)", "LUTs", "FFs");
  for (int w : {1, 2, 4}) {
    hwgen::HwOptions opt;
    opt.bytes_per_cycle = w;
    core::CompiledTagger tagger = CompileXmlRpc(1, opt);
    auto report = ValueOrDie(tagger.Implement(rtl::Virtex4LX200()),
                             "implement");
    std::printf("%8d | %10.0f %10.2f %9zu %9zu\n", w, report.timing.fmax_mhz,
                report.bandwidth_gbps, report.area.luts, report.area.ffs);
  }
  std::printf(
      "\nExpected shape: the W-deep combinational transition ladder costs\n"
      "clock frequency and area, but net bandwidth still rises — the\n"
      "trade-off the paper anticipated for its future multi-byte design.\n");
}

}  // namespace
}  // namespace cfgtag::bench

int main() {
  cfgtag::bench::EncoderAblation();
  cfgtag::bench::LongestMatchAblation();
  cfgtag::bench::ReplicationAblation();
  cfgtag::bench::MultiByteAblation();
  cfgtag::bench::SynthesisOptimizationAblation();
  return 0;
}
