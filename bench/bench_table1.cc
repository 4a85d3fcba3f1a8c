// Regenerates paper Table 1: device utilization for XML token taggers of
// varying sizes. Grammar sizes are produced by duplicating the XML-RPC
// grammar (the paper's methodology); frequency and LUT counts come from the
// library's technology mapper and calibrated device timing models.
//
// Compare the Measured columns against the Paper columns: absolute LUT
// counts are expected to run ~2x the paper's (our generated design carries
// the longest-match look-ahead, arm-hold registers and the index encoder
// explicitly); the trends — BW falling with size, LUTs/Byte falling with
// size — and the calibrated anchor frequencies must reproduce.

#include <cstdio>

#include "bench/bench_util.h"
#include "rtl/device.h"

namespace cfgtag::bench {
namespace {

struct PaperRow {
  const char* device;
  int copies;
  double freq_mhz;
  double bw_gbps;
  int bytes;
  int luts;
  double luts_per_byte;
};

// Table 1 of the paper, verbatim.
constexpr PaperRow kPaperRows[] = {
    {"VirtexE 2000", 1, 196, 1.57, 300, 310, 1.03},
    {"Virtex4 LX200", 1, 533, 4.26, 300, 302, 1.01},
    {"Virtex4 LX200", 2, 497, 3.97, 600, 526, 0.88},
    {"Virtex4 LX200", 4, 445, 3.56, 1200, 975, 0.81},
    {"Virtex4 LX200", 7, 318, 2.54, 2100, 1652, 0.79},
    {"Virtex4 LX200", 10, 316, 2.53, 3000, 2316, 0.77},
};

void Run() {
  std::printf(
      "Table 1: device utilization for XML token taggers of varying sizes\n"
      "(grammar scaled by duplicating the XML-RPC grammar, as in the "
      "paper)\n\n");
  std::printf(
      "%-14s %6s | %9s %8s %7s %7s %9s | %9s %8s %7s %9s\n", "Device",
      "Copies", "Freq", "BW", "Bytes", "LUTs", "LUTs/B", "Freq", "BW",
      "LUTs", "LUTs/B");
  std::printf("%-14s %6s | %9s %8s %7s %7s %9s | %9s %8s %7s %9s\n", "", "",
              "(MHz)", "(Gbps)", "", "", "", "(MHz)", "(Gbps)", "", "");
  std::printf("%-21s | %44s | %36s\n", "", "----------- measured -----------",
              "------- paper -------");

  for (const PaperRow& row : kPaperRows) {
    const rtl::Device device = row.device == std::string("VirtexE 2000")
                                   ? rtl::VirtexE2000()
                                   : rtl::Virtex4LX200();
    core::HardwareDesign design = DesignXmlRpc(row.copies);
    auto report = ValueOrDie(design.Implement(device), "Implement");
    std::printf(
        "%-14s %6d | %9.0f %8.2f %7zu %7zu %9.2f | %9.0f %8.2f %7d %9.2f\n",
        row.device, row.copies, report.timing.fmax_mhz,
        report.bandwidth_gbps, report.area.pattern_bytes, report.area.luts,
        report.area.luts_per_byte, row.freq_mhz, row.bw_gbps, row.luts,
        row.luts_per_byte);
  }

  // §4.3 timing analysis: the critical path of the large design must be
  // routing delay on a decoded-character net approaching 2 ns.
  core::HardwareDesign big = DesignXmlRpc(10);
  auto report = ValueOrDie(big.Implement(rtl::Virtex4LX200()), "Implement");
  std::printf(
      "\nCritical path of the 3000-byte design (paper: \"entirely routing "
      "delay\nassociated with the large fanout of the decoded character "
      "bits ... just\nunder 2 ns\"):\n  %s\n",
      report.timing.ToString().c_str());

  // Module breakdown: shows why LUTs/Byte falls with grammar size — the
  // decoder (and encoder) amortize while tokenizer logic grows linearly.
  std::printf("\nLUT breakdown by module (decoder amortization):\n");
  std::printf("  %-10s | %10s %10s\n", "module", "300 B", "3000 B");
  core::HardwareDesign small = DesignXmlRpc(1);
  auto small_report =
      ValueOrDie(small.Implement(rtl::Virtex4LX200()), "Implement");
  for (const rtl::AreaBucket& bucket : small_report.area.breakdown) {
    size_t big_luts = 0;
    for (const rtl::AreaBucket& b : report.area.breakdown) {
      if (b.scope == bucket.scope) big_luts = b.luts;
    }
    std::printf("  %-10s | %10zu %10zu\n",
                bucket.scope.empty() ? "(misc)" : bucket.scope.c_str(),
                bucket.luts, big_luts);
  }
}

}  // namespace
}  // namespace cfgtag::bench

int main() {
  cfgtag::bench::Run();
  return 0;
}
