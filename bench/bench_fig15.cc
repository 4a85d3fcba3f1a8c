// Regenerates paper Figure 15: frequency versus the number of pattern
// bytes in the grammar on the Virtex 4 LX200, annotated with LUTs/byte at
// each point (the figure's data labels). We sweep the duplication factor
// over a finer grid than the paper's five points and print the series plus
// the paper's reference points for comparison.

#include <cstdio>

#include "bench/bench_util.h"
#include "rtl/device.h"

namespace cfgtag::bench {
namespace {

void Run() {
  std::printf(
      "Figure 15: frequency vs. number of pattern bytes (Virtex4 LX200)\n\n");
  std::printf("%8s %8s %10s %9s %9s   %s\n", "Copies", "Bytes", "Freq(MHz)",
              "LUTs/Byte", "MaxFanout", "bar");

  const rtl::Device device = rtl::Virtex4LX200();
  for (int copies : {1, 2, 3, 4, 5, 6, 7, 8, 9, 10}) {
    core::HardwareDesign design = DesignXmlRpc(copies);
    auto report = ValueOrDie(design.Implement(device), "Implement");
    std::string bar(static_cast<size_t>(report.timing.fmax_mhz / 10.0), '#');
    std::printf("%8d %8zu %10.0f %9.2f %9u   %s\n", copies,
                report.area.pattern_bytes, report.timing.fmax_mhz,
                report.area.luts_per_byte, report.timing.worst_net_fanout,
                bar.c_str());
  }

  std::printf(
      "\nPaper reference points: (300 B, 533 MHz, 1.01 L/B) (600, 497, "
      "0.88)\n(1200, 445, 0.81) (2100, 318, 0.79) (3000, 316, 0.77)\n");
  std::printf(
      "\nExpected shape: frequency decreases monotonically because the\n"
      "decoded-character fanout (MaxFanout column) grows linearly with\n"
      "pattern bytes while routing delay grows with its square root; \n"
      "LUTs/Byte falls as decoder and encoder logic amortize.\n");
}

}  // namespace
}  // namespace cfgtag::bench

int main() {
  cfgtag::bench::Run();
  return 0;
}
