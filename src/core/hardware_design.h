#ifndef CFGTAG_CORE_HARDWARE_DESIGN_H_
#define CFGTAG_CORE_HARDWARE_DESIGN_H_

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "grammar/grammar.h"
#include "hwgen/tagger_gen.h"
#include "rtl/device.h"
#include "rtl/techmap.h"
#include "rtl/timing.h"
#include "tagger/tag.h"

namespace cfgtag::core {

// Area of an implementation, in the units of the paper's Table 1.
struct AreaReport {
  size_t luts = 0;
  size_t ffs = 0;
  size_t pattern_bytes = 0;
  double luts_per_byte = 0.0;
  // Per-module attribution (decoder / tokenizer / syntax / encoder) — the
  // breakdown behind the paper's "as the size of the grammar increases ...
  // the number of LUTs per byte decreases" amortization argument.
  std::vector<rtl::AreaBucket> breakdown;
};

// One Table 1 row: what the vendor flow would report for a device.
struct ImplementationReport {
  std::string device;
  AreaReport area;
  rtl::TimingReport timing;
  // Fmax x bytes-per-cycle x 8 bits.
  double bandwidth_gbps = 0.0;
};

// The hardware half of a grammar: the gate-level netlist of the paper's
// generated tagger (§3.1–3.4), built once by Create, and everything that
// reads it — area and timing reports, VHDL, a testbench, waveforms and the
// cycle-accurate simulation. The software tagger, CompiledTagger, is a
// separate object built from the same grammar; the two tag identically
// (the equivalence tests enforce it), and a binary that only tags links
// none of this. Immutable after Create, so every method is thread-safe.
class HardwareDesign {
 public:
  // Generates the netlist. Fails with the generator's error for invalid
  // hardware options (e.g. bytes_per_cycle 3).
  static StatusOr<HardwareDesign> Create(const grammar::Grammar& grammar,
                                         const hwgen::HwOptions& options = {});

  const hwgen::GeneratedTagger& generated() const { return generated_; }

  // Cycle-accurate tagging: simulates the netlist gate by gate and decodes
  // the per-token match registers. The input is followed by the same
  // flush padding CompiledTagger::Tag feeds, so the tags are
  // bit-identical to Tag()'s, at orders of magnitude lower speed.
  StatusOr<std::vector<tagger::Tag>> TagCycleAccurate(
      std::string_view input) const;

  // Cycle-accurate tagging through the §3.4 index-encoder bus instead of
  // the per-token match bits. Valid when at most one token matches per
  // cycle (or priorities per eq. 5 are in force). The bus exists only on
  // single-lane designs generated with emit_index_encoder; any other
  // design fails with FailedPrecondition.
  StatusOr<std::vector<tagger::Tag>> TagViaIndexBus(
      std::string_view input) const;

  // Maps the netlist onto `device` and runs timing analysis. With
  // `optimize` set, a synthesis-style cleanup pass (CSE, constant folding,
  // dead-logic removal) runs first; the default reports the raw generated
  // structure, which is what the Table 1 calibration assumes.
  StatusOr<ImplementationReport> Implement(const rtl::Device& device,
                                           bool optimize = false) const;

  // Structural VHDL for the design (the paper generator's output artifact).
  StatusOr<std::string> ExportVhdl(const std::string& entity_name) const;

  // Emits a self-checking VHDL testbench that feeds `input` into the
  // exported design (ExportVhdl with the same entity name) and asserts the
  // match outputs of `expected`, the tags of `input` — typically
  // CompiledTagger::Tag's, an oracle independent of the netlist. This is
  // the hand-off artifact for users verifying the VHDL in a real simulator
  // (GHDL etc.).
  StatusOr<std::string> ExportVhdlTestbench(
      const std::string& entity_name, std::string_view input,
      const std::vector<tagger::Tag>& expected) const;

  // Debug aid: simulates `input` through the netlist while dumping a VCD
  // waveform of the input byte, every match register and the index bus to
  // `os`. View with any VCD viewer (gtkwave etc.).
  Status DumpWaveform(std::string_view input, std::ostream& os) const;

 private:
  HardwareDesign(hwgen::GeneratedTagger generated,
                 std::vector<std::string> token_names)
      : generated_(std::move(generated)),
        token_names_(std::move(token_names)) {}

  hwgen::GeneratedTagger generated_;
  // By token id: the waveform's match signal names.
  std::vector<std::string> token_names_;
};

}  // namespace cfgtag::core

#endif  // CFGTAG_CORE_HARDWARE_DESIGN_H_
