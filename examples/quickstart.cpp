// Quickstart: compile the paper's if-then-else grammar (Fig. 9) into a
// software token tagger and generate its hardware design, tag a sentence
// three ways (fast software model, cycle-accurate gate-level simulation,
// index-encoder bus), and print the implementation report for the paper's
// FPGA devices.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "core/hardware_design.h"
#include "core/token_tagger.h"
#include "grammar/analysis.h"
#include "grammar/grammar_parser.h"
#include "rtl/device.h"

int main() {
  using namespace cfgtag;

  // 1. A grammar in the Yacc-style input format (paper Fig. 9/14).
  const char* grammar_text = R"grm(
%%
stmt: "if" cond "then" stmt "else" stmt | "go" | "stop";
cond: "true" | "false";
%%
)grm";
  auto grammar = grammar::ParseGrammar(grammar_text);
  if (!grammar.ok()) {
    std::fprintf(stderr, "grammar error: %s\n",
                 grammar.status().ToString().c_str());
    return 1;
  }

  // 2. Peek at the analysis driving the hardware wiring: the Fig. 10
  // Follow sets.
  auto analysis = grammar::Analyze(*grammar);
  std::printf("--- First/Follow analysis (paper Fig. 10) ---\n%s\n",
              analysis->ToString(*grammar).c_str());

  // 3. Two halves from one grammar: the hardware design (the gate-level
  // netlist of the paper's architecture) and the fast software tagger.
  auto design = core::HardwareDesign::Create(*grammar);
  if (!design.ok()) {
    std::fprintf(stderr, "hwgen error: %s\n",
                 design.status().ToString().c_str());
    return 1;
  }
  auto tagger = core::CompiledTagger::Compile(std::move(grammar).value());
  if (!tagger.ok()) {
    std::fprintf(stderr, "compile error: %s\n",
                 tagger.status().ToString().c_str());
    return 1;
  }

  // 4. Tag a sentence with the software tagger.
  const std::string input = "if true then go else stop";
  std::printf("--- tagging: \"%s\" ---\n", input.c_str());
  for (const tagger::Tag& t : tagger->Tag(input)) {
    std::printf("  byte %2llu: token %-8s\n",
                static_cast<unsigned long long>(t.end),
                tagger->grammar().tokens()[t.token].name.c_str());
  }

  // 5. The same tags, but from the cycle-accurate netlist simulation.
  auto hw_tags = design->TagCycleAccurate(input);
  auto bus_tags = design->TagViaIndexBus(input);
  std::printf(
      "\ncycle-accurate simulation: %zu tags (%s the software tagger)\n",
      hw_tags->size(),
      *hw_tags == tagger->Tag(input) ? "identical to" : "DIFFERS FROM");
  std::printf("index-encoder bus:         %zu tags\n", bus_tags->size());

  // 6. Area and timing on the paper's devices.
  for (const rtl::Device& device :
       {rtl::VirtexE2000(), rtl::Virtex4LX200()}) {
    auto report = design->Implement(device);
    std::printf(
        "\n%s: %zu LUTs, %zu FFs, %.0f MHz, %.2f Gbps\n  %s\n",
        device.name.c_str(), report->area.luts, report->area.ffs,
        report->timing.fmax_mhz, report->bandwidth_gbps,
        report->timing.ToString().c_str());
  }

  // 7. Export the design as VHDL (the paper generator's artifact).
  auto vhdl = design->ExportVhdl("ifthenelse_tagger");
  std::printf("\nVHDL export: %zu bytes (entity ifthenelse_tagger)\n",
              vhdl->size());
  return 0;
}
