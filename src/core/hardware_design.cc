#include "core/hardware_design.h"

#include <algorithm>
#include <cctype>
#include <ostream>
#include <utility>

#include "core/token_tagger.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rtl/optimize.h"
#include "rtl/simulator.h"
#include "rtl/vcd_writer.h"
#include "rtl/vhdl_emitter.h"
#include "rtl/vhdl_testbench.h"

namespace cfgtag::core {

namespace {

// The simulations feed the flush padding the software engine feeds.
constexpr size_t kFlushPadding = CompiledTagger::kFlushPadding;
constexpr char kFlushByte = CompiledTagger::kFlushByte;

std::string Padded(std::string_view input, size_t pad) {
  std::string s(input);
  s.append(pad, kFlushByte);
  return s;
}

obs::Histogram* StageHistogram(const char* stage) {
  return obs::MetricsRegistry::Default().GetHistogram(
      std::string("cfgtag_compile_stage_seconds{stage=\"") + stage + "\"}",
      "Wall time of one compile-pipeline stage");
}

}  // namespace

StatusOr<HardwareDesign> HardwareDesign::Create(
    const grammar::Grammar& grammar, const hwgen::HwOptions& options) {
  obs::ScopedSpan stage("hwgen.Generate");
  obs::ScopedTimer stage_timer(StageHistogram("hwgen"));
  auto generated = hwgen::TaggerGenerator::Generate(grammar, options);
  if (!generated.ok()) return generated.status().WithContext("hwgen");
  const rtl::Netlist::Stats stats = generated->netlist.ComputeStats();
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  reg.GetGauge("cfgtag_compile_gates", "Gates in the last generated netlist")
      ->Set(static_cast<double>(stats.num_gates));
  reg.GetGauge("cfgtag_compile_regs",
               "Registers in the last generated netlist")
      ->Set(static_cast<double>(stats.num_regs));
  reg.GetGauge("cfgtag_compile_pattern_bytes",
               "Pattern bytes (Glushkov positions) of the last generated "
               "netlist")
      ->Set(static_cast<double>(generated->pattern_bytes));
  std::vector<std::string> token_names;
  for (const grammar::TokenDef& def : grammar.tokens()) {
    token_names.push_back(def.name);
  }
  return HardwareDesign(std::move(generated).value(), std::move(token_names));
}

StatusOr<std::vector<tagger::Tag>> HardwareDesign::TagCycleAccurate(
    std::string_view input) const {
  const hwgen::GeneratedTagger& hw = generated_;
  obs::ScopedSpan span("core.TagCycleAccurate");
  CFGTAG_ASSIGN_OR_RETURN(auto sim, rtl::Simulator::Create(&hw.netlist));
  sim.EnableActivityStats(true);
  const std::string padded = Padded(input, kFlushPadding + 1);
  const size_t scan_end = input.size() + kFlushPadding;
  const size_t lanes = static_cast<size_t>(hw.lanes);
  const size_t num_tokens = hw.num_tokens;
  const auto& lane_latency = hw.lane_match_latency;

  int max_latency = 0;
  for (int lat : lane_latency) max_latency = std::max(max_latency, lat);
  const size_t last_cycle = (scan_end - 1) / lanes;
  const size_t total_steps =
      last_cycle + static_cast<size_t>(max_latency) + 1;

  std::vector<tagger::Tag> tags;
  for (size_t step = 0; step < total_steps; ++step) {
    // Feed lanes: lane k carries stream offset step*lanes + k; beyond the
    // padded input we keep feeding flush bytes.
    for (size_t k = 0; k < lanes; ++k) {
      const size_t offset = step * lanes + k;
      const unsigned char byte =
          offset < padded.size() ? static_cast<unsigned char>(padded[offset])
                                 : static_cast<unsigned char>(kFlushByte);
      for (size_t b = 0; b < 8; ++b) {
        sim.SetInput(hw.data_in[k * 8 + b], (byte >> b) & 1);
      }
    }
    sim.Step();
    for (size_t k = 0; k < lanes; ++k) {
      const size_t lat = static_cast<size_t>(lane_latency[k]);
      if (step < lat) continue;
      const size_t offset = (step - lat) * lanes + k;
      if (offset >= scan_end) continue;
      for (size_t t = 0; t < num_tokens; ++t) {
        if (sim.Get(hw.match_regs[k * num_tokens + t])) {
          tagger::Tag tag;
          tag.token = static_cast<int32_t>(t);
          tag.end = offset;
          tags.push_back(tag);
        }
      }
    }
  }
  // Per-lane readout order can interleave ends across lanes; normalize to
  // stream order (stable for equal ends: token order is preserved within a
  // lane readout).
  std::stable_sort(tags.begin(), tags.end(),
                   [](const tagger::Tag& a, const tagger::Tag& b) {
                     return a.end < b.end;
                   });
  // Export the run's switching activity — the software analogue of an FPGA
  // activity estimate, and the denominator for toggle-rate trends.
  const rtl::ActivityStats& activity = sim.activity();
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  reg.GetCounter("cfgtag_sim_cycles_total",
                 "Clock cycles simulated by TagCycleAccurate")
      ->Increment(activity.cycles);
  reg.GetCounter("cfgtag_sim_reg_toggles_total",
                 "Register toggles observed by TagCycleAccurate")
      ->Increment(activity.reg_toggles);
  reg.GetCounter("cfgtag_sim_gated_samples_total",
                 "Register-cycles held by a low clock-enable")
      ->Increment(activity.gated_samples);
  return tags;
}

StatusOr<std::vector<tagger::Tag>> HardwareDesign::TagViaIndexBus(
    std::string_view input) const {
  const hwgen::GeneratedTagger& hw = generated_;
  if (hw.lanes != 1) {
    return FailedPreconditionError(
        "the index bus exists only on single-lane designs; this one has " +
        std::to_string(hw.lanes) + " lanes");
  }
  if (hw.index_valid == rtl::kInvalidNode) {
    return FailedPreconditionError(
        "design was generated without the index encoder");
  }
  CFGTAG_ASSIGN_OR_RETURN(auto sim, rtl::Simulator::Create(&hw.netlist));
  const std::string padded = Padded(input, kFlushPadding + 1);
  const size_t scan_end = input.size() + kFlushPadding;
  const int latency = hw.index_latency;
  const size_t total_steps = scan_end + static_cast<size_t>(latency);

  std::vector<tagger::Tag> tags;
  for (size_t step = 0; step < total_steps; ++step) {
    const unsigned char byte =
        step < padded.size() ? static_cast<unsigned char>(padded[step])
                             : static_cast<unsigned char>(kFlushByte);
    for (int b = 0; b < 8; ++b) {
      sim.SetInput(hw.data_in[b], (byte >> b) & 1);
    }
    sim.Step();
    if (step < static_cast<size_t>(latency)) continue;
    const size_t offset = step - static_cast<size_t>(latency);
    if (offset >= scan_end) continue;
    if (!sim.Get(hw.index_valid)) continue;
    uint32_t index = 0;
    for (size_t k = 0; k < hw.index_bits.size(); ++k) {
      if (sim.Get(hw.index_bits[k])) index |= 1u << k;
    }
    if (index >= hw.leaf_token.size() ||
        hw.leaf_token[index] < 0) {
      return InternalError("encoder reported an unmapped index " +
                           std::to_string(index));
    }
    tagger::Tag tag;
    tag.token = hw.leaf_token[index];
    tag.end = offset;
    tags.push_back(tag);
  }
  return tags;
}

StatusOr<ImplementationReport> HardwareDesign::Implement(
    const rtl::Device& device, bool optimize) const {
  const hwgen::GeneratedTagger& hw = generated_;
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  obs::ScopedSpan span("core.Implement");
  obs::ScopedTimer timer(reg.GetHistogram(
      "cfgtag_implement_seconds", "Techmap + timing flow wall time"));

  rtl::TechMapper mapper(device.lut_inputs);
  rtl::Netlist optimized;
  const rtl::Netlist* to_map = &hw.netlist;
  if (optimize) {
    obs::ScopedSpan stage("rtl.Optimize");
    obs::ScopedTimer stage_timer(StageHistogram("optimize"));
    auto opt = rtl::Optimize(hw.netlist, nullptr);
    if (!opt.ok()) return opt.status().WithContext("optimize");
    optimized = std::move(opt).value();
    to_map = &optimized;
  }
  rtl::MappedNetlist mapped;
  {
    obs::ScopedSpan stage("rtl.TechMap");
    obs::ScopedTimer stage_timer(StageHistogram("techmap"));
    auto m = mapper.Map(*to_map);
    if (!m.ok()) return m.status().WithContext("techmap");
    mapped = std::move(m).value();
  }
  rtl::TimingReport timing;
  {
    obs::ScopedSpan stage("rtl.Timing");
    obs::ScopedTimer stage_timer(StageHistogram("timing"));
    auto t = rtl::TimingAnalyzer::Analyze(mapped, device);
    if (!t.ok()) return t.status().WithContext("timing");
    timing = std::move(t).value();
  }
  reg.GetGauge("cfgtag_implement_luts", "LUTs of the last Implement() call")
      ->Set(static_cast<double>(mapped.NumLuts()));
  reg.GetGauge("cfgtag_implement_ffs", "FFs of the last Implement() call")
      ->Set(static_cast<double>(mapped.NumFfs()));
  ImplementationReport report;
  report.device = device.name;
  report.area.luts = mapped.NumLuts();
  report.area.ffs = mapped.NumFfs();
  report.area.pattern_bytes = hw.pattern_bytes;
  report.area.luts_per_byte =
      hw.pattern_bytes == 0
          ? 0.0
          : static_cast<double>(report.area.luts) /
                static_cast<double>(hw.pattern_bytes);
  report.area.breakdown = rtl::BreakdownByScope(mapped);
  report.timing = std::move(timing);
  report.bandwidth_gbps =
      report.timing.fmax_mhz * 1e6 * static_cast<double>(hw.lanes) * 8.0 / 1e9;
  return report;
}

StatusOr<std::string> HardwareDesign::ExportVhdl(
    const std::string& entity_name) const {
  return rtl::VhdlEmitter::Emit(generated_.netlist, entity_name);
}

StatusOr<std::string> HardwareDesign::ExportVhdlTestbench(
    const std::string& entity_name, std::string_view input,
    const std::vector<tagger::Tag>& expected) const {
  const hwgen::GeneratedTagger& hw = generated_;
  const std::string padded = Padded(input, kFlushPadding + 1);
  const size_t scan_end = input.size() + kFlushPadding;
  const size_t lanes = static_cast<size_t>(hw.lanes);

  rtl::TestbenchStimulus stimulus;
  stimulus.lanes = hw.lanes;
  int max_latency = 0;
  for (int lat : hw.lane_match_latency) {
    max_latency = std::max(max_latency, lat);
  }
  const size_t total_cycles =
      (scan_end + lanes - 1) / lanes + static_cast<size_t>(max_latency) + 1;
  for (size_t cycle = 0; cycle < total_cycles; ++cycle) {
    std::vector<unsigned char> row(lanes, kFlushByte);
    for (size_t k = 0; k < lanes; ++k) {
      const size_t offset = cycle * lanes + k;
      if (offset < padded.size()) {
        row[k] = static_cast<unsigned char>(padded[offset]);
      }
    }
    stimulus.bytes.push_back(std::move(row));
  }

  std::vector<rtl::TestbenchCheck> checks;
  for (const tagger::Tag& t : expected) {
    const size_t lane = t.end % lanes;
    const size_t cycle =
        t.end / lanes + static_cast<size_t>(hw.lane_match_latency[lane]);
    std::string port = lanes == 1
                           ? "match_t" + std::to_string(t.token)
                           : "match_l" + std::to_string(lane) + "_t" +
                                 std::to_string(t.token);
    checks.push_back(rtl::TestbenchCheck{cycle, std::move(port), true});
  }
  // A few negative checks: the first token's match port must be low while
  // the pipeline is still filling.
  if (hw.num_tokens > 0) {
    const std::string port0 =
        lanes == 1 ? "match_t0" : "match_l0_t0";
    for (uint64_t cycle = 0;
         cycle + 1 < static_cast<uint64_t>(hw.match_latency);
         ++cycle) {
      checks.push_back(rtl::TestbenchCheck{cycle, port0, false});
    }
  }
  return rtl::EmitVhdlTestbench(hw.netlist, entity_name, stimulus, checks);
}

Status HardwareDesign::DumpWaveform(std::string_view input,
                                    std::ostream& os) const {
  const hwgen::GeneratedTagger& hw = generated_;
  CFGTAG_ASSIGN_OR_RETURN(auto sim, rtl::Simulator::Create(&hw.netlist));
  rtl::VcdWriter vcd(&os, &hw.netlist);
  for (size_t b = 0; b < hw.data_in.size(); ++b) {
    vcd.AddSignal(hw.data_in[b], "d" + std::to_string(b));
  }
  for (size_t i = 0; i < hw.match_regs.size(); ++i) {
    const size_t t = i % hw.num_tokens;
    const size_t lane = i / hw.num_tokens;
    std::string name = "match_" + token_names_[t];
    if (hw.lanes > 1) name += "_l" + std::to_string(lane);
    // VCD identifiers must not contain spaces.
    for (char& c : name) {
      if (std::isspace(static_cast<unsigned char>(c))) c = '_';
    }
    vcd.AddSignal(hw.match_regs[i], name);
  }
  if (hw.index_valid != rtl::kInvalidNode) {
    vcd.AddSignal(hw.index_valid, "index_valid");
    for (size_t k = 0; k < hw.index_bits.size(); ++k) {
      vcd.AddSignal(hw.index_bits[k], "index" + std::to_string(k));
    }
  }
  vcd.WriteHeader();

  const std::string padded = Padded(input, kFlushPadding + 1);
  const size_t lanes = static_cast<size_t>(hw.lanes);
  // Run long enough for the slowest output (the index encoder adds
  // ceil(log2 N) stages on top of the match latency) to drain.
  const int drain =
      std::max(hw.match_latency, hw.index_latency);
  const size_t total_steps = (padded.size() + lanes - 1) / lanes +
                             static_cast<size_t>(drain) + 1;
  for (size_t step = 0; step < total_steps; ++step) {
    for (size_t k = 0; k < lanes; ++k) {
      const size_t offset = step * lanes + k;
      const unsigned char byte =
          offset < padded.size() ? static_cast<unsigned char>(padded[offset])
                                 : static_cast<unsigned char>(kFlushByte);
      for (size_t b = 0; b < 8; ++b) {
        sim.SetInput(hw.data_in[k * 8 + b], (byte >> b) & 1);
      }
    }
    sim.Step();
    vcd.Sample(sim);
  }
  return Status::Ok();
}

}  // namespace cfgtag::core
