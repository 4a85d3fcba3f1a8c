#include "core/token_tagger.h"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <ostream>
#include <utility>

#include "core/resilience/budget.h"
#include "grammar/canonical.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rtl/optimize.h"
#include "tagger/artifact/cache.h"
#include "tagger/artifact/loader.h"
#include "tagger/artifact/writer.h"
#include "rtl/simulator.h"
#include "rtl/vcd_writer.h"
#include "rtl/vhdl_emitter.h"
#include "rtl/vhdl_testbench.h"

namespace cfgtag::core {

namespace {

std::string Padded(std::string_view input, size_t pad) {
  std::string s(input);
  s.append(pad, CompiledTagger::kFlushByte);
  return s;
}

// Cached handles into the default registry — registry lookup locks, so
// call sites on hot paths resolve each metric exactly once.
obs::Histogram* StageHistogram(const char* stage) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  return reg.GetHistogram(
      std::string("cfgtag_compile_stage_seconds{stage=\"") + stage + "\"}",
      "Wall time of one compile-pipeline stage");
}

}  // namespace

StatusOr<CompiledTagger> CompiledTagger::Compile(
    grammar::Grammar grammar, const hwgen::HwOptions& options) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  obs::ScopedSpan span("core.Compile");
  obs::ScopedTimer timer(reg.GetHistogram(
      "cfgtag_compile_seconds", "End-to-end grammar compile wall time"));

  CompiledTagger out;
  out.grammar_ =
      std::make_unique<grammar::Grammar>(std::move(grammar));
  out.options_ = options;
  {
    obs::ScopedSpan stage("tagger.CreateFusedModel");
    obs::ScopedTimer stage_timer(StageHistogram("fused"));
    auto fused =
        tagger::FusedTagger::Create(out.grammar_.get(), options.tagger);
    if (!fused.ok()) return fused.status().WithContext("fused model");
    reg.GetGauge("cfgtag_compile_byte_classes",
                 "Byte classes of the last compile")
        ->Set(static_cast<double>(fused.value().NumByteClasses()));
    out.lazy_ = std::make_unique<tagger::LazyDfaTagger>(
        tagger::LazyDfaTagger::Wrap(std::move(fused).value()));
  }
  out.hardware_ = std::make_unique<HardwareSlot>();
  reg.GetCounter("cfgtag_compile_total", "Grammar compiles completed")
      ->Increment();
  return out;
}

StatusOr<const hwgen::GeneratedTagger*> CompiledTagger::hardware() const {
  if (hardware_ == nullptr) {
    return FailedPreconditionError(
        "tagger was loaded from an artifact (software engine only); "
        "recompile the grammar for netlist operations");
  }
  HardwareSlot& slot = *hardware_;
  std::call_once(slot.once, [&] {
    obs::ScopedSpan stage("hwgen.Generate");
    obs::ScopedTimer stage_timer(StageHistogram("hwgen"));
    auto design = hwgen::TaggerGenerator::Generate(*grammar_, options_);
    if (!design.ok()) {
      slot.status = design.status().WithContext("hwgen");
      return;
    }
    slot.design = std::move(design).value();
    const rtl::Netlist::Stats stats = slot.design.netlist.ComputeStats();
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
    reg.GetGauge("cfgtag_compile_gates", "Gates in the last generated netlist")
        ->Set(static_cast<double>(stats.num_gates));
    reg.GetGauge("cfgtag_compile_regs",
                 "Registers in the last generated netlist")
        ->Set(static_cast<double>(stats.num_regs));
    reg.GetGauge("cfgtag_compile_pattern_bytes",
                 "Pattern bytes (Glushkov positions) of the last generated "
                 "netlist")
        ->Set(static_cast<double>(slot.design.pattern_bytes));
  });
  if (!slot.status.ok()) return slot.status;
  return &slot.design;
}

StatusOr<std::string> CompiledTagger::SerializeWithHashes(
    uint64_t grammar_hash, uint64_t options_hash) const {
  namespace art = tagger::artifact;
  art::SerializeRequest req;
  req.grammar_hash = grammar_hash;
  req.options_hash = options_hash;
  req.aot_state_budget = options_.tagger.aot_state_budget;
  return art::SerializeTagger(lazy_->fused(), req);
}

StatusOr<std::string> CompiledTagger::Serialize() const {
  return SerializeWithHashes(grammar::CanonicalHash(grammar()),
                             tagger::artifact::OptionsHash(options_.tagger));
}

// Builds a software-only CompiledTagger around a loaded artifact and
// records the artifact gauges.
StatusOr<CompiledTagger> CompiledTagger::AdoptLoaded(
    tagger::artifact::LoadedTagger lt) {
  const auto& am = tagger::artifact::ArtifactMetrics::Get();
  am.bytes->Set(static_cast<double>(lt.artifact_bytes));
  am.aot_states->Set(static_cast<double>(lt.aot_states));
  CompiledTagger out;
  out.options_.tagger = lt.options;
  out.lazy_ = std::move(lt.lazy);
  return out;
}

StatusOr<CompiledTagger> CompiledTagger::Deserialize(std::string_view bytes) {
  const auto& am = tagger::artifact::ArtifactMetrics::Get();
  obs::ScopedTimer timer(am.load_seconds);
  CFGTAG_ASSIGN_OR_RETURN(auto loaded,
                          tagger::artifact::LoadFromMemory(bytes));
  return AdoptLoaded(std::move(loaded));
}

StatusOr<CompiledTagger> CompiledTagger::LoadArtifact(
    const std::string& path) {
  const auto& am = tagger::artifact::ArtifactMetrics::Get();
  obs::ScopedTimer timer(am.load_seconds);
  CFGTAG_ASSIGN_OR_RETURN(auto loaded, tagger::artifact::LoadFromFile(path));
  return AdoptLoaded(std::move(loaded));
}

StatusOr<CompiledTagger> CompiledTagger::LoadArtifactCopied(
    const std::string& path) {
  const auto& am = tagger::artifact::ArtifactMetrics::Get();
  obs::ScopedTimer timer(am.load_seconds);
  CFGTAG_ASSIGN_OR_RETURN(auto loaded,
                          tagger::artifact::LoadFromFileCopied(path));
  return AdoptLoaded(std::move(loaded));
}

StatusOr<CompiledTagger> CompiledTagger::CompileCached(
    grammar::Grammar grammar, const hwgen::HwOptions& options,
    const std::string& cache_dir) {
  namespace art = tagger::artifact;
  const auto& am = art::ArtifactMetrics::Get();
  // The key is the *requested* configuration: grammar content (order
  // normalized) plus the options fields that shape the tables.
  const uint64_t ghash = grammar::CanonicalHash(grammar);
  const uint64_t ohash = art::OptionsHash(options.tagger);
  const std::string path = art::CachePath(cache_dir, ghash, ohash);
  {
    auto loaded = art::LoadFromFile(path);
    if (loaded.ok() && loaded.value().grammar_hash == ghash &&
        loaded.value().options_hash == ohash) {
      am.cache_hits->Increment();
      obs::ScopedTimer timer(am.load_seconds);
      return AdoptLoaded(std::move(loaded).value());
    }
    // Missing, corrupt, or stale-key entry: fall through to a compile
    // (the store below overwrites a bad entry atomically).
  }
  am.cache_misses->Increment();
  CFGTAG_ASSIGN_OR_RETURN(CompiledTagger out,
                          Compile(std::move(grammar), options));
  auto bytes = out.SerializeWithHashes(ghash, ohash);
  if (bytes.ok()) {
    if (resilience::ResourceBudget::Process().ArtifactCacheReadOnly()) {
      // Top rung of the degradation ladder: the compile still succeeds,
      // but the cache stops accumulating new entries on disk.
      obs::RecordEvent(obs::EventKind::kDegradedMode, 1,
                       static_cast<int64_t>(bytes.value().size()),
                       "artifact_cache store skipped (read-only)");
    } else {
      // Best effort: a failed store (read-only dir, disk full) degrades
      // to an uncached compile, never to an error.
      (void)art::AtomicWriteFile(path, bytes.value());
    }
  }
  return out;
}

namespace {

// Run-path metric handles, resolved once per process.
struct TagMetrics {
  obs::Counter* calls;
  obs::Counter* bytes;
  obs::Counter* tags;
  obs::Histogram* latency;

  static const TagMetrics& Get() {
    static const TagMetrics kMetrics = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
      return TagMetrics{
          reg.GetCounter("cfgtag_tag_calls_total", "Tag() invocations"),
          reg.GetCounter("cfgtag_tag_bytes_total",
                         "Input bytes scanned by Tag()"),
          reg.GetCounter("cfgtag_tag_tokens_total", "Tags emitted by Tag()"),
          reg.GetHistogram("cfgtag_tag_seconds", "Per-call Tag() wall time")};
    }();
    return kMetrics;
  }
};

}  // namespace

TagSlot::TagSlot(const CompiledTagger& tagger)
    : tagger_(tagger.lazy_model()),
      session_(tagger_->session_pool().Acquire(tagger_)),
      seconds_(TagMetrics::Get().latency) {}

TagSlot::~TagSlot() {
  if (calls_ != 0) {
    const TagMetrics& metrics = TagMetrics::Get();
    metrics.calls->Increment(calls_);
    metrics.bytes->Increment(bytes_);
    metrics.tags->Increment(tokens_);
  }
  seconds_.Merge();
}

std::vector<tagger::Tag> CompiledTagger::Tag(std::string_view input) const {
  std::vector<tagger::Tag> tags;
  Tag(input, [&tags](const tagger::Tag& t) {
    tags.push_back(t);
    return true;
  });
  return tags;
}

void CompiledTagger::Tag(std::string_view input,
                         const tagger::TagSink& sink) const {
  (void)TagWithControl(input, sink, resilience::ScanControl::InertOneChunk());
}

Status CompiledTagger::TagWithControl(std::string_view input,
                                      const tagger::TagSink& sink,
                                      const resilience::ScanControl& control,
                                      std::atomic<uint64_t>* progress,
                                      uint64_t* consumed, obs::Lap* lap,
                                      TagSlot* slot) const {
  if (slot == nullptr) {
    TagSlot one_call(*this);
    return TagWithControl(input, sink, control, progress, consumed, lap,
                          &one_call);
  }
  obs::ScopedTimer timer(&slot->seconds_, lap);
  // Stream the input and then the flush padding through the slot's pooled
  // session: the same bytes the simulator sees (Padded()), minus the
  // per-call input copy and session construction. One extra pad byte
  // beyond the scanned range keeps the Fig. 7 look-ahead identical to the
  // gate-level simulation at the final scanned byte. That byte stays
  // pending in the session, so every tag fed out ends before the scan end
  // (input.size() + kFlushPadding), and the stream is never Finished: its
  // one step would emit only at the scan end. The padding is the same
  // bytes on every call, so the session replays it from a per-state memo.
  static const std::string& kPadding =
      *new std::string(kFlushPadding + 1, kFlushByte);
  const size_t step = control.check_interval_bytes == 0
                          ? input.size() + 1
                          : control.check_interval_bytes;
  size_t fed = 0;
  Status trip = Status::Ok();
  // The session is reset here, so an early trip just abandons it half-fed
  // — no padding, and a tag still open at the stop point is never
  // reported.
  assert(slot->tagger_ == lazy_.get());
  tagger::LazyDfaSession* session = slot->session_.get();
  session->Reset();
  const auto run = [&] {
    while (fed < input.size()) {
      trip = control.Check();
      if (!trip.ok()) return;
      resilience::FaultInjector::MaybeStall("scan.chunk");
      const size_t n = std::min(step, input.size() - fed);
      session->Feed(input.substr(fed, n), sink);
      fed += n;
      if (progress != nullptr) {
        progress->store(fed, std::memory_order_relaxed);
      }
    }
    trip = control.Check();
    if (!trip.ok()) return;
    session->FeedPadding(kPadding, sink);
  };
  run();
  session->FlushAttribution();
  ++slot->calls_;
  slot->bytes_ += fed;
  slot->tokens_ += session->tags_emitted();
  if (consumed != nullptr) *consumed = fed;
  if (!trip.ok()) {
    resilience::CountControlTrip(trip, fed, input.size(), "core.Tag");
  }
  return trip;
}

StatusOr<std::vector<tagger::Tag>> CompiledTagger::TagCycleAccurate(
    std::string_view input) const {
  CFGTAG_ASSIGN_OR_RETURN(const hwgen::GeneratedTagger* hw, hardware());
  obs::ScopedSpan span("core.TagCycleAccurate");
  CFGTAG_ASSIGN_OR_RETURN(auto sim, rtl::Simulator::Create(&hw->netlist));
  sim.EnableActivityStats(true);
  const std::string padded = Padded(input, kFlushPadding + 1);
  const size_t scan_end = input.size() + kFlushPadding;
  const size_t lanes = static_cast<size_t>(hw->lanes);
  const size_t num_tokens = hw->num_tokens;
  const auto& lane_latency = hw->lane_match_latency;

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
        sim.SetInput(hw->data_in[k * 8 + b], (byte >> b) & 1);
      }
    }
    sim.Step();
    for (size_t k = 0; k < lanes; ++k) {
      const size_t lat = static_cast<size_t>(lane_latency[k]);
      if (step < lat) continue;
      const size_t offset = (step - lat) * lanes + k;
      if (offset >= scan_end) continue;
      for (size_t t = 0; t < num_tokens; ++t) {
        if (sim.Get(hw->match_regs[k * num_tokens + t])) {
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

StatusOr<std::vector<tagger::Tag>> CompiledTagger::TagViaIndexBus(
    std::string_view input) const {
  CFGTAG_ASSIGN_OR_RETURN(const hwgen::GeneratedTagger* hw, hardware());
  if (hw->index_valid == rtl::kInvalidNode) {
    return FailedPreconditionError("tagger was compiled without the encoder");
  }
  CFGTAG_ASSIGN_OR_RETURN(auto sim, rtl::Simulator::Create(&hw->netlist));
  const std::string padded = Padded(input, kFlushPadding + 1);
  const size_t scan_end = input.size() + kFlushPadding;
  const int latency = hw->index_latency;
  const size_t total_steps = scan_end + static_cast<size_t>(latency);

  std::vector<tagger::Tag> tags;
  for (size_t step = 0; step < total_steps; ++step) {
    const unsigned char byte =
        step < padded.size() ? static_cast<unsigned char>(padded[step])
                             : static_cast<unsigned char>(kFlushByte);
    for (int b = 0; b < 8; ++b) {
      sim.SetInput(hw->data_in[b], (byte >> b) & 1);
    }
    sim.Step();
    if (step < static_cast<size_t>(latency)) continue;
    const size_t offset = step - static_cast<size_t>(latency);
    if (offset >= scan_end) continue;
    if (!sim.Get(hw->index_valid)) continue;
    uint32_t index = 0;
    for (size_t k = 0; k < hw->index_bits.size(); ++k) {
      if (sim.Get(hw->index_bits[k])) index |= 1u << k;
    }
    if (index >= hw->leaf_token.size() ||
        hw->leaf_token[index] < 0) {
      return InternalError("encoder reported an unmapped index " +
                           std::to_string(index));
    }
    tagger::Tag tag;
    tag.token = hw->leaf_token[index];
    tag.end = offset;
    tags.push_back(tag);
  }
  return tags;
}

StatusOr<ImplementationReport> CompiledTagger::Implement(
    const rtl::Device& device, bool optimize) const {
  CFGTAG_ASSIGN_OR_RETURN(const hwgen::GeneratedTagger* hw, hardware());
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  obs::ScopedSpan span("core.Implement");
  obs::ScopedTimer timer(reg.GetHistogram(
      "cfgtag_implement_seconds", "Techmap + timing flow wall time"));

  rtl::TechMapper mapper(device.lut_inputs);
  rtl::Netlist optimized;
  const rtl::Netlist* to_map = &hw->netlist;
  if (optimize) {
    obs::ScopedSpan stage("rtl.Optimize");
    obs::ScopedTimer stage_timer(StageHistogram("optimize"));
    auto opt = rtl::Optimize(hw->netlist, nullptr);
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
  report.area.pattern_bytes = hw->pattern_bytes;
  report.area.luts_per_byte =
      hw->pattern_bytes == 0
          ? 0.0
          : static_cast<double>(report.area.luts) /
                static_cast<double>(hw->pattern_bytes);
  report.area.breakdown = rtl::BreakdownByScope(mapped);
  report.timing = std::move(timing);
  report.bandwidth_gbps = report.timing.fmax_mhz * 1e6 *
                          static_cast<double>(options_.bytes_per_cycle) * 8.0 /
                          1e9;
  return report;
}

StatusOr<std::string> CompiledTagger::ExportVhdl(
    const std::string& entity_name) const {
  CFGTAG_ASSIGN_OR_RETURN(const hwgen::GeneratedTagger* hw, hardware());
  return rtl::VhdlEmitter::Emit(hw->netlist, entity_name);
}

StatusOr<std::string> CompiledTagger::ExportVhdlTestbench(
    const std::string& entity_name, std::string_view input) const {
  CFGTAG_ASSIGN_OR_RETURN(const hwgen::GeneratedTagger* hw, hardware());
  const std::string padded = Padded(input, kFlushPadding + 1);
  const size_t scan_end = input.size() + kFlushPadding;
  const size_t lanes = static_cast<size_t>(hw->lanes);

  rtl::TestbenchStimulus stimulus;
  stimulus.lanes = hw->lanes;
  int max_latency = 0;
  for (int lat : hw->lane_match_latency) {
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

  // Expected observations from the software engine.
  std::vector<rtl::TestbenchCheck> checks;
  Tag(input, [&](const tagger::Tag& t) {
    const size_t lane = t.end % lanes;
    const size_t cycle =
        t.end / lanes + static_cast<size_t>(hw->lane_match_latency[lane]);
    std::string port = lanes == 1
                           ? "match_t" + std::to_string(t.token)
                           : "match_l" + std::to_string(lane) + "_t" +
                                 std::to_string(t.token);
    checks.push_back(rtl::TestbenchCheck{cycle, std::move(port), true});
    return true;
  });
  // A few negative checks: the first token's match port must be low while
  // the pipeline is still filling.
  if (hw->num_tokens > 0) {
    const std::string port0 =
        lanes == 1 ? "match_t0" : "match_l0_t0";
    for (uint64_t cycle = 0;
         cycle + 1 < static_cast<uint64_t>(hw->match_latency);
         ++cycle) {
      checks.push_back(rtl::TestbenchCheck{cycle, port0, false});
    }
  }
  return rtl::EmitVhdlTestbench(hw->netlist, entity_name, stimulus, checks);
}

Status CompiledTagger::DumpWaveform(std::string_view input,
                                    std::ostream& os) const {
  CFGTAG_ASSIGN_OR_RETURN(const hwgen::GeneratedTagger* hw, hardware());
  CFGTAG_ASSIGN_OR_RETURN(auto sim, rtl::Simulator::Create(&hw->netlist));
  rtl::VcdWriter vcd(&os, &hw->netlist);
  for (size_t b = 0; b < hw->data_in.size(); ++b) {
    vcd.AddSignal(hw->data_in[b], "d" + std::to_string(b));
  }
  for (size_t i = 0; i < hw->match_regs.size(); ++i) {
    const size_t t = i % hw->num_tokens;
    const size_t lane = i / hw->num_tokens;
    std::string name = "match_" + grammar_->tokens()[t].name;
    if (hw->lanes > 1) name += "_l" + std::to_string(lane);
    // VCD identifiers must not contain spaces.
    for (char& c : name) {
      if (std::isspace(static_cast<unsigned char>(c))) c = '_';
    }
    vcd.AddSignal(hw->match_regs[i], name);
  }
  if (hw->index_valid != rtl::kInvalidNode) {
    vcd.AddSignal(hw->index_valid, "index_valid");
    for (size_t k = 0; k < hw->index_bits.size(); ++k) {
      vcd.AddSignal(hw->index_bits[k], "index" + std::to_string(k));
    }
  }
  vcd.WriteHeader();

  const std::string padded = Padded(input, kFlushPadding + 1);
  const size_t lanes = static_cast<size_t>(hw->lanes);
  // Run long enough for the slowest output (the index encoder adds
  // ceil(log2 N) stages on top of the match latency) to drain.
  const int drain =
      std::max(hw->match_latency, hw->index_latency);
  const size_t total_steps = (padded.size() + lanes - 1) / lanes +
                             static_cast<size_t>(drain) + 1;
  for (size_t step = 0; step < total_steps; ++step) {
    for (size_t k = 0; k < lanes; ++k) {
      const size_t offset = step * lanes + k;
      const unsigned char byte =
          offset < padded.size() ? static_cast<unsigned char>(padded[offset])
                                 : static_cast<unsigned char>(kFlushByte);
      for (size_t b = 0; b < 8; ++b) {
        sim.SetInput(hw->data_in[k * 8 + b], (byte >> b) & 1);
      }
    }
    sim.Step();
    vcd.Sample(sim);
  }
  return Status::Ok();
}

}  // namespace cfgtag::core
