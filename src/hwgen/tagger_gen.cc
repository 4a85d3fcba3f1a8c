#include "hwgen/tagger_gen.h"

#include <cassert>
#include <memory>

#include "hwgen/decoder_gen.h"
#include "hwgen/tokenizer_gen.h"
#include "obs/trace.h"
#include "regex/position_automaton.h"

namespace cfgtag::hwgen {

namespace {

// Generates the W-lane datapath. W == 1 is exactly the paper's design; for
// W > 1 (paper §5.2 future work: "scaling the design to process 32-bits or
// 64-bits per clock cycle") the state registers advance W bytes per cycle
// through a combinational ladder of per-lane transition stages, and token
// matches are reported per lane. Lanes 0..W-2 compute their Fig. 7
// look-ahead against the next lane of the same cycle; the last lane's
// look-ahead byte arrives with the *next* cycle, so its match pulse is
// computed from the state registers one cycle later (for W == 1 that is
// the only lane, which reproduces the single-byte pipeline exactly).
StatusOr<GeneratedTagger> GenerateLanes(const grammar::Grammar& g,
                                        const grammar::Analysis& analysis,
                                        const HwOptions& opt) {
  const int lanes = opt.bytes_per_cycle;
  GeneratedTagger out;
  rtl::Netlist& nl = out.netlist;
  const size_t num_tokens = g.NumTokens();
  out.num_tokens = num_tokens;
  out.lanes = lanes;

  for (int k = 0; k < lanes; ++k) {
    for (int b = 0; b < 8; ++b) {
      const std::string name =
          lanes == 1 ? "d" + std::to_string(b)
                     : "l" + std::to_string(k) + "_d" + std::to_string(b);
      out.data_in.push_back(nl.AddInput(name));
    }
  }

  // Token automata and the class universe (identical for every lane).
  std::vector<regex::PositionAutomaton> automata;
  automata.reserve(num_tokens);
  std::vector<regex::CharClass> classes;
  classes.push_back(opt.tagger.delimiters);
  for (const grammar::TokenDef& def : g.tokens()) {
    automata.push_back(regex::PositionAutomaton::Build(*def.regex));
    out.pattern_bytes += automata.back().NumPositions();
    for (const regex::CharClass& cls : automata.back().positions) {
      classes.push_back(cls);
    }
  }

  // One decoder bank per lane.
  std::vector<std::unique_ptr<DecoderGenerator>> decoder(lanes);
  for (int k = 0; k < lanes; ++k) {
    std::vector<rtl::NodeId> slice(out.data_in.begin() + k * 8,
                                   out.data_in.begin() + (k + 1) * 8);
    decoder[k] = std::make_unique<DecoderGenerator>(
        &nl, slice, classes, opt.decoder_replication,
        opt.replication_threshold);
    assert(decoder[k]->depth() == decoder[0]->depth() &&
           "lanes share the class universe, so depths must agree");
  }
  const int depth = decoder[0]->depth();
  const bool no_delims = opt.tagger.delimiters.Empty();
  auto delim_at = [&](int k) {
    return no_delims ? nl.Const0()
                     : decoder[k]->GetDecoded(opt.tagger.delimiters);
  };

  TokenizerGenerator tokgen(&nl);
  std::vector<TokenizerPorts> ports(num_tokens);
  for (size_t t = 0; t < num_tokens; ++t) {
    ports[t] = tokgen.Allocate(automata[t], "t" + std::to_string(t));
  }

  // The last lane's (delayed) match pulses: computed from the state
  // registers with look-ahead against lane 0's current decode. These are
  // also the pulses the syntactic wiring feeds into lane 0's arms.
  std::vector<rtl::NodeId> pulse_last(num_tokens);
  for (size_t t = 0; t < num_tokens; ++t) {
    pulse_last[t] = tokgen.MatchPulse(
        automata[t], ports[t].state_regs, decoder[0].get(),
        opt.tagger.longest_match, "pulse_t" + std::to_string(t));
  }

  const tagger::ArmMode mode = opt.tagger.arm_mode;

  rtl::ScopedNetlistScope syntax_scope(&nl, "syntax");

  // Start-of-stream pulse, aligned with byte 0 reaching lane 0's decoder.
  rtl::NodeId start_pulse = rtl::kInvalidNode;
  if (mode != tagger::ArmMode::kScan) {
    const rtl::NodeId boot =
        nl.Reg(nl.Const0(), rtl::kInvalidNode, /*init=*/true, "boot");
    start_pulse = nl.DelayLine(boot, depth);
    nl.SetName(start_pulse, "start_pulse");
  }

  // Resync mode (§5.2 error recovery): start tokens also arm at every byte
  // that follows a delimiter. Lane 0's "previous byte" is the last lane of
  // the previous cycle, held in a register.
  rtl::NodeId prev_cycle_delim = rtl::kInvalidNode;
  if (mode == tagger::ArmMode::kResync && !no_delims) {
    prev_cycle_delim =
        nl.Reg(delim_at(lanes - 1), rtl::kInvalidNode, false, "delim_prev");
  }
  // Start-arm term for lane k (kInvalidNode when none applies).
  auto start_term_for_lane = [&](int k) -> rtl::NodeId {
    switch (mode) {
      case tagger::ArmMode::kScan:
        return nl.Const1();
      case tagger::ArmMode::kAnchored:
        return k == 0 ? start_pulse : rtl::kInvalidNode;
      case tagger::ArmMode::kResync: {
        if (no_delims) return k == 0 ? start_pulse : rtl::kInvalidNode;
        const rtl::NodeId boundary =
            k == 0 ? prev_cycle_delim : delim_at(k - 1);
        return k == 0 ? nl.Or2(start_pulse, boundary) : boundary;
      }
    }
    return rtl::kInvalidNode;
  };

  std::vector<uint8_t> is_start(num_tokens, 0);
  for (int32_t s : analysis.start_tokens) is_start[s] = 1;

  // armed[t]: the arm for the byte the current lane consumes (Fig. 11
  // syntactic control flow, per lane).
  std::vector<rtl::NodeId> armed(num_tokens);
  for (size_t t = 0; t < num_tokens; ++t) {
    std::vector<rtl::NodeId> terms;
    terms.push_back(ports[t].arm_held);
    for (size_t u = 0; u < num_tokens; ++u) {
      if (analysis.follow_tok[u].count(static_cast<int32_t>(t)) > 0) {
        terms.push_back(pulse_last[u]);
      }
    }
    if (is_start[t]) {
      const rtl::NodeId st = start_term_for_lane(0);
      if (st != rtl::kInvalidNode) terms.push_back(st);
    }
    armed[t] = nl.Or(std::move(terms));
    nl.SetName(armed[t], "inject_t" + std::to_string(t));
  }

  out.match_regs.assign(static_cast<size_t>(lanes) * num_tokens,
                        rtl::kInvalidNode);
  out.lane_match_latency.assign(lanes, depth);
  out.lane_match_latency[lanes - 1] = depth + 1;

  // Per-token ladder state (starts at the registers).
  std::vector<std::vector<rtl::NodeId>> state(num_tokens);
  for (size_t t = 0; t < num_tokens; ++t) state[t] = ports[t].state_regs;

  for (int k = 0; k < lanes; ++k) {
    // Advance every token one byte.
    for (size_t t = 0; t < num_tokens; ++t) {
      const rtl::NodeId inject_gated =
          no_delims ? armed[t] : nl.AndNot(armed[t], delim_at(k));
      state[t] =
          tokgen.StepLane(automata[t], state[t], decoder[k].get(),
                          inject_gated);
    }
    if (k < lanes - 1) {
      // Same-cycle match pulses (look-ahead = next lane) and the armed
      // ladder for the next lane: new arms from this lane's matches, plus
      // surviving arms when this lane's byte was a delimiter.
      std::vector<rtl::NodeId> pulse_k(num_tokens);
      for (size_t t = 0; t < num_tokens; ++t) {
        pulse_k[t] = tokgen.MatchPulse(
            automata[t], state[t], decoder[k + 1].get(),
            opt.tagger.longest_match,
            "pulse_l" + std::to_string(k) + "_t" + std::to_string(t));
        const std::string match_name =
            "match_l" + std::to_string(k) + "_t" + std::to_string(t);
        const rtl::NodeId match_reg =
            nl.Reg(pulse_k[t], rtl::kInvalidNode, false, match_name);
        out.match_regs[static_cast<size_t>(k) * num_tokens + t] = match_reg;
        nl.MarkOutput(match_reg, match_name);
      }
      std::vector<rtl::NodeId> next_armed(num_tokens);
      for (size_t t = 0; t < num_tokens; ++t) {
        std::vector<rtl::NodeId> terms;
        if (!no_delims) terms.push_back(nl.And({armed[t], delim_at(k)}));
        for (size_t u = 0; u < num_tokens; ++u) {
          if (analysis.follow_tok[u].count(static_cast<int32_t>(t)) > 0) {
            terms.push_back(pulse_k[u]);
          }
        }
        if (is_start[t]) {
          const rtl::NodeId st = start_term_for_lane(k + 1);
          if (st != rtl::kInvalidNode) terms.push_back(st);
        }
        next_armed[t] = nl.Or(std::move(terms));
      }
      armed = std::move(next_armed);
    } else {
      // Close the cycle: commit the ladder into the state registers, hold
      // arms across a trailing delimiter, register the delayed pulses.
      for (size_t t = 0; t < num_tokens; ++t) {
        for (size_t q = 0; q < automata[t].NumPositions(); ++q) {
          nl.SetRegD(ports[t].state_regs[q], state[t][q]);
        }
        nl.SetRegD(ports[t].arm_held,
                   no_delims ? nl.Const0()
                             : nl.And({armed[t], delim_at(k)}));
        const std::string match_name =
            lanes == 1 ? "match_t" + std::to_string(t)
                       : "match_l" + std::to_string(k) + "_t" +
                             std::to_string(t);
        const rtl::NodeId match_reg =
            nl.Reg(pulse_last[t], rtl::kInvalidNode, false, match_name);
        out.match_regs[static_cast<size_t>(k) * num_tokens + t] = match_reg;
        nl.MarkOutput(match_reg, match_name);
      }
    }
  }
  out.match_latency = out.lane_match_latency[lanes - 1];

  nl.SetScope("encoder");
  // Index encoder over the registered match bits (single-lane only).
  if (opt.emit_index_encoder && lanes == 1) {
    if (opt.priority_groups.empty()) {
      out.leaf_token.resize(num_tokens);
      for (size_t t = 0; t < num_tokens; ++t) {
        out.leaf_token[t] = static_cast<int32_t>(t);
      }
    } else {
      int bits = 1;
      while ((static_cast<size_t>(1) << bits) < num_tokens) ++bits;
      Status last_error = InternalError("unreachable");
      bool assigned = false;
      for (; bits <= 16 && !assigned; ++bits) {
        auto leaves_or =
            AssignPriorityIndices(num_tokens, opt.priority_groups, bits);
        if (leaves_or.ok()) {
          out.leaf_token = std::move(leaves_or).value();
          assigned = true;
        } else {
          last_error = leaves_or.status();
        }
      }
      if (!assigned) return last_error;
      while (out.leaf_token.size() > 1 && out.leaf_token.back() == -1) {
        out.leaf_token.pop_back();
      }
    }
    std::vector<rtl::NodeId> leaves(out.leaf_token.size());
    for (size_t i = 0; i < out.leaf_token.size(); ++i) {
      leaves[i] = out.leaf_token[i] < 0
                      ? nl.Const0()
                      : out.match_regs[out.leaf_token[i]];
    }
    const EncoderPorts enc =
        opt.pipelined_encoder
            ? EncoderGenerator::BuildPipelined(&nl, leaves, "enc")
            : EncoderGenerator::BuildNaive(&nl, leaves, "enc");
    out.index_bits = enc.index_bits;
    out.index_valid = enc.valid;
    out.index_latency = out.match_latency + enc.latency;
    nl.MarkOutput(enc.valid, "index_valid");
    for (size_t k = 0; k < enc.index_bits.size(); ++k) {
      nl.MarkOutput(enc.index_bits[k], "index" + std::to_string(k));
    }
  }

  CFGTAG_RETURN_IF_ERROR(nl.Validate());
  return out;
}

}  // namespace

StatusOr<GeneratedTagger> TaggerGenerator::Generate(
    const grammar::Grammar& grammar, const HwOptions& options) {
  CFGTAG_RETURN_IF_ERROR(grammar.Validate().WithContext("grammar validate"));
  auto analysis = [&] {
    obs::ScopedSpan span("grammar.Analyze");
    return grammar::Analyze(grammar);
  }();
  if (!analysis.ok()) return analysis.status().WithContext("analysis");
  if (options.bytes_per_cycle != 1 && options.bytes_per_cycle != 2 &&
      options.bytes_per_cycle != 4) {
    return InvalidArgumentError("bytes_per_cycle must be 1, 2 or 4");
  }
  obs::ScopedSpan span("hwgen.GenerateLanes");
  return GenerateLanes(grammar, *analysis, options);
}

}  // namespace cfgtag::hwgen
