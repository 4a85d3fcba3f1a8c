#ifndef CFGTAG_HWGEN_TAGGER_GEN_H_
#define CFGTAG_HWGEN_TAGGER_GEN_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "grammar/analysis.h"
#include "grammar/grammar.h"
#include "hwgen/encoder_gen.h"
#include "rtl/netlist.h"
#include "tagger/tag.h"

namespace cfgtag::hwgen {

// Hardware-generation knobs on top of the shared tagging semantics.
struct HwOptions {
  tagger::TaggerOptions tagger;

  // Emit the §3.4 token-index encoder (match bits are always emitted).
  // Single-lane designs only: with bytes_per_cycle > 1 no encoder is
  // generated, and the back end encodes the per-lane match bits.
  bool emit_index_encoder = true;
  // true: pipelined OR-tree encoder (eqs. 1-4); false: the naive
  // single-stage encoder (ablation baseline).
  bool pipelined_encoder = true;
  // Replicate decoded-character registers once their fan-out exceeds the
  // threshold (§5.2 future-work fix for the routing-delay wall).
  bool decoder_replication = false;
  uint32_t replication_threshold = 64;
  // Bytes consumed per clock (1, 2 or 4; §5.2 future work). Lane k of a
  // cycle carries byte (cycle*W + k).
  int bytes_per_cycle = 1;

  // Tokens that can assert simultaneously, in ascending priority (paper
  // eq. 5). Within a group, encoder indices are nested bit masks so the OR
  // of simultaneous indices equals the highest-priority one. Tokens outside
  // any group keep arbitrary unique indices.
  std::vector<std::vector<int32_t>> priority_groups;
};

// A generated tagger netlist plus everything a testbench needs to drive it.
struct GeneratedTagger {
  rtl::Netlist netlist;

  // 8*W input port bits; bit b of lane k is data_in[k*8 + b] (LSB first).
  std::vector<rtl::NodeId> data_in;

  // match_regs[k*num_tokens + t]: registered match of token t on lane k.
  // For W == 1 this is simply one register per token.
  std::vector<rtl::NodeId> match_regs;
  size_t num_tokens = 0;
  int lanes = 1;

  // Pipeline latency (in cycles) of each lane's match registers: the match
  // register for the byte at stream offset c*W + k, presented before
  // Step(c), is readable after Step(c + lane_match_latency[k]). The last
  // lane runs one cycle behind the others (its look-ahead byte is the next
  // cycle's lane 0).
  std::vector<int> lane_match_latency;

  // Index encoder outputs, if enabled (single-lane designs only; a W-byte
  // datapath reports per-lane match bits and leaves index encoding to the
  // back-end).
  std::vector<rtl::NodeId> index_bits;
  rtl::NodeId index_valid = rtl::kInvalidNode;
  // Encoder leaf -> token id (identity unless priority assignment is used).
  std::vector<int32_t> leaf_token;

  // Latency bookkeeping: the match register for the byte presented before
  // Step(i) is readable after Step(i + match_latency); likewise for the
  // encoder outputs. (Byte j of cycle c on lane k has stream offset
  // c*W + k.)
  int match_latency = 0;
  int index_latency = 0;

  // Grammar-size metric used by Table 1 (total Glushkov positions).
  size_t pattern_bytes = 0;
};

// The paper's automatic hardware generator (§3, Fig. 3): grammar in,
// netlist out. Character decoders and tokenizers come from the token list;
// the syntactic control flow is the terminal Follow-set wiring (Fig. 11);
// matches are reported per token and through the index encoder.
class TaggerGenerator {
 public:
  static StatusOr<GeneratedTagger> Generate(const grammar::Grammar& grammar,
                                            const HwOptions& options);
};

}  // namespace cfgtag::hwgen

#endif  // CFGTAG_HWGEN_TAGGER_GEN_H_
