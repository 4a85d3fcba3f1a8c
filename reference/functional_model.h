#ifndef CFGTAG_REFERENCE_FUNCTIONAL_MODEL_H_
#define CFGTAG_REFERENCE_FUNCTIONAL_MODEL_H_

#include <string_view>
#include <vector>

#include "common/status.h"
#include "grammar/analysis.h"
#include "grammar/grammar.h"
#include "regex/position_automaton.h"
#include "tagger/tag.h"

namespace cfgtag::tagger {

class FunctionalTagger;

// Incremental tagging over a byte stream delivered in chunks (e.g. network
// packets). Holds the machine state between Feed() calls; offsets in
// emitted tags are absolute stream positions. Because the Fig. 7
// longest-match look-ahead needs one byte beyond a match, the session lags
// the input by exactly one byte: the decision for a chunk's final byte is
// emitted when the next chunk (or Finish()) arrives.
class TaggerSession {
 public:
  // The tagger must outlive the session.
  explicit TaggerSession(const FunctionalTagger* tagger);

  // Consumes a chunk, emitting tags in stream order.
  void Feed(std::string_view chunk, const TagSink& sink);

  // Ends the stream: processes the lagging final byte (with no successor,
  // so no look-ahead suppression). Further Feed() calls are ignored until
  // Reset().
  void Finish(const TagSink& sink);

  // Returns to the stream-start state.
  void Reset();

  // Bytes fully processed so far (excludes the lagging byte).
  uint64_t bytes_consumed() const { return pos_; }

  // The tagger this session currently feeds.
  const FunctionalTagger* tagger() const { return tagger_; }

 private:
  void ProcessByte(unsigned char c, bool has_next, unsigned char next_c,
                   const TagSink& sink);

  // Adds a token to the step candidates of the current byte (idempotent).
  void AddCandidate(int32_t token);

  const FunctionalTagger* tagger_;
  std::vector<uint64_t> state_;
  std::vector<uint64_t> scratch_;  // one token's next state
  std::vector<uint8_t> armed_;
  std::vector<uint8_t> new_arms_;
  // Sparse active-set machinery: only tokens with live state or a reason
  // to inject are stepped each byte — the big win over ticking every
  // token (most tokens are cold on real streams).
  std::vector<int32_t> live_;            // tokens with nonzero state
  std::vector<uint8_t> is_live_;
  std::vector<int32_t> candidates_;      // tokens to step this byte
  std::vector<uint8_t> is_candidate_;
  std::vector<int32_t> candidate_reset_; // flags to clear next byte
  std::vector<int32_t> armed_list_;      // tokens with armed_[t] == 1
  std::vector<int32_t> new_arm_list_;    // arms raised this byte
  bool prev_was_delim_ = false;
  bool has_pending_ = false;
  bool finished_ = false;
  bool stopped_ = false;  // sink requested early stop
  unsigned char pending_ = 0;
  uint64_t pos_ = 0;
};

// Bit-parallel software model of the generated hardware tagger. It executes
// the same machine the netlist implements — one Glushkov position automaton
// per token, arm registers wired through the terminal Follow sets — but as
// word-level operations. It is the reference the production engine
// (tagger::LazyDfaTagger) and the cycle-accurate netlist simulation are
// cross-checked against in the differential and equivalence tests.
class FunctionalTagger {
 public:
  // The grammar must outlive the tagger.
  static StatusOr<FunctionalTagger> Create(const grammar::Grammar* grammar,
                                           const TaggerOptions& options);

  // Scans `input` and calls `sink` for every detected token, in stream
  // order. Offsets index into `input`. Each call builds its own session,
  // so concurrent calls share nothing.
  void Run(std::string_view input, const TagSink& sink) const;

  // Convenience: collect all tags.
  std::vector<Tag> TagAll(std::string_view input) const;

  // Streaming interface: feed the input in arbitrary chunks.
  TaggerSession NewSession() const { return TaggerSession(this); }

  const grammar::Grammar& grammar() const { return *grammar_; }
  const grammar::Analysis& analysis() const { return analysis_; }
  const TaggerOptions& options() const { return options_; }

  // Total Glushkov positions over all tokens = the pattern-byte metric.
  size_t TotalPositions() const;

 private:
  friend class TaggerSession;

  FunctionalTagger(const grammar::Grammar* grammar, TaggerOptions options);

  const grammar::Grammar* grammar_;
  TaggerOptions options_;
  grammar::Analysis analysis_;
  std::vector<regex::PositionAutomaton> automata_;  // per token
  // follow_tokens_[t]: token ids armed when t matches (end marker dropped).
  std::vector<std::vector<int32_t>> follow_tokens_;
  std::vector<int32_t> start_tokens_;
  std::vector<uint8_t> is_start_;  // indexed by token id
  // word_offset_[t] = first word of token t's state bitmap; back() = total.
  std::vector<size_t> word_offset_;
};

}  // namespace cfgtag::tagger

#endif  // CFGTAG_REFERENCE_FUNCTIONAL_MODEL_H_
