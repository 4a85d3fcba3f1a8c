#ifndef CFGTAG_TAGGER_FUSED_MODEL_H_
#define CFGTAG_TAGGER_FUSED_MODEL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "grammar/grammar.h"
#include "tagger/byte_classes.h"
#include "tagger/skip_scan.h"
#include "tagger/table_view.h"
#include "tagger/tag.h"

namespace cfgtag::tagger {

class FusedTagger;
class LazyDfaSession;
struct DfaConfig;

namespace artifact {
class Loader;
class Writer;
}  // namespace artifact

// One (word, bits) entry of a sparse bitmap pattern — the unit of the
// fused tagger's injection patterns and of the lazy-DFA backend's interned
// machine-configuration snapshots.
struct WordBits {
  uint32_t word = 0;
  uint64_t bits = 0;
};

// The machine step over a FusedTagger's tables: one configuration of the
// fused state (a contiguous word vector plus a word-occupancy meta bitmap,
// so the per-byte cost scales with *live* words, not grammar size) and
// one ProcessClass step of it. It does not stream: LazyDfaSession is the
// one loop that reads bytes, the idle skips and the one-byte look-ahead
// lag included. It steps this machine on a transition-cache miss
// (DfaConfig::Step, dfa_state.h), on the last byte of a stream, and for
// every byte once the session has fallen back to uncached stepping.
class FusedSession {
 public:
  // The tagger must outlive the session.
  explicit FusedSession(const FusedTagger* tagger);

  // Re-targets the session at `tagger`; buffers are only reallocated when
  // the fused state shape differs. Every step starts from a LoadConfig.
  void Rebind(const FusedTagger* tagger);

 private:
  friend struct DfaConfig;
  friend class LazyDfaSession;

  // One step on a byte of class `cls`, with the look-ahead byte's class
  // `next_cls` (has_next = false at end of stream: no Fig. 7
  // suppression). Leaves the tokens the step emits in emitted_, in
  // ascending token id order.
  void ProcessClass(uint8_t cls, bool has_next, uint8_t next_cls);

  // Replaces the machine configuration with an externally captured one:
  // sparse (word, bits) lists for the state and armed bitmaps, plus the
  // delimiter flag. Every listed bits value must be nonzero.
  void LoadConfig(const WordBits* state, size_t num_state,
                  const WordBits* armed, size_t num_armed, bool prev_delim);

  // Appends the live (word, bits) pairs of the state and armed bitmaps in
  // ascending word order. Round-trips through LoadConfig.
  void SnapshotConfig(std::vector<WordBits>* state,
                      std::vector<WordBits>* armed) const;

  const FusedTagger* tagger_;
  // Fused state bitmaps, double-buffered. Only words whose meta bit is set
  // hold valid data; unmarked words are stale and must never be read.
  std::vector<uint64_t> state_, next_;
  std::vector<uint64_t> state_meta_, next_meta_;
  // Union of the first-position masks of all armed tokens (the pending
  // injection), with its own occupancy meta. Unmarked words are zero.
  std::vector<uint64_t> armed_first_, armed_meta_;
  std::vector<int32_t> emitted_;  // tokens emitted by the last step
  bool armed_any_ = false;
  bool any_live_ = false;
  bool prev_was_delim_ = false;
};

// The fused tables: every token's Glushkov positions fused into one
// word-aligned global bitmap, the software mirror of the paper's §3.2
// hardware, which is literally one wide pipeline register stepped once per
// byte. They define the machine step (FusedSession::ProcessClass) that the
// lazy DFA memoizes; they do not scan streams themselves. Token t's positions occupy words [word_offset_[t], word_offset_
// [t+1]) of the fused state (the FunctionalTagger layout), so any word
// belongs to exactly one token and match extraction is a masked AND plus a
// word->token lookup. All transition tables are indexed by *byte class*
// (ByteClassifier over the union of position classes and the delimiter
// set), not raw byte, keeping them cache resident.
//
// The step is semantically identical to FunctionalTagger's for every
// TaggerOptions value (enforced by the differential fuzz and equivalence
// tests), but it is a handful of branch-free word passes, with no
// per-token dispatch, candidate sorting, or scratch copying.
class FusedTagger {
 public:
  // The grammar must outlive the tagger.
  static StatusOr<FusedTagger> Create(const grammar::Grammar* grammar,
                                      const TaggerOptions& options);

  const grammar::Grammar& grammar() const { return *grammar_; }
  const TaggerOptions& options() const { return options_; }

  // Total Glushkov positions over all tokens = the pattern-byte metric.
  size_t TotalPositions() const { return total_positions_; }
  // Words of the fused global state bitmap.
  size_t NumStateWords() const { return num_words_; }
  // Words of the occupancy meta bitmap (one bit per state word).
  size_t NumMetaWords() const { return meta_words_; }
  // Byte-class compression: distinct transition classes out of 256 bytes.
  size_t NumByteClasses() const { return classifier_.NumClasses(); }

  const ByteClassifier& classifier() const { return classifier_; }
  bool ClassIsDelim(uint8_t cls) const { return class_is_delim_[cls] != 0; }
  // Whether a byte of class `cls` can inject start positions in scan mode:
  // non-delimiter and intersecting some start token's first positions.
  // Bytes of classes that cannot arm are inert when the machine is fully
  // idle, which is what the armed-byte prefilter skips over.
  bool ClassCanArm(uint8_t cls) const { return class_can_arm_[cls] != 0; }
  // Multi-byte scanner over the delimiter set (the lazy DFA's idle
  // fast-skip engine).
  const RunScanner& delimiter_scanner() const { return delim_scanner_; }
  // Multi-byte scanner over the bytes that CAN arm (the scan-mode idle
  // prefilter: skip to the next byte able to start any token).
  const RunScanner& arm_scanner() const { return arm_scanner_; }

 private:
  friend class FusedSession;
  friend struct DfaConfig;  // reads start_first_ for the start state
  // The artifact writer snapshots these tables into a flat file; the loader
  // builds a FusedTagger whose table views point into the mmap'd file
  // instead of heap Storage (src/tagger/artifact/).
  friend class artifact::Loader;
  friend class artifact::Writer;

  FusedTagger(const grammar::Grammar* grammar, TaggerOptions options)
      : grammar_(grammar), options_(options) {}

  // Heap home of the tables Create() builds. The table-view members below
  // point either into one of these (compile path) or straight into an
  // mmap'd artifact (load path); backing_ keeps whichever alive. Hot-path
  // code only ever sees the views, so both paths run identical code.
  struct Storage {
    std::vector<uint32_t> word_offset;
    std::vector<int32_t> word_token;
    std::vector<uint8_t> class_is_delim;
    std::vector<uint8_t> class_can_arm;
    std::vector<uint64_t> class_mask;
    std::vector<uint64_t> ext_mask;
    std::vector<uint64_t> accept_mask;
    std::vector<uint32_t> row_offset;
    std::vector<uint64_t> row_data;
    std::vector<WordBits> start_first;
    std::vector<WordBits> arm_pattern;
    std::vector<uint32_t> arm_offset;
  };

  // Points every table view at the vectors of `s` (which must already be
  // owned by backing_).
  void BindStorage(const Storage& s);

  // Builds what derives from the bound tables: the delimiter and arm
  // RunScanners. The last step of Create and of the artifact loader alike.
  void BuildDerived();

  const grammar::Grammar* grammar_;
  TaggerOptions options_;

  size_t num_tokens_ = 0;
  size_t num_words_ = 0;   // fused state words
  size_t meta_words_ = 0;  // words of the occupancy meta bitmap
  size_t total_positions_ = 0;

  // word_offset_[t] = first fused-state word of token t; back() = total.
  TableView<uint32_t> word_offset_;
  // word_token_[w] = the token owning word w (words are never shared).
  TableView<int32_t> word_token_;

  // Byte-class machinery. class_of_[byte] -> class id; class_is_delim_
  // folds the delimiter test into the same lookup.
  ByteClassifier classifier_;
  TableView<uint8_t> class_is_delim_;
  // class_can_arm_[cls]: the class is not a delimiter and its bytes hit
  // some start token's first positions (see ClassCanArm()).
  TableView<uint8_t> class_can_arm_;
  RunScanner delim_scanner_;
  RunScanner arm_scanner_;

  // Per-class global masks, row-major [cls * num_words_ + w]:
  // class_mask_: positions whose character class contains the class;
  // ext_mask_: *accepting* positions with a successor consuming the class
  // (the Fig. 7 look-ahead as a mask: a match is suppressed iff
  // state & accept & ext[class(next byte)] is nonzero in its token words).
  TableView<uint64_t> class_mask_;
  TableView<uint64_t> ext_mask_;

  // Global accept mask (all tokens' last positions).
  TableView<uint64_t> accept_mask_;

  // Follow rows: row_offset_[global_bit] indexes into row_data_; the row
  // spans the owning token's words (width word_offset_[t+1] -
  // word_offset_[t], usually 1), holding the bitmap of follow(position).
  TableView<uint32_t> row_offset_;
  TableView<uint64_t> row_data_;

  // Sparse OR patterns. start_first_: the first positions of all start
  // tokens (scan/resync injection). arm_pattern_[arm_offset_[t] ..
  // arm_offset_[t+1]): the first positions of every token in t's Follow
  // set — arming a whole Follow set is |follow words| ORs.
  TableView<WordBits> start_first_;
  TableView<WordBits> arm_pattern_;
  TableView<uint32_t> arm_offset_;

  // Owns whatever memory the views point into: a Storage block on the
  // compile path, the mapped (or copied) artifact bytes on the load path.
  std::shared_ptr<const void> backing_;
};

}  // namespace cfgtag::tagger

#endif  // CFGTAG_TAGGER_FUSED_MODEL_H_
