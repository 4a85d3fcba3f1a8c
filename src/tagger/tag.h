#ifndef CFGTAG_TAGGER_TAG_H_
#define CFGTAG_TAGGER_TAG_H_

#include <cstdint>
#include <functional>
#include <string>

#include "regex/char_class.h"

namespace cfgtag::tagger {

// One token detection. The hardware reports a token at the cycle its last
// byte is consumed (paper §3.4), so the primary coordinate is the *end*
// offset. `length` is filled by software reference parsers; engines that
// merge overlapping runs (the hardware and its functional model) report
// kUnknownLength.
struct Tag {
  static constexpr uint32_t kUnknownLength = 0;

  int32_t token = -1;   // token id in the tagger's grammar
  uint64_t end = 0;     // byte offset of the last byte of the match
  uint32_t length = kUnknownLength;

  friend bool operator==(const Tag& a, const Tag& b) {
    return a.token == b.token && a.end == b.end;
  }
  friend bool operator<(const Tag& a, const Tag& b) {
    return a.end != b.end ? a.end < b.end : a.token < b.token;
  }
};

// Streaming consumer of tags — the "back-end processor" interface of paper
// §3.5. Returning false stops the scan early.
using TagSink = std::function<bool(const Tag&)>;

// How the grammar's start tokens get armed (§3.3 offers the first two; the
// third implements the §5.2 "error recovery" future work).
enum class ArmMode {
  // Start tokens armed only at stream start: strict parse mode ("if the
  // beginning of the text is known, the starting tokenizers can be enabled
  // once at the beginning of the data").
  kAnchored,
  // Start tokens armed at every byte: scan mode ("look for all sequences
  // of tokens starting at every byte alignment of the data").
  kScan,
  // Start tokens additionally armed at every byte that follows a delimiter
  // (and at stream start): the parser re-synchronizes at token boundaries,
  // so it "continues processing from the point of the error" — and tags
  // streams of back-to-back messages without external framing.
  kResync,
};

// Knobs shared by the software engines and the hardware generator. They
// implement identical semantics for any given options value; the
// equivalence tests sweep these.
struct TaggerOptions {
  // Bytes that separate tokens. Arms survive a run of delimiters and are
  // consumed by the first non-delimiter byte (the Fig. 6 first-register
  // stall). Tokens never start on a delimiter byte.
  regex::CharClass delimiters = regex::CharClass::Whitespace();

  ArmMode arm_mode = ArmMode::kAnchored;

  // Fig. 7 longest-match look-ahead: suppress a match whose token run can
  // consume the next byte. Disable to see every intermediate detection.
  bool longest_match = true;

  // Lazy DFA: budget for the tagger's one transition table (interned
  // states, transition rows, emission lists, flush-padding records),
  // shared by all its sessions. Its storage is sized from this once, up
  // to 1 GiB's worth. Once it is full nothing is dropped: a stream that
  // misses takes one uncached fused step per byte until its Reset.
  size_t dfa_cache_bytes = 16u << 20;

  // Artifact serialization only: cap on the machine configurations the
  // ahead-of-time determinizer interns into the saved transition table.
  // The reachable (configuration x byte class) product is walked
  // breadth-first until the cap; whatever is left over is built lazily at
  // run time exactly as before. 0 disables AOT entirely.
  uint32_t aot_state_budget = 4096;
};

}  // namespace cfgtag::tagger

#endif  // CFGTAG_TAGGER_TAG_H_
