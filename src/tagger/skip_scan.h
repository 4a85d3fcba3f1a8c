#ifndef CFGTAG_TAGGER_SKIP_SCAN_H_
#define CFGTAG_TAGGER_SKIP_SCAN_H_

#include <cstddef>
#include <cstdint>

#include "obs/metrics.h"
#include "regex/char_class.h"
#include "tagger/simd/dispatch.h"

namespace cfgtag::tagger {

// Which engine a RunScanner call runs through — exported as the `strategy`
// label on cfgtag_skip_bytes_total so a deployment can confirm the vector
// kernels are live.
enum class SkipStrategy : uint8_t {
  kNone = 0,  // nothing scanned (empty set, or a purely positional skip)
  kMemchr,    // single-member set: libc memchr
  kSwar,      // <= 8 members, scalar dispatch: 8-lane SWAR word loop
  kTable,     // scalar dispatch, large set: table loop
  kSimd,      // vector dispatch: shuffle membership, 16/32 bytes per step
};

inline constexpr int kNumSkipStrategies = 5;

const char* SkipStrategyName(SkipStrategy s);

// Multi-byte run scanner over a fixed byte set — the engine behind the
// lazy-DFA session's idle fast-skips. Both "skip
// while in the set" (delimiter runs) and "skip until the set" (resync
// garbage, armed-byte prefilter) reduce to finding the first byte on the
// other side of a membership test, so the scanner exposes exactly those
// two primitives.
//
// Calls dispatch through simd::Active(): under vector dispatch, arbitrary
// byte sets — not just the <= 8-member SWAR sets — skip 16/32 bytes per
// step via the exact truffle shuffle kernels; under scalar dispatch the
// strategy falls back per set population (memchr / SWAR / table, see
// SkipStrategy). Every tier returns identical indices.
class RunScanner {
 public:
  // An empty scanner: nothing is in the set.
  RunScanner();

  static RunScanner ForSet(const regex::CharClass& set);

  // Index of the first byte of data[0, n) NOT in the set; n if every byte
  // is a member.
  size_t FindFirstNotIn(const char* data, size_t n) const {
    return simd::Active().find_first_not_in(set_, data, n);
  }

  // Index of the first byte of data[0, n) in the set; n if none is.
  size_t FindFirstIn(const char* data, size_t n) const {
    return simd::Active().find_first_in(set_, data, n);
  }

  bool Test(unsigned char c) const { return set_.in_set[c] != 0; }

  int num_values() const { return set_.num_values; }

  // The strategy the *current* dispatch would use (metrics labelling; the
  // kernels re-decide per call, so a dispatch override mid-stream is safe).
  SkipStrategy strategy() const;

 private:
  simd::ByteSet set_;
};

// Process-wide accounting for the idle fast-skips (bytes that advanced the
// stream without stepping the machine), labelled by which skip fired
// (kind) and which scan engine found the run boundary (strategy).
// The lazy-DFA session's idle skipper (lazy_dfa.cc) is the one place that
// counts them, for cached and fallback stepping alike.
struct SkipMetrics {
  enum Kind : int {
    kDelimiter = 0,  // delimiter runs with no live state
    kAnchored,       // dead anchored-mode stream tails (positional, no scan)
    kResync,         // unarmed non-delimiter runs in resync mode
    kArmed,          // scan-mode idle runs of bytes that cannot arm anything
    kNumKinds,
  };

  obs::Counter* counters[kNumKinds][kNumSkipStrategies];

  obs::Counter* Of(Kind kind, SkipStrategy strategy) const {
    return counters[kind][static_cast<int>(strategy)];
  }

  static const SkipMetrics& Get();
};

}  // namespace cfgtag::tagger

#endif  // CFGTAG_TAGGER_SKIP_SCAN_H_
