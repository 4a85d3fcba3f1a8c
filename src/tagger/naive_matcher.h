#ifndef CFGTAG_TAGGER_NAIVE_MATCHER_H_
#define CFGTAG_TAGGER_NAIVE_MATCHER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "tagger/skip_scan.h"
#include "tagger/tag.h"

namespace cfgtag::tagger {

// Context-free multi-pattern scanner (Aho–Corasick): the "naive pattern
// search" of the paper's introduction. It reports every occurrence of every
// pattern anywhere in the stream — which is exactly why it produces false
// positives that the context-aware tagger avoids (the bench_false_positive
// experiment).
//
// The automaton is one flat table over byte classes, the software form of
// the paper's character decoder (§3.2), which builds a decoder only for
// the bytes a pattern uses: bytes that appear in no pattern share class 0,
// every other byte has a class of its own. A state is its row offset in
// the table (node x classes, premultiplied), and each entry is the
// successor's offset with kOutputBit set when the successor reports a
// match, so a step is one table load and one bit test. Outputs are stored
// CSR-style per node: the node's own patterns in index order, then its
// failure chain's.
class NaiveMatcher {
 public:
  // Fails with kResourceExhausted when (pattern bytes + 1) x classes could
  // overflow the 31-bit premultiplied entries.
  static StatusOr<NaiveMatcher> Create(std::vector<std::string> patterns);

  // Create() for pattern sets known to fit; aborts where Create() fails.
  explicit NaiveMatcher(std::vector<std::string> patterns);

  // Calls `cb(pattern_index, end_offset)` for every occurrence, in stream
  // order; return false from the callback to stop. Runs SkipScanWith().
  void Scan(std::string_view input,
            const std::function<bool(int32_t, uint64_t)>& cb) const;

  // Same contract with a statically-dispatched callback, stepping every
  // byte: the form for short inputs (the NIDS context spans), where a
  // skip kernel call per return to the root costs more than the steps.
  template <typename Callback>
  void ScanWith(std::string_view input, Callback&& cb) const {
    const unsigned char* data =
        reinterpret_cast<const unsigned char*>(input.data());
    uint32_t state = 0;
    for (size_t i = 0; i < input.size(); ++i) {
      const uint32_t e = table_[state + class_of_[data[i]]];
      state = e & kStateMask;
      if ((e & kOutputBit) != 0 && !Emit(state, i, cb)) return;
    }
  }

  // Same matches, same order, as ScanWith(): the form for whole streams.
  // While the automaton sits at the root it jumps to the next byte that
  // leaves the root (RunScanner::FindFirstIn, the lazy DFA's idle-skip
  // kernels), so bytes that start no pattern are never stepped.
  template <typename Callback>
  void SkipScanWith(std::string_view input, Callback&& cb) const {
    const unsigned char* data =
        reinterpret_cast<const unsigned char*>(input.data());
    const size_t n = input.size();
    size_t i = 0;
    while (i < n) {
      i += root_exits_.FindFirstIn(input.data() + i, n - i);
      uint32_t state = 0;
      while (i < n) {
        const uint32_t e = table_[state + class_of_[data[i]]];
        state = e & kStateMask;
        if ((e & kOutputBit) != 0 && !Emit(state, i, cb)) return;
        ++i;
        if (state == 0) break;
      }
    }
  }

  // Convenience: all matches as tags (token = pattern index).
  std::vector<Tag> Matches(std::string_view input) const;

  size_t NumPatterns() const { return patterns_.size(); }
  const std::string& pattern(size_t i) const { return patterns_[i]; }

 private:
  static constexpr uint32_t kOutputBit = 1u << 31;
  static constexpr uint32_t kStateMask = kOutputBit - 1;

  // Reports the outputs of the state at premultiplied offset `state`;
  // false once the callback asks to stop.
  template <typename Callback>
  bool Emit(uint32_t state, size_t i, Callback& cb) const {
    const uint32_t node = state / num_classes_;
    for (size_t k = out_begin_[node]; k < out_begin_[node + 1]; ++k) {
      if (!cb(out_patterns_[k], static_cast<uint64_t>(i))) return false;
    }
    return true;
  }

  std::vector<std::string> patterns_;
  uint16_t class_of_[256];
  uint32_t num_classes_ = 1;
  std::vector<uint32_t> table_;  // nodes x num_classes_ entries
  std::vector<size_t> out_begin_;  // per node, plus one end offset
  std::vector<int32_t> out_patterns_;
  RunScanner root_exits_;  // bytes whose step leaves the root
};

}  // namespace cfgtag::tagger

#endif  // CFGTAG_TAGGER_NAIVE_MATCHER_H_
