#include "tagger/naive_matcher.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <numeric>

#include "regex/char_class.h"

namespace cfgtag::tagger {

namespace {

// Every state offset, and the class index added to it, must stay below
// the output bit: nodes x classes <= 2^31, with at most one node per
// pattern byte plus the root.
Status CheckFits(const std::vector<std::string>& patterns) {
  bool used[256] = {};
  uint64_t bytes = 0;
  for (const std::string& p : patterns) {
    bytes += p.size();
    for (char ch : p) used[static_cast<unsigned char>(ch)] = true;
  }
  uint64_t classes = 1;
  for (bool u : used) classes += u;
  if ((bytes + 1) * classes > (uint64_t{1} << 31)) {
    return ResourceExhaustedError(
        "Aho-Corasick table too large: " + std::to_string(bytes) +
        " pattern bytes x " + std::to_string(classes) +
        " byte classes overflows 31-bit entries");
  }
  return Status::Ok();
}

}  // namespace

StatusOr<NaiveMatcher> NaiveMatcher::Create(std::vector<std::string> patterns) {
  CFGTAG_RETURN_IF_ERROR(CheckFits(patterns));
  return NaiveMatcher(std::move(patterns));
}

NaiveMatcher::NaiveMatcher(std::vector<std::string> patterns)
    : patterns_(std::move(patterns)) {
  const Status fits = CheckFits(patterns_);
  if (!fits.ok()) {
    std::fprintf(stderr, "NaiveMatcher: %s\n", fits.ToString().c_str());
    std::abort();
  }
  // Byte classes: 0 for bytes no pattern uses, one each for the rest.
  std::fill(std::begin(class_of_), std::end(class_of_), 0);
  for (const std::string& p : patterns_) {
    for (char ch : p) class_of_[static_cast<unsigned char>(ch)] = 1;
  }
  uint32_t classes = 1;
  for (uint16_t& c : class_of_) {
    if (c != 0) c = static_cast<uint16_t>(classes++);
  }
  num_classes_ = classes;
  const uint32_t C = classes;

  // Trie over classes, built one depth at a time so node ids follow
  // depth (every failure target has a smaller id than its node). Entries
  // hold node ids until the end; 0 means "no edge", since no trie edge
  // leads back to the root.
  std::vector<uint32_t>& next = table_;
  next.assign(C, 0);
  uint32_t nodes = 1;
  std::vector<uint32_t> end_node(patterns_.size(), 0);
  std::vector<uint32_t> live(patterns_.size());
  std::iota(live.begin(), live.end(), 0);
  for (size_t depth = 0; !live.empty(); ++depth) {
    size_t kept = 0;
    for (uint32_t pi : live) {
      const std::string& p = patterns_[pi];
      if (p.size() == depth) continue;
      const size_t slot = static_cast<size_t>(end_node[pi]) * C +
                          class_of_[static_cast<unsigned char>(p[depth])];
      if (next[slot] == 0) {
        next[slot] = nodes++;
        next.resize(static_cast<size_t>(nodes) * C, 0);
      }
      end_node[pi] = next[slot];
      live[kept++] = pi;
    }
    live.resize(kept);
  }

  // Failure links in id order, completing the goto function into the
  // transition function (the root's missing edges already read 0), and
  // the CSR outputs: own patterns in index order, then the failure
  // target's, complete by then.
  std::vector<uint32_t> fail(nodes, 0);
  std::vector<int32_t> by_end(patterns_.size());
  std::iota(by_end.begin(), by_end.end(), 0);
  std::stable_sort(by_end.begin(), by_end.end(), [&](int32_t a, int32_t b) {
    return end_node[a] < end_node[b];
  });
  out_begin_.assign(nodes + 1, 0);
  size_t k = 0;
  for (uint32_t u = 0; u < nodes; ++u) {
    out_begin_[u] = out_patterns_.size();
    for (; k < by_end.size() && end_node[by_end[k]] == u; ++k) {
      out_patterns_.push_back(by_end[k]);
    }
    if (u == 0) continue;
    for (size_t j = out_begin_[fail[u]]; j < out_begin_[fail[u] + 1]; ++j) {
      const int32_t chained = out_patterns_[j];
      out_patterns_.push_back(chained);
    }
    const uint32_t* fail_row = &next[static_cast<size_t>(fail[u]) * C];
    uint32_t* row = &next[static_cast<size_t>(u) * C];
    for (uint32_t c = 0; c < C; ++c) {
      if (row[c] == 0) {
        row[c] = fail_row[c];
      } else {
        fail[row[c]] = fail_row[c];
      }
    }
  }
  out_begin_[nodes] = out_patterns_.size();

  // Premultiply: node id -> row offset, flagged when it reports a match.
  auto has_output = [&](uint32_t n) {
    return out_begin_[n + 1] != out_begin_[n];
  };
  for (uint32_t& e : table_) e = e * C | (has_output(e) ? kOutputBit : 0);

  regex::CharClass exits;
  for (int b = 0; b < 256; ++b) {
    if (has_output(0) || (table_[class_of_[b]] & kStateMask) != 0) {
      exits.Set(static_cast<unsigned char>(b));
    }
  }
  root_exits_ = RunScanner::ForSet(exits);
}

void NaiveMatcher::Scan(
    std::string_view input,
    const std::function<bool(int32_t, uint64_t)>& cb) const {
  SkipScanWith(input, cb);
}

std::vector<Tag> NaiveMatcher::Matches(std::string_view input) const {
  std::vector<Tag> out;
  Scan(input, [&](int32_t p, uint64_t end) {
    Tag t;
    t.token = p;
    t.end = end;
    t.length = static_cast<uint32_t>(patterns_[p].size());
    out.push_back(t);
    return true;
  });
  return out;
}

}  // namespace cfgtag::tagger
