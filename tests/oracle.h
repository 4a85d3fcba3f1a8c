#ifndef CFGTAG_TESTS_ORACLE_H_
#define CFGTAG_TESTS_ORACLE_H_

// The reference oracle the equivalence suites compare the production engine
// against: the FunctionalTagger (one Glushkov automaton stepped per token)
// run with CompiledTagger::Tag's stream contract — the input plus the flush
// padding, with tags that end at or past the scan end (input size +
// kFlushPadding) dropped. PaddedFeedTags is the other side of that
// contract: what a lazy-DFA session emits for the same bytes with no
// filter and no end-of-stream step, as CompiledTagger::Tag runs it.

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/token_tagger.h"
#include "grammar/grammar.h"
#include "reference/functional_model.h"
#include "tagger/lazy_dfa.h"
#include "tagger/tag.h"

namespace cfgtag::testing_oracle {

inline StatusOr<std::vector<tagger::Tag>> OracleTags(
    const grammar::Grammar& g, const tagger::TaggerOptions& opt,
    std::string_view input) {
  using core::CompiledTagger;
  CFGTAG_ASSIGN_OR_RETURN(tagger::FunctionalTagger oracle,
                          tagger::FunctionalTagger::Create(&g, opt));
  std::string padded(input);
  padded.append(CompiledTagger::kFlushPadding + 1,
                CompiledTagger::kFlushByte);
  const size_t scan_end = input.size() + CompiledTagger::kFlushPadding;
  std::vector<tagger::Tag> tags;
  oracle.Run(padded, [&](const tagger::Tag& t) {
    if (t.end < scan_end) tags.push_back(t);
    return true;
  });
  return tags;
}

inline std::vector<tagger::Tag> PaddedFeedTags(
    const tagger::LazyDfaTagger& lazy, std::string_view input) {
  using core::CompiledTagger;
  std::vector<tagger::Tag> tags;
  const tagger::TagSink sink = [&tags](const tagger::Tag& t) {
    tags.push_back(t);
    return true;
  };
  tagger::LazyDfaSession session = lazy.NewSession();
  session.Feed(input, sink);
  session.Feed(std::string(CompiledTagger::kFlushPadding + 1,
                           CompiledTagger::kFlushByte),
               sink);
  return tags;
}

}  // namespace cfgtag::testing_oracle

#endif  // CFGTAG_TESTS_ORACLE_H_
