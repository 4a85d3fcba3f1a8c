#ifndef CFGTAG_CORE_CONTEXT_TAGGER_H_
#define CFGTAG_CORE_CONTEXT_TAGGER_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/token_tagger.h"
#include "grammar/token_context.h"

namespace cfgtag::core {

// A tag enriched with its grammatical context — which production and RHS
// position matched, not just which pattern (paper §3.2: "for streaming
// applications, one would want to determine the context of the tokens
// during the detection process ... by automatically duplicating the tokens
// used in multiple contexts").
struct ContextTag {
  tagger::Tag tag;          // token id in the *expanded* grammar
  int32_t base_token = -1;  // token id in the original grammar
  int32_t production = -1;  // production index in the original grammar
  int32_t position = -1;    // RHS position; -1 for single-context tokens
};

// Compiles a grammar through the §3.2 context expansion: every multi-site
// token becomes one hardware tokenizer per site, so the tag stream reveals
// the grammatical role of each occurrence (e.g. the three [0-9][0-9]
// fields of a dateTime tag as HOUR vs MIN vs SEC even when they share one
// token definition).
class ContextualTagger {
 public:
  static StatusOr<ContextualTagger> Compile(
      const grammar::Grammar& grammar, const hwgen::HwOptions& options = {});

  // Tags with context: AnnotateTags over tagger().Tag(input).
  std::vector<ContextTag> Tag(std::string_view input) const;

  // Attaches each tag's context. The tags are of the expanded grammar,
  // tagger().grammar(): the software tagger's, or those of a
  // HardwareDesign built from that grammar (the cycle-accurate variant).
  std::vector<ContextTag> AnnotateTags(
      const std::vector<tagger::Tag>& tags) const;

  // Human-readable description of a tag's context, e.g.
  // "NUM in time -> NUM ':' NUM ':' NUM at position 2".
  std::string DescribeContext(const ContextTag& tag) const;

  const CompiledTagger& tagger() const { return tagger_; }
  const grammar::Grammar& original_grammar() const { return *original_; }

 private:
  ContextualTagger(std::unique_ptr<grammar::Grammar> original,
                   std::vector<grammar::TokenContext> contexts,
                   CompiledTagger tagger)
      : original_(std::move(original)),
        contexts_(std::move(contexts)),
        tagger_(std::move(tagger)) {}

  std::unique_ptr<grammar::Grammar> original_;
  std::vector<grammar::TokenContext> contexts_;  // by expanded token id
  CompiledTagger tagger_;
};

}  // namespace cfgtag::core

#endif  // CFGTAG_CORE_CONTEXT_TAGGER_H_
