#include "core/context_tagger.h"

#include "obs/trace.h"

namespace cfgtag::core {

StatusOr<ContextualTagger> ContextualTagger::Compile(
    const grammar::Grammar& grammar, const hwgen::HwOptions& options) {
  obs::ScopedSpan span("core.ContextualCompile");
  auto original = std::make_unique<grammar::Grammar>(grammar.Clone());
  auto expansion = [&] {
    obs::ScopedSpan stage("grammar.ExpandContexts");
    return grammar::ExpandContexts(grammar);
  }();
  if (!expansion.ok()) {
    return expansion.status().WithContext("context expansion");
  }
  CFGTAG_ASSIGN_OR_RETURN(
      auto tagger,
      CompiledTagger::Compile(std::move(expansion->grammar), options));
  return ContextualTagger(std::move(original),
                          std::move(expansion->contexts),
                          std::move(tagger));
}

std::vector<ContextTag> ContextualTagger::Tag(std::string_view input) const {
  return AnnotateTags(tagger_.Tag(input));
}

std::vector<ContextTag> ContextualTagger::AnnotateTags(
    const std::vector<tagger::Tag>& tags) const {
  std::vector<ContextTag> out;
  out.reserve(tags.size());
  for (const tagger::Tag& t : tags) {
    ContextTag& ct = out.emplace_back();
    ct.tag = t;
    if (t.token >= 0 && static_cast<size_t>(t.token) < contexts_.size()) {
      const grammar::TokenContext& ctx = contexts_[t.token];
      ct.base_token = ctx.base_token;
      ct.production = ctx.production;
      ct.position = ctx.position;
    }
  }
  return out;
}

std::string ContextualTagger::DescribeContext(const ContextTag& tag) const {
  if (tag.base_token < 0) return "<unknown>";
  std::string out = original_->tokens()[tag.base_token].name;
  if (tag.production < 0) return out;
  const grammar::Production& p = original_->productions()[tag.production];
  out += " in " + original_->nonterminals()[p.lhs] + " ->";
  for (const grammar::Symbol& s : p.rhs) {
    out += " " + original_->SymbolName(s);
  }
  out += " at position " + std::to_string(tag.position);
  return out;
}

}  // namespace cfgtag::core
