#ifndef CFGTAG_TAGGER_ARTIFACT_WRITER_H_
#define CFGTAG_TAGGER_ARTIFACT_WRITER_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "tagger/artifact/format.h"
#include "tagger/fused_model.h"
#include "tagger/tag.h"

namespace cfgtag::tagger::artifact {

// What to stamp into the artifact header alongside the tables. The hashes
// are the cache key: the writer stores them verbatim so a cache lookup can
// validate a candidate file without recompiling anything.
struct SerializeRequest {
  uint64_t grammar_hash = 0;
  uint64_t options_hash = 0;
  // AOT determinizer state budget (0 = no AOT region).
  uint32_t aot_state_budget = 0;
};

// Deterministic hash of the TaggerOptions fields that shape an artifact's
// tables (delimiter set, arm mode, longest-match, lazy-DFA cache knobs, AOT
// budget). Two options values that hash equal produce byte-identical
// artifacts for the same grammar — the other half of the content-addressed
// cache key next to grammar::CanonicalHash.
uint64_t OptionsHash(const TaggerOptions& options);

// Serializes the tagger's tables (plus a freshly built AOT DFA region) into
// the flat artifact format, in the lazy-DFA layout. The result is
// self-contained: Loader rebuilds a working tagger from these bytes alone.
StatusOr<std::string> SerializeTagger(const FusedTagger& fused,
                                      const SerializeRequest& req);

}  // namespace cfgtag::tagger::artifact

#endif  // CFGTAG_TAGGER_ARTIFACT_WRITER_H_
