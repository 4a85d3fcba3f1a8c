#ifndef CFGTAG_TAGGER_ARTIFACT_LOADER_H_
#define CFGTAG_TAGGER_ARTIFACT_LOADER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"
#include "grammar/grammar.h"
#include "tagger/artifact/format.h"
#include "tagger/fused_model.h"
#include "tagger/lazy_dfa.h"

namespace cfgtag::tagger::artifact {

// A tagger reconstructed from an artifact. Both header backend values
// load as a LazyDfaTagger: a kArtifactFused file is a lazy artifact with no
// baked table. The tagger's backing keeps both the mapped bytes and the
// rebuilt grammar alive, so the engine can be moved out and used on its
// own.
struct LoadedTagger {
  TaggerOptions options;  // reconstructed from the header
  uint64_t grammar_hash = 0;
  uint64_t options_hash = 0;
  size_t artifact_bytes = 0;
  uint32_t aot_states = 0;
  std::unique_ptr<LazyDfaTagger> lazy;
};

// Validates and binds an artifact already in memory. The bytes are copied
// once into 8-aligned owned storage (a string_view carries no alignment
// guarantee); every table view then points into that copy.
StatusOr<LoadedTagger> LoadFromMemory(std::string_view bytes);

// mmap(2)s the file read-only and binds the tagger's tables straight into
// the mapping — the zero-copy path: no table is deserialized, allocated,
// or touched until the engine reads it, and the page cache shares one copy
// across processes. Falls back to a plain read when mmap is unavailable.
//
// Every load fully validates the header (magic, version, endianness,
// size, checksum) and the section directory (kinds, element sizes,
// alignment, overflow-checked bounds), then cross-checks the tables
// against each other, so a truncated, corrupt, or crafted file is
// rejected with a typed error — InvalidArgument for malformed structure,
// OutOfRange for out-of-bounds offsets — never loaded.
//
// SIGBUS contract. A mapping over a file that later *shrinks* faults on
// access to the vanished tail — no userspace check can fully prevent it.
// The load narrows the window to near zero: the size is re-fstat'd on the
// same descriptor after mmap (a shrink between open and map is rejected
// as FailedPrecondition), and a shared flock(2) is held for the mapping's
// lifetime so cooperating writers (anything taking LOCK_EX before an
// in-place truncate) block until the last view is gone. Writers that
// replace artifacts atomically (write temp + rename, as AtomicWriteFile
// does) never trigger the hazard at all — the mapping keeps the old
// inode. Against a hostile or non-cooperating in-place truncator, use
// LoadFromFileCopied. The artifact's size is charged against
// core::resilience::ResourceBudget::Process() for the backing's lifetime;
// a load that would exceed the configured ceiling fails with
// ResourceExhausted instead of mapping.
StatusOr<LoadedTagger> LoadFromFile(const std::string& path);

// Like LoadFromFile but never maps: the artifact is pread(2) into owned
// aligned memory and validated from the copy. Immune to SIGBUS from
// concurrent truncation by construction (a shrink mid-read surfaces as a
// short-read error), at the cost of one up-front copy and no page-cache
// sharing across processes. The escape hatch for artifacts on media that
// other processes may truncate in place.
StatusOr<LoadedTagger> LoadFromFileCopied(const std::string& path);

}  // namespace cfgtag::tagger::artifact

#endif  // CFGTAG_TAGGER_ARTIFACT_LOADER_H_
