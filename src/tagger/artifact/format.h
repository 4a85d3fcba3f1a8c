#ifndef CFGTAG_TAGGER_ARTIFACT_FORMAT_H_
#define CFGTAG_TAGGER_ARTIFACT_FORMAT_H_

#include <cstddef>
#include <cstdint>

#include "common/hash.h"

namespace cfgtag::tagger::artifact {

// ---------------------------------------------------------------------------
// Compiled-tagger artifact: a versioned, checksummed, relocatable flat
// binary holding every table a LazyDfaTagger (and the FusedTagger it
// memoizes) reads at run time, plus an optional ahead-of-time determinized
// DFA region. All cross-references are *offsets from the start of the file*,
// never pointers, and every section payload is 8-byte aligned, so the file
// can be mmap'd read-only and the engine's table views bound straight into
// the mapping — no fix-ups, no per-load allocation of the hot tables, and
// one mapping shared by any number of processes.
//
// Layout:
//   ArtifactHeader                  (fixed size, holds the two 256-entry
//                                    byte tables inline)
//   SectionEntry[num_sections]      (the section directory)
//   ...payloads, 8-aligned...
//
// Versioning policy (docs/artifact_cache.md): the format carries a single
// monotonically increasing version; loaders accept exactly their own
// version (no forward/backward compat shims — an artifact is a cache
// entry, and the compiler that produced it is always available to rebuild
// it). Anything that changes table layout, the hash/mix primitive, the
// DFA state hashing, or byte-class assignment MUST bump kFormatVersion.
// ---------------------------------------------------------------------------

inline constexpr char kArtifactMagic[8] = {'C', 'F', 'G', 'T',
                                           'A', 'G', 'A', 'F'};
inline constexpr uint32_t kFormatVersion = 1;
// Written as a native uint32; a loader on the other endianness reads it
// permuted and rejects the file (the tables are native-endian throughout,
// so cross-endian loading is deliberately not supported).
inline constexpr uint32_t kEndianTag = 0x01020304;
inline constexpr uint64_t kChecksumSeed = 0x4346475441474353ULL;

// Section payload kinds. elem_size in the directory entry is the
// serialized element size and must match what the loader expects for the
// kind — a cheap structural check before any offset math.
enum SectionKind : uint32_t {
  kSecWordOffset = 1,    // uint32[num_tokens + 1]
  kSecWordToken = 2,     // int32[num_words]
  kSecClassIsDelim = 3,  // uint8[num_classes]
  kSecClassCanArm = 4,   // uint8[num_classes]
  kSecClassMask = 5,     // uint64[num_classes * num_words]
  kSecExtMask = 6,       // uint64[num_classes * num_words]
  kSecAcceptMask = 7,    // uint64[num_words]
  kSecRowOffset = 8,     // uint32[num_words * 64]
  kSecRowData = 9,       // uint64[]
  kSecStartFirst = 10,   // WordBits[]
  kSecArmOffset = 11,    // uint32[num_tokens + 1]
  kSecArmPattern = 12,   // WordBits[]
  kSecGrammar = 13,      // structural grammar blob, uint8[]
  kSecAotStates = 14,    // DfaStateInfo[aot_states]
  kSecAotTrans = 15,     // DfaTrans[aot_states * num_classes]
  kSecAotSnap = 16,      // WordBits[]
  kSecAotEmit = 17,      // int32[]
};

// The header's backend byte. Writers emit kArtifactLazyDfa; files with
// kArtifactFused (never an AOT region) still load, as lazy artifacts.
enum ArtifactBackend : uint8_t {
  kArtifactFused = 1,
  kArtifactLazyDfa = 2,
};

struct SectionEntry {
  uint32_t kind = 0;
  uint32_t elem_size = 0;
  uint64_t offset = 0;  // absolute byte offset from the start of the file
  uint64_t count = 0;   // number of elements
};
static_assert(sizeof(SectionEntry) == 24, "section directory is serialized");

struct ArtifactHeader {
  char magic[8];
  uint32_t version;
  uint32_t endian_tag;
  uint64_t file_bytes;  // total file size; must match exactly
  uint64_t checksum;    // HashBytes64 of the whole file with this field 0
  uint64_t grammar_hash;  // grammar::CanonicalHash of the source grammar
  uint64_t options_hash;  // hash of the TaggerOptions that shaped the tables
  uint8_t backend;        // ArtifactBackend
  uint8_t arm_mode;       // tagger::ArmMode
  uint8_t longest_match;
  uint8_t reserved0;
  uint32_t num_classes;
  uint32_t num_tokens;
  uint32_t num_words;
  uint32_t total_positions;
  uint32_t reserved1;  // written 0, ignored on load
  uint64_t dfa_cache_bytes;
  uint32_t aot_states;  // baked DFA states (0 = no AOT region)
  uint32_t num_sections;
  uint8_t class_of[256];  // byte -> class id
  uint8_t delim_set[32];  // delimiter byte set, bit b of word b/8
};
static_assert(sizeof(ArtifactHeader) == 376, "header layout is the format");
static_assert(offsetof(ArtifactHeader, checksum) == 24,
              "checksum field offset is baked into Checksum()");

// Whole-buffer checksum with the header's checksum field treated as zero.
// `data` must hold at least sizeof(ArtifactHeader) bytes.
uint64_t ArtifactChecksum(const void* data, size_t size);

}  // namespace cfgtag::tagger::artifact

#endif  // CFGTAG_TAGGER_ARTIFACT_FORMAT_H_
