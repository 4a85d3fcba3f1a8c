#include "tagger/artifact/writer.h"

#include <cstring>
#include <utility>
#include <vector>

#include "tagger/dfa_state.h"

namespace cfgtag::tagger::artifact {
namespace {

void AppendBytes(std::string* out, const void* p, size_t n) {
  out->append(static_cast<const char*>(p), n);
}

template <typename T>
void AppendPod(std::string* out, const T& v) {
  AppendBytes(out, &v, sizeof(T));
}

void AppendStr(std::string* out, const std::string& s) {
  AppendPod(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

struct Section {
  uint32_t kind = 0;
  uint32_t elem_size = 0;
  uint64_t count = 0;
  std::string payload;
};

template <typename T>
void AddPodSection(std::vector<Section>* secs, uint32_t kind, const T* data,
                   size_t count) {
  Section s;
  s.kind = kind;
  s.elem_size = sizeof(T);
  s.count = count;
  s.payload.assign(reinterpret_cast<const char*>(data), count * sizeof(T));
  secs->push_back(std::move(s));
}

// WordBits has 4 bytes of internal padding after `word`; write the fields
// element-wise with an explicit zero pad so the file bytes are
// deterministic regardless of what the heap copy's padding held.
void AddWordBitsSection(std::vector<Section>* secs, uint32_t kind,
                        const WordBits* data, size_t count) {
  Section s;
  s.kind = kind;
  s.elem_size = sizeof(WordBits);
  s.count = count;
  s.payload.reserve(count * sizeof(WordBits));
  const char zero[4] = {0, 0, 0, 0};
  for (size_t i = 0; i < count; ++i) {
    AppendPod(&s.payload, data[i].word);
    AppendBytes(&s.payload, zero, 4);
    AppendPod(&s.payload, data[i].bits);
  }
  secs->push_back(std::move(s));
}

// Structural grammar snapshot in *original* token/nonterminal order (the
// table indices in every other section refer to it). Rebuilt — not
// pointer-fixed — by the loader: regexes are re-derived from pattern /
// literal_text, so the blob holds no AST.
std::string GrammarBlob(const grammar::Grammar& g) {
  std::string out;
  AppendPod(&out, static_cast<uint32_t>(g.NumTokens()));
  for (const auto& t : g.tokens()) {
    AppendStr(&out, t.name);
    AppendStr(&out, t.pattern);
    AppendPod(&out, static_cast<uint8_t>(t.is_literal ? 1 : 0));
    AppendStr(&out, t.literal_text);
  }
  AppendPod(&out, static_cast<uint32_t>(g.NumNonterminals()));
  for (const auto& n : g.nonterminals()) AppendStr(&out, n);
  AppendPod(&out, static_cast<uint32_t>(g.productions().size()));
  for (const auto& p : g.productions()) {
    AppendPod(&out, static_cast<uint32_t>(p.lhs));
    AppendPod(&out, static_cast<uint32_t>(p.rhs.size()));
    for (const auto& s : p.rhs) {
      AppendPod(&out, static_cast<uint8_t>(s.IsTerminal() ? 0 : 1));
      AppendPod(&out, static_cast<uint32_t>(s.index));
    }
  }
  AppendPod(&out, static_cast<uint32_t>(g.start()));
  return out;
}

}  // namespace

uint64_t OptionsHash(const TaggerOptions& options) {
  uint64_t h = 0x4346475441474f50ULL;  // "CFGTAGOP"
  for (int base = 0; base < 256; base += 64) {
    uint64_t w = 0;
    for (int b = 0; b < 64; ++b) {
      if (options.delimiters.Test(static_cast<unsigned char>(base + b))) {
        w |= uint64_t{1} << b;
      }
    }
    h = HashMix64(h, w);
  }
  h = HashMix64(h, static_cast<uint64_t>(options.arm_mode));
  h = HashMix64(h, options.longest_match ? 1 : 0);
  h = HashMix64(h, options.dfa_cache_bytes);
  h = HashMix64(h, options.aot_state_budget);
  return h;
}

// Friend of FusedTagger: snapshots the private table views.
class Writer {
 public:
  static StatusOr<std::string> Run(const FusedTagger& f,
                                   const SerializeRequest& req) {
    std::vector<Section> secs;
    AddPodSection(&secs, kSecWordOffset, f.word_offset_.data(),
                  f.word_offset_.size());
    AddPodSection(&secs, kSecWordToken, f.word_token_.data(),
                  f.word_token_.size());
    AddPodSection(&secs, kSecClassIsDelim, f.class_is_delim_.data(),
                  f.class_is_delim_.size());
    AddPodSection(&secs, kSecClassCanArm, f.class_can_arm_.data(),
                  f.class_can_arm_.size());
    AddPodSection(&secs, kSecClassMask, f.class_mask_.data(),
                  f.class_mask_.size());
    AddPodSection(&secs, kSecExtMask, f.ext_mask_.data(), f.ext_mask_.size());
    AddPodSection(&secs, kSecAcceptMask, f.accept_mask_.data(),
                  f.accept_mask_.size());
    AddPodSection(&secs, kSecRowOffset, f.row_offset_.data(),
                  f.row_offset_.size());
    AddPodSection(&secs, kSecRowData, f.row_data_.data(), f.row_data_.size());
    AddWordBitsSection(&secs, kSecStartFirst, f.start_first_.data(),
                       f.start_first_.size());
    AddPodSection(&secs, kSecArmOffset, f.arm_offset_.data(),
                  f.arm_offset_.size());
    AddWordBitsSection(&secs, kSecArmPattern, f.arm_pattern_.data(),
                       f.arm_pattern_.size());
    const std::string grammar_blob = GrammarBlob(f.grammar());
    AddPodSection(&secs, kSecGrammar,
                  reinterpret_cast<const uint8_t*>(grammar_blob.data()),
                  grammar_blob.size());

    const DfaPool aot = BuildAotDfa(f, req.aot_state_budget);
    if (!aot.states.empty()) {
      // DfaStateInfo / DfaTrans have no internal padding holes (the one
      // pad byte is an explicit zero-initialized field), so the in-memory
      // arrays are already the serialized form.
      AddPodSection(&secs, kSecAotStates, aot.states.data(),
                    aot.states.size());
      AddPodSection(&secs, kSecAotTrans, aot.trans.data(), aot.trans.size());
      AddWordBitsSection(&secs, kSecAotSnap, aot.snap_pool.data(),
                         aot.snap_pool.size());
      AddPodSection(&secs, kSecAotEmit, aot.emit_pool.data(),
                    aot.emit_pool.size());
    }

    ArtifactHeader hdr;
    std::memset(&hdr, 0, sizeof(hdr));
    std::memcpy(hdr.magic, kArtifactMagic, sizeof(kArtifactMagic));
    hdr.version = kFormatVersion;
    hdr.endian_tag = kEndianTag;
    hdr.grammar_hash = req.grammar_hash;
    hdr.options_hash = req.options_hash;
    hdr.backend = kArtifactLazyDfa;
    hdr.arm_mode = static_cast<uint8_t>(f.options().arm_mode);
    hdr.longest_match = f.options().longest_match ? 1 : 0;
    hdr.num_classes = static_cast<uint32_t>(f.NumByteClasses());
    hdr.num_tokens = static_cast<uint32_t>(f.num_tokens_);
    hdr.num_words = static_cast<uint32_t>(f.num_words_);
    hdr.total_positions = static_cast<uint32_t>(f.total_positions_);
    hdr.dfa_cache_bytes = f.options().dfa_cache_bytes;
    hdr.aot_states = static_cast<uint32_t>(aot.states.size());
    hdr.num_sections = static_cast<uint32_t>(secs.size());
    std::memcpy(hdr.class_of, f.classifier().class_map(), 256);
    for (int b = 0; b < 256; ++b) {
      if (f.options().delimiters.Test(static_cast<unsigned char>(b))) {
        hdr.delim_set[b >> 3] |= static_cast<uint8_t>(1u << (b & 7));
      }
    }

    // Lay out: header, directory, then 8-aligned payloads.
    uint64_t offset = sizeof(ArtifactHeader) + secs.size() * sizeof(SectionEntry);
    std::vector<SectionEntry> dir(secs.size());
    for (size_t i = 0; i < secs.size(); ++i) {
      offset = (offset + 7) & ~uint64_t{7};
      dir[i].kind = secs[i].kind;
      dir[i].elem_size = secs[i].elem_size;
      dir[i].offset = offset;
      dir[i].count = secs[i].count;
      offset += secs[i].payload.size();
    }
    const uint64_t total = (offset + 7) & ~uint64_t{7};
    hdr.file_bytes = total;

    std::string out;
    out.reserve(total);
    AppendBytes(&out, &hdr, sizeof(hdr));
    for (const auto& e : dir) AppendBytes(&out, &e, sizeof(e));
    for (size_t i = 0; i < secs.size(); ++i) {
      out.resize(dir[i].offset, '\0');  // alignment padding
      out.append(secs[i].payload);
    }
    out.resize(total, '\0');

    const uint64_t checksum = ArtifactChecksum(out.data(), out.size());
    std::memcpy(out.data() + offsetof(ArtifactHeader, checksum), &checksum,
                sizeof(checksum));
    return out;
  }
};

StatusOr<std::string> SerializeTagger(const FusedTagger& fused,
                                      const SerializeRequest& req) {
  return Writer::Run(fused, req);
}

}  // namespace cfgtag::tagger::artifact
