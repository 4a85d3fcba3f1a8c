#include "tagger/artifact/loader.h"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/resilience/budget.h"
#include "core/resilience/fault_injector.h"
#include "regex/regex_parser.h"
#include "tagger/dfa_state.h"

namespace cfgtag::tagger::artifact {
namespace {

// Owns everything a loaded tagger's views point into: the artifact bytes
// (mapping or aligned copy) and the grammar rebuilt from the blob. Shared
// as the taggers' backing_, so moving an engine out of LoadedTagger keeps
// both alive for its whole life.
struct Backing {
  std::shared_ptr<const void> bytes;
  std::unique_ptr<grammar::Grammar> grammar;
};

// Bounds-checked cursor over the grammar blob.
class BlobReader {
 public:
  BlobReader(const char* p, size_t n) : p_(p), n_(n) {}

  bool ReadU8(uint8_t* v) {
    if (n_ - off_ < 1) return false;
    *v = static_cast<uint8_t>(p_[off_++]);
    return true;
  }
  bool ReadU32(uint32_t* v) {
    if (n_ - off_ < 4) return false;
    std::memcpy(v, p_ + off_, 4);
    off_ += 4;
    return true;
  }
  bool ReadStr(std::string* s) {
    uint32_t len;
    if (!ReadU32(&len) || n_ - off_ < len) return false;
    s->assign(p_ + off_, len);
    off_ += len;
    return true;
  }
  bool AtEnd() const { return off_ == n_; }

 private:
  const char* p_;
  size_t n_;
  size_t off_ = 0;
};

StatusOr<std::unique_ptr<grammar::Grammar>> ParseGrammarBlob(const char* data,
                                                             size_t size) {
  auto fail = [] {
    return InvalidArgumentError("artifact: malformed grammar section");
  };
  BlobReader r(data, size);
  auto g = std::make_unique<grammar::Grammar>();
  uint32_t num_tokens;
  if (!r.ReadU32(&num_tokens)) return fail();
  for (uint32_t i = 0; i < num_tokens; ++i) {
    grammar::TokenDef def;
    uint8_t is_literal;
    if (!r.ReadStr(&def.name) || !r.ReadStr(&def.pattern) ||
        !r.ReadU8(&is_literal) || !r.ReadStr(&def.literal_text) ||
        is_literal > 1) {
      return fail();
    }
    def.is_literal = is_literal != 0;
    // The blob carries no AST: regexes are re-derived exactly the way
    // Grammar::AddToken / AddLiteralToken derive them at parse time.
    if (def.is_literal) {
      if (def.literal_text.empty()) return fail();
      def.regex = regex::RegexNode::FromString(def.literal_text);
    } else {
      CFGTAG_ASSIGN_OR_RETURN(auto re, regex::ParseRegex(def.pattern));
      def.regex = std::move(re);
    }
    g->AddTokenDef(std::move(def));
  }
  uint32_t num_nts;
  if (!r.ReadU32(&num_nts)) return fail();
  for (uint32_t i = 0; i < num_nts; ++i) {
    std::string name;
    if (!r.ReadStr(&name)) return fail();
    // AddNonterminal dedups by name; a blob with duplicate names would
    // shift indices and then fail Validate() below.
    g->AddNonterminal(name);
  }
  uint32_t num_prods;
  if (!r.ReadU32(&num_prods)) return fail();
  for (uint32_t i = 0; i < num_prods; ++i) {
    uint32_t lhs, rhs_len;
    if (!r.ReadU32(&lhs) || lhs >= num_nts || !r.ReadU32(&rhs_len) ||
        rhs_len > size) {
      return fail();
    }
    std::vector<grammar::Symbol> rhs;
    rhs.reserve(rhs_len);
    for (uint32_t k = 0; k < rhs_len; ++k) {
      uint8_t kind;
      uint32_t index;
      if (!r.ReadU8(&kind) || kind > 1 || !r.ReadU32(&index)) return fail();
      if (kind == 0 ? index >= num_tokens : index >= num_nts) return fail();
      rhs.push_back(kind == 0
                        ? grammar::Symbol::Terminal(static_cast<int32_t>(index))
                        : grammar::Symbol::Nonterminal(
                              static_cast<int32_t>(index)));
    }
    g->AddProduction(static_cast<int32_t>(lhs), std::move(rhs));
  }
  uint32_t start;
  if (!r.ReadU32(&start) || start >= num_nts || !r.AtEnd()) return fail();
  g->SetStart(static_cast<int32_t>(start));
  CFGTAG_RETURN_IF_ERROR(g->Validate());
  return g;
}

// The section directory after structural validation: one entry per kind,
// payload pointer already bounds-checked against the file.
struct Sections {
  struct View {
    const char* data = nullptr;
    uint64_t count = 0;
  };
  std::unordered_map<uint32_t, View> by_kind;

  const View* Find(uint32_t kind) const {
    auto it = by_kind.find(kind);
    return it == by_kind.end() ? nullptr : &it->second;
  }
};

uint32_t ExpectedElemSize(uint32_t kind) {
  switch (kind) {
    case kSecClassIsDelim:
    case kSecClassCanArm:
    case kSecGrammar:
      return 1;
    case kSecWordOffset:
    case kSecWordToken:
    case kSecRowOffset:
    case kSecArmOffset:
    case kSecAotEmit:
      return 4;
    case kSecClassMask:
    case kSecExtMask:
    case kSecAcceptMask:
    case kSecRowData:
      return 8;
    case kSecStartFirst:
    case kSecArmPattern:
    case kSecAotSnap:
      return sizeof(WordBits);
    case kSecAotStates:
      return sizeof(DfaStateInfo);
    case kSecAotTrans:
      return sizeof(DfaTrans);
    default:
      return 0;
  }
}

Status ValidateDirectory(const char* data, size_t size,
                         const ArtifactHeader& hdr, Sections* out) {
  const uint64_t dir_end = sizeof(ArtifactHeader) +
                           uint64_t{hdr.num_sections} * sizeof(SectionEntry);
  if (hdr.num_sections > 64 || dir_end > size) {
    return InvalidArgumentError("artifact: section directory out of bounds");
  }
  for (uint32_t i = 0; i < hdr.num_sections; ++i) {
    SectionEntry e;
    std::memcpy(&e, data + sizeof(ArtifactHeader) + i * sizeof(SectionEntry),
                sizeof(e));
    const uint32_t elem = ExpectedElemSize(e.kind);
    if (elem == 0 || e.elem_size != elem) {
      return InvalidArgumentError("artifact: unknown section kind or size");
    }
    if ((e.offset & 7) != 0) {
      return InvalidArgumentError("artifact: misaligned section payload");
    }
    // Overflow-safe bounds: divide, never multiply.
    if (e.offset > size || e.count > (size - e.offset) / elem) {
      return OutOfRangeError("artifact: section payload out of bounds");
    }
    if (!out->by_kind.emplace(e.kind, Sections::View{data + e.offset, e.count})
             .second) {
      return InvalidArgumentError("artifact: duplicate section");
    }
  }
  return Status::Ok();
}

template <typename T>
TableView<T> AsView(const Sections::View& v) {
  return {reinterpret_cast<const T*>(v.data), static_cast<size_t>(v.count)};
}

}  // namespace

// Friend of FusedTagger (and, via Wrap, feeder of LazyDfaTagger): performs
// all cross-table validation, then binds a tagger's views into the mapped
// bytes without copying any table.
class Loader {
 public:
  static StatusOr<LoadedTagger> Load(std::shared_ptr<const void> owner,
                                     const char* data, size_t size) {
    // --- Header ---------------------------------------------------------
    if (size < sizeof(ArtifactHeader)) {
      return InvalidArgumentError("artifact: file shorter than header");
    }
    ArtifactHeader hdr;
    std::memcpy(&hdr, data, sizeof(hdr));
    if (std::memcmp(hdr.magic, kArtifactMagic, sizeof(kArtifactMagic)) != 0) {
      return InvalidArgumentError("artifact: bad magic");
    }
    if (hdr.version != kFormatVersion) {
      return InvalidArgumentError("artifact: unsupported format version");
    }
    if (hdr.endian_tag != kEndianTag) {
      return InvalidArgumentError("artifact: endianness mismatch");
    }
    if (hdr.file_bytes != size) {
      return InvalidArgumentError("artifact: truncated or padded file");
    }
    if (ArtifactChecksum(data, size) != hdr.checksum) {
      return InvalidArgumentError("artifact: checksum mismatch");
    }
    if (hdr.backend != kArtifactFused && hdr.backend != kArtifactLazyDfa) {
      return InvalidArgumentError("artifact: unknown backend");
    }
    if (hdr.arm_mode > static_cast<uint8_t>(ArmMode::kResync) ||
        hdr.longest_match > 1) {
      return InvalidArgumentError("artifact: bad option byte");
    }
    if (hdr.num_classes == 0 || hdr.num_classes > 256 ||
        hdr.num_tokens == 0 || hdr.num_words == 0) {
      return InvalidArgumentError("artifact: degenerate table shape");
    }
    for (int b = 0; b < 256; ++b) {
      if (hdr.class_of[b] >= hdr.num_classes) {
        return OutOfRangeError("artifact: byte class out of range");
      }
    }
    // Every class must actually occur so Representative() is defined.
    {
      std::vector<uint8_t> seen(hdr.num_classes, 0);
      for (int b = 0; b < 256; ++b) seen[hdr.class_of[b]] = 1;
      for (uint32_t c = 0; c < hdr.num_classes; ++c) {
        if (!seen[c]) {
          return InvalidArgumentError("artifact: empty byte class");
        }
      }
    }

    Sections secs;
    CFGTAG_RETURN_IF_ERROR(ValidateDirectory(data, size, hdr, &secs));

    // --- Required sections, shape cross-checks --------------------------
    auto need = [&](uint32_t kind, uint64_t count,
                    const char* what) -> StatusOr<Sections::View> {
      const Sections::View* v = secs.Find(kind);
      if (v == nullptr) {
        return InvalidArgumentError(std::string("artifact: missing section: ") +
                                    what);
      }
      if (v->count != count) {
        return InvalidArgumentError(
            std::string("artifact: wrong element count: ") + what);
      }
      return *v;
    };
    const uint64_t nt = hdr.num_tokens, nw = hdr.num_words,
                   nc = hdr.num_classes;
    CFGTAG_ASSIGN_OR_RETURN(auto sec_word_offset,
                            need(kSecWordOffset, nt + 1, "word_offset"));
    CFGTAG_ASSIGN_OR_RETURN(auto sec_word_token,
                            need(kSecWordToken, nw, "word_token"));
    CFGTAG_ASSIGN_OR_RETURN(auto sec_is_delim,
                            need(kSecClassIsDelim, nc, "class_is_delim"));
    CFGTAG_ASSIGN_OR_RETURN(auto sec_can_arm,
                            need(kSecClassCanArm, nc, "class_can_arm"));
    CFGTAG_ASSIGN_OR_RETURN(auto sec_class_mask,
                            need(kSecClassMask, nc * nw, "class_mask"));
    CFGTAG_ASSIGN_OR_RETURN(auto sec_ext_mask,
                            need(kSecExtMask, nc * nw, "ext_mask"));
    CFGTAG_ASSIGN_OR_RETURN(auto sec_accept,
                            need(kSecAcceptMask, nw, "accept_mask"));
    CFGTAG_ASSIGN_OR_RETURN(auto sec_row_offset,
                            need(kSecRowOffset, nw * 64, "row_offset"));
    const Sections::View* sec_row_data = secs.Find(kSecRowData);
    const Sections::View* sec_start_first = secs.Find(kSecStartFirst);
    const Sections::View* sec_arm_pattern = secs.Find(kSecArmPattern);
    const Sections::View* sec_grammar = secs.Find(kSecGrammar);
    if (sec_row_data == nullptr || sec_start_first == nullptr ||
        sec_arm_pattern == nullptr || sec_grammar == nullptr) {
      return InvalidArgumentError("artifact: missing section");
    }
    CFGTAG_ASSIGN_OR_RETURN(auto sec_arm_offset,
                            need(kSecArmOffset, nt + 1, "arm_offset"));

    const auto word_offset = AsView<uint32_t>(sec_word_offset);
    if (word_offset[0] != 0 || word_offset.back() != nw) {
      return OutOfRangeError("artifact: word_offset endpoints");
    }
    for (size_t t = 0; t < nt; ++t) {
      if (word_offset[t] > word_offset[t + 1]) {
        return OutOfRangeError("artifact: word_offset not monotonic");
      }
    }
    const auto word_token = AsView<int32_t>(sec_word_token);
    for (size_t w = 0; w < nw; ++w) {
      const int32_t t = word_token[w];
      if (t < 0 || static_cast<uint64_t>(t) >= nt ||
          w < word_offset[t] || w >= word_offset[t + 1]) {
        return OutOfRangeError("artifact: word_token inconsistent");
      }
    }
    // Every possible follow-row access stays inside row_data: for any
    // global bit of token t, the row spans t's word width.
    const auto row_offset = AsView<uint32_t>(sec_row_offset);
    for (size_t t = 0; t < nt; ++t) {
      const uint64_t width = word_offset[t + 1] - word_offset[t];
      for (uint64_t gb = uint64_t{word_offset[t]} * 64;
           gb < uint64_t{word_offset[t + 1]} * 64; ++gb) {
        if (uint64_t{row_offset[gb]} + width > sec_row_data->count) {
          return OutOfRangeError("artifact: follow row out of bounds");
        }
      }
    }
    const auto start_first = AsView<WordBits>(*sec_start_first);
    for (const WordBits& wb : start_first) {
      if (wb.word >= nw) {
        return OutOfRangeError("artifact: start_first word out of range");
      }
    }
    const auto arm_offset = AsView<uint32_t>(sec_arm_offset);
    if (arm_offset[0] != 0 || arm_offset.back() != sec_arm_pattern->count) {
      return OutOfRangeError("artifact: arm_offset endpoints");
    }
    for (size_t t = 0; t < nt; ++t) {
      if (arm_offset[t] > arm_offset[t + 1]) {
        return OutOfRangeError("artifact: arm_offset not monotonic");
      }
    }
    const auto arm_pattern = AsView<WordBits>(*sec_arm_pattern);
    for (const WordBits& wb : arm_pattern) {
      if (wb.word >= nw) {
        return OutOfRangeError("artifact: arm_pattern word out of range");
      }
    }

    // --- Grammar --------------------------------------------------------
    CFGTAG_ASSIGN_OR_RETURN(
        auto grammar,
        ParseGrammarBlob(sec_grammar->data,
                         static_cast<size_t>(sec_grammar->count)));
    if (grammar->NumTokens() != nt) {
      return InvalidArgumentError("artifact: grammar/table token mismatch");
    }

    // --- AOT region -----------------------------------------------------
    const Sections::View* sec_aot_states = secs.Find(kSecAotStates);
    std::shared_ptr<AotDfaTable> aot;
    if (hdr.aot_states > 0) {
      if (hdr.backend != kArtifactLazyDfa) {
        return InvalidArgumentError("artifact: AOT region on fused backend");
      }
      CFGTAG_ASSIGN_OR_RETURN(
          auto sec_states, need(kSecAotStates, hdr.aot_states, "aot_states"));
      CFGTAG_ASSIGN_OR_RETURN(
          auto sec_trans,
          need(kSecAotTrans, uint64_t{hdr.aot_states} * nc, "aot_trans"));
      const Sections::View* sec_snap = secs.Find(kSecAotSnap);
      const Sections::View* sec_emit = secs.Find(kSecAotEmit);
      if (sec_snap == nullptr || sec_emit == nullptr) {
        return InvalidArgumentError("artifact: missing AOT pool section");
      }
      const auto states = AsView<DfaStateInfo>(sec_states);
      const auto trans = AsView<DfaTrans>(sec_trans);
      const auto snap = AsView<WordBits>(*sec_snap);
      const auto emit = AsView<int32_t>(*sec_emit);
      for (const DfaStateInfo& s : states) {
        if (uint64_t{s.snap_begin} + s.num_state + s.num_armed > snap.size() ||
            s.pending_cls < -1 ||
            static_cast<int32_t>(s.pending_cls) >= static_cast<int32_t>(nc) ||
            s.prev_delim > 1) {
          return OutOfRangeError("artifact: AOT state out of bounds");
        }
      }
      for (const WordBits& wb : snap) {
        if (wb.word >= nw) {
          return OutOfRangeError("artifact: AOT snapshot word out of range");
        }
      }
      for (const DfaTrans& tr : trans) {
        if (tr.next < -1 ||
            static_cast<int64_t>(tr.next) >=
                static_cast<int64_t>(hdr.aot_states) ||
            uint64_t{tr.emit_begin} + tr.emit_count > emit.size()) {
          return OutOfRangeError("artifact: AOT transition out of bounds");
        }
      }
      for (const int32_t tok : emit) {
        if (tok < 0 || static_cast<uint64_t>(tok) >= nt) {
          return OutOfRangeError("artifact: AOT emission token out of range");
        }
      }
      aot = std::make_shared<AotDfaTable>();
      aot->states = states;
      aot->trans = trans;
      aot->snap_pool = snap;
      aot->emit_pool = emit;
      aot->num_classes = nc;
      aot->BuildIndex();
    } else if (sec_aot_states != nullptr || secs.Find(kSecAotTrans) ||
               secs.Find(kSecAotSnap) || secs.Find(kSecAotEmit)) {
      return InvalidArgumentError("artifact: unexpected AOT section");
    }

    // --- Reconstruct options and bind the tagger ------------------------
    TaggerOptions options;
    options.delimiters = regex::CharClass();
    for (int b = 0; b < 256; ++b) {
      if (hdr.delim_set[b >> 3] & (1u << (b & 7))) {
        options.delimiters.Set(static_cast<unsigned char>(b));
      }
    }
    options.arm_mode = static_cast<ArmMode>(hdr.arm_mode);
    options.longest_match = hdr.longest_match != 0;
    options.dfa_cache_bytes = hdr.dfa_cache_bytes;
    options.aot_state_budget = hdr.aot_states;

    auto backing = std::make_shared<Backing>();
    backing->bytes = std::move(owner);
    backing->grammar = std::move(grammar);

    FusedTagger t(backing->grammar.get(), options);
    t.num_tokens_ = static_cast<size_t>(nt);
    t.num_words_ = static_cast<size_t>(nw);
    t.meta_words_ = (t.num_words_ + 63) / 64;
    t.total_positions_ = hdr.total_positions;
    t.classifier_ =
        ByteClassifier::FromMap(hdr.class_of,
                                static_cast<uint16_t>(hdr.num_classes));
    t.word_offset_ = word_offset;
    t.word_token_ = word_token;
    t.class_is_delim_ = AsView<uint8_t>(sec_is_delim);
    t.class_can_arm_ = AsView<uint8_t>(sec_can_arm);
    t.class_mask_ = AsView<uint64_t>(sec_class_mask);
    t.ext_mask_ = AsView<uint64_t>(sec_ext_mask);
    t.accept_mask_ = AsView<uint64_t>(sec_accept);
    t.row_offset_ = row_offset;
    t.row_data_ = AsView<uint64_t>(*sec_row_data);
    t.start_first_ = start_first;
    t.arm_pattern_ = arm_pattern;
    t.arm_offset_ = arm_offset;
    t.backing_ = backing;
    t.BuildDerived();

    LoadedTagger out;
    out.options = options;
    out.grammar_hash = hdr.grammar_hash;
    out.options_hash = hdr.options_hash;
    out.artifact_bytes = size;
    out.aot_states = hdr.aot_states;
    if (aot != nullptr) aot->backing = backing;
    out.lazy = std::make_unique<LazyDfaTagger>(
        LazyDfaTagger::Wrap(std::move(t), std::move(aot)));
    return out;
  }
};

StatusOr<LoadedTagger> LoadFromMemory(std::string_view bytes) {
  // Copy into 8-aligned owned storage: string_view data carries no
  // alignment guarantee and the table views require natural alignment.
  auto copy = std::make_shared<std::vector<uint64_t>>((bytes.size() + 7) / 8);
  // memcpy's pointers must be non-null even for zero bytes, and an empty
  // vector's data() may be null.
  if (!bytes.empty()) std::memcpy(copy->data(), bytes.data(), bytes.size());
  const char* data = reinterpret_cast<const char*>(copy->data());
  return Loader::Load(std::shared_ptr<const void>(copy, copy->data()), data,
                      bytes.size());
}

namespace {

namespace res = cfgtag::core::resilience;

// Opens `path` and charges its size against the process budget. On success
// *fd_out is an open descriptor (with a best-effort shared flock for the
// mmap path) and *size_out the fstat'd size; the caller owns releasing the
// budget charge and closing the descriptor.
Status OpenAndCharge(const std::string& path, bool lock, int* fd_out,
                     size_t* size_out) {
  if (res::FaultInjector::ShouldFail("artifact.open")) {
    return InternalError("artifact: open failed (fault injected) " + path);
  }
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return NotFoundError("artifact: cannot open " + path);
  }
  struct stat st;
  if (res::FaultInjector::ShouldFail("artifact.fstat") ||
      ::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return InternalError("artifact: cannot stat " + path);
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    return InvalidArgumentError("artifact: empty file " + path);
  }
  if (lock) {
    // Best-effort shared lock, held for the mapping's lifetime: a
    // cooperating writer that takes LOCK_EX before truncating in place
    // cannot pull pages out from under a live mapping. Non-blocking and
    // advisory — failure (NFS, contention) just means no extra guard.
    (void)::flock(fd, LOCK_SH | LOCK_NB);
  }
  const Status charged =
      res::ResourceBudget::Process().TryCharge(size, "artifact");
  if (!charged.ok()) {
    ::close(fd);
    return charged.WithContext("artifact: load " + path);
  }
  *fd_out = fd;
  *size_out = size;
  return Status::Ok();
}

// Reads the whole artifact into 8-aligned owned storage via pread(2) and
// binds from the copy. The caller has already charged `size`; the returned
// tagger's backing releases it. Closes `fd` before returning either way.
StatusOr<LoadedTagger> LoadCopiedFromFd(int fd, size_t size,
                                        const std::string& path) {
  auto copy = std::make_shared<std::vector<uint64_t>>((size + 7) / 8);
  char* dst = reinterpret_cast<char*>(copy->data());
  size_t got = 0;
  while (got < size) {
    if (res::FaultInjector::ShouldFail("artifact.read")) {
      ::close(fd);
      res::ResourceBudget::Process().Release(size);
      return InternalError("artifact: read failed (fault injected) " + path);
    }
    const ssize_t n = ::pread(fd, dst + got, size - got,
                              static_cast<off_t>(got));
    if (n <= 0) {
      // A shrunken file surfaces here as a short read — a clean typed
      // error, never a SIGBUS, which is the whole point of this path.
      ::close(fd);
      res::ResourceBudget::Process().Release(size);
      return InternalError("artifact: short read on " + path);
    }
    got += static_cast<size_t>(n);
  }
  ::close(fd);
  std::shared_ptr<const void> owner(
      static_cast<const void*>(copy->data()),
      [copy, size](const void*) mutable {
        res::ResourceBudget::Process().Release(size);
        copy.reset();
      });
  return Loader::Load(std::move(owner), dst, size);
}

}  // namespace

StatusOr<LoadedTagger> LoadFromFile(const std::string& path) {
  int fd = -1;
  size_t size = 0;
  CFGTAG_RETURN_IF_ERROR(OpenAndCharge(path, /*lock=*/true, &fd, &size));
  void* map = MAP_FAILED;
  if (!res::FaultInjector::ShouldFail("artifact.mmap")) {
    map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  }
  if (map != MAP_FAILED) {
    // Re-verify the size on the same fd after mapping: a file truncated
    // between open and mmap would pass every header check (the early pages
    // may still be resident) and SIGBUS only later, on first fault-in of
    // the missing tail. Rejecting the shrink here turns that crash into a
    // typed error. A shrink after this point is covered by the advisory
    // flock for cooperating writers; see the SIGBUS contract in loader.h.
    struct stat st2;
    if (res::FaultInjector::ShouldFail("artifact.fstat") ||
        ::fstat(fd, &st2) != 0 ||
        static_cast<uint64_t>(st2.st_size) < size) {
      ::munmap(map, size);
      ::close(fd);
      res::ResourceBudget::Process().Release(size);
      return FailedPreconditionError(
          "artifact: file shrank after open (concurrent truncation?): " +
          path);
    }
    // The deleter owns the mapping, the budget charge, and the locked fd —
    // closing the fd last drops the flock only once no view can fault.
    std::shared_ptr<const void> owner(map, [size, fd](void* p) {
      ::munmap(p, size);
      res::ResourceBudget::Process().Release(size);
      ::close(fd);
    });
    const char* data = static_cast<const char*>(map);
    return Loader::Load(std::move(owner), data, size);
  }
  // mmap unavailable (exotic filesystem) or fault-forced: aligned copy.
  return LoadCopiedFromFd(fd, size, path);
}

StatusOr<LoadedTagger> LoadFromFileCopied(const std::string& path) {
  int fd = -1;
  size_t size = 0;
  CFGTAG_RETURN_IF_ERROR(OpenAndCharge(path, /*lock=*/false, &fd, &size));
  return LoadCopiedFromFd(fd, size, path);
}

}  // namespace cfgtag::tagger::artifact
