#ifndef CFGTAG_CORE_TOKEN_TAGGER_H_
#define CFGTAG_CORE_TOKEN_TAGGER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/hardware_design.h"
#include "core/resilience/deadline.h"
#include "grammar/grammar.h"
#include "hwgen/tagger_gen.h"
#include "obs/metrics.h"
#include "rtl/device.h"
#include "tagger/lazy_dfa.h"
#include "tagger/session_pool.h"
#include "tagger/tag.h"

namespace cfgtag::tagger::artifact {
struct LoadedTagger;
}  // namespace cfgtag::tagger::artifact

namespace cfgtag::core {

class CompiledTagger;

// Per-thread scratch for a run of CompiledTagger::TagWithControl calls (an
// engine worker's share of a batch): a session checked out of the
// tagger's pool at construction and held, reset rather than re-acquired,
// across the calls, and a plain tally of the cfgtag_tag_* registry
// writes. Destruction returns the session and folds the tally into the
// registry, so registry totals are exact once every slot of a run is
// gone. One thread uses a slot at a time, and the tagger must outlive it.
class TagSlot {
 public:
  explicit TagSlot(const CompiledTagger& tagger);
  ~TagSlot();
  TagSlot(const TagSlot&) = delete;
  TagSlot& operator=(const TagSlot&) = delete;

 private:
  friend class CompiledTagger;

  const tagger::LazyDfaTagger* tagger_;
  tagger::LazyDfaSessionPool::Handle session_;
  uint64_t calls_ = 0;
  uint64_t bytes_ = 0;
  uint64_t tokens_ = 0;
  obs::HistogramTally seconds_;
};

// The library's main entry point: compiles a grammar into the fast
// software tagger (the lazy DFA over the fused tables), or loads one from
// an artifact. The hardware half of the same grammar — the gate-level
// netlist, its reports and exports, the cycle-accurate engine that
// validates it — is a separate object, HardwareDesign, built from the
// grammar; the two tag identically.
class CompiledTagger {
 public:
  static StatusOr<CompiledTagger> Compile(grammar::Grammar grammar,
                                          const hwgen::HwOptions& options = {});

  // --- Artifacts ---------------------------------------------------------
  // Zero-copy compiled-tagger artifacts (see docs/artifact_cache.md): the
  // software engine's tables serialized into one flat, checksummed,
  // mmap-able file, loadable without recompiling the grammar.

  // Serializes the software tagger, with an ahead-of-time determinized
  // transition table (options.tagger.aot_state_budget states).
  StatusOr<std::string> Serialize() const;

  // Rebuilds a tagger from artifact bytes (one aligned copy) or straight
  // from a file (mmap'd; the zero-copy path). An artifact carries the
  // software engine only; hardware is built from a grammar (HardwareDesign).
  static StatusOr<CompiledTagger> Deserialize(std::string_view bytes);
  static StatusOr<CompiledTagger> LoadArtifact(const std::string& path);
  // Like LoadArtifact but via artifact::LoadFromFileCopied: no mapping,
  // so immune to SIGBUS from concurrent in-place truncation of the file.
  static StatusOr<CompiledTagger> LoadArtifactCopied(const std::string& path);

  // Content-addressed compile cache under `cache_dir`, keyed by
  // (grammar::CanonicalHash, artifact::OptionsHash) — pure content, so
  // textually reordered but equivalent grammars share an entry. A hit
  // loads the artifact (no regex compilation of the tables); a miss
  // compiles and stores the artifact atomically.
  static StatusOr<CompiledTagger> CompileCached(grammar::Grammar grammar,
                                                const hwgen::HwOptions& options,
                                                const std::string& cache_dir);

  // True when this tagger was loaded from an artifact (a compile-cache hit
  // included): it has no grammar source to build a HardwareDesign from.
  bool loaded_from_artifact() const { return grammar_ == nullptr; }

  CompiledTagger(CompiledTagger&&) = default;
  CompiledTagger& operator=(CompiledTagger&&) = default;

  const grammar::Grammar& grammar() const { return lazy_->grammar(); }
  // The tagging engine. It owns the fused tables whose step it memoizes;
  // the step serves as its miss path and, for sessions whose cache keeps
  // flushing, as the uncached fallback (see LazyDfaSession).
  const tagger::LazyDfaTagger* lazy_model() const { return lazy_.get(); }
  const hwgen::HwOptions& options() const { return options_; }

  // --- Tagging -----------------------------------------------------------
  // The input is extended with kFlushPadding flush bytes (a delimiter, so
  // no new token can start there) before scanning; a trailing open-class
  // token may therefore report an end offset just past the input.

  // Fast software tagging via the lazy DFA: TagWithControl() under
  // ScanControl::InertOneChunk(), so the input is fed as one chunk.
  std::vector<tagger::Tag> Tag(std::string_view input) const;
  void Tag(std::string_view input, const tagger::TagSink& sink) const;

  // Controlled tagging, the one software scan path: the input is fed in
  // control.check_interval_bytes chunks with a deadline/cancel
  // check (and the scan.chunk fault site) at each boundary — the byte-
  // stepping hot loops are untouched — and then the flush padding, whose
  // last byte stays pending as the look-ahead: every tag ends before the
  // scan end, so no end-of-stream step runs. A sink that returns false
  // stops the scan at that tag; cfgtag_tag_tokens_total counts the tags
  // handed to the sink, the refused one included. On a trip the scan
  // stops at the last chunk boundary and returns kDeadlineExceeded /
  // kCancelled; every tag already emitted to `sink` is valid for the
  // consumed prefix (a tag still open at the stop point is simply not
  // reported, exactly as if the stream had ended there without its
  // flush). The trip is counted
  // (cfgtag_deadline_exceeded_total / cfgtag_scan_cancelled_total) and
  // flight-recorded once, here. `progress`, when set, is advanced to the
  // consumed byte count after every chunk (the scan-engine watchdog's
  // heartbeat); `consumed` receives the final count. The call's wall
  // time, the value cfgtag_tag_seconds observes, starts at lap->start
  // when the caller set it (a reading it already took) and is left in
  // *lap with its end reading. With a `slot` (of this tagger), the scan
  // runs on the slot's held session and adds to its tally; without one it
  // runs on a one-call slot.
  Status TagWithControl(std::string_view input, const tagger::TagSink& sink,
                        const resilience::ScanControl& control,
                        std::atomic<uint64_t>* progress = nullptr,
                        uint64_t* consumed = nullptr,
                        obs::Lap* lap = nullptr,
                        TagSlot* slot = nullptr) const;

  // --- Kept only for perfbench ------------------------------------------
  // HardwareDesign::Implement and ::TagCycleAccurate on a design generated
  // from this tagger's grammar and options by the first call and shared by
  // every later one (token_tagger_hw.cc, so a binary that never calls
  // them links no hardware code). They fail with the generator's error
  // for invalid hardware options, and with FailedPrecondition on an
  // artifact-loaded tagger. Every other caller builds a HardwareDesign.
  StatusOr<ImplementationReport> Implement(const rtl::Device& device,
                                           bool optimize = false) const;
  StatusOr<std::vector<tagger::Tag>> TagCycleAccurate(
      std::string_view input) const;

  static constexpr size_t kFlushPadding = 8;
  static constexpr char kFlushByte = '\n';

 private:
  // The perfbench forwarders' design, generated at most once, on the
  // first call. The shared_ptr's deleter is made where the design is, so
  // this object file never destroys a HardwareDesign.
  struct HardwareSlot {
    std::once_flag once;
    Status status;
    std::shared_ptr<const HardwareDesign> design;
  };

  CompiledTagger() = default;

  // Serialize with caller-chosen header hashes (the compile cache stamps
  // the lookup key rather than recomputing it from resolved options).
  StatusOr<std::string> SerializeWithHashes(uint64_t grammar_hash,
                                            uint64_t options_hash) const;
  static StatusOr<CompiledTagger> AdoptLoaded(tagger::artifact::LoadedTagger);
  // The forwarders' design (token_tagger_hw.cc).
  StatusOr<const HardwareDesign*> Design() const;

  // Owns the compiled grammar at a stable address (null for artifact-loaded
  // taggers, whose grammar lives in the engine's backing).
  std::unique_ptr<grammar::Grammar> grammar_;
  hwgen::HwOptions options_;
  std::unique_ptr<tagger::LazyDfaTagger> lazy_;
  // Null for artifact-loaded taggers.
  std::unique_ptr<HardwareSlot> hardware_;
};

}  // namespace cfgtag::core

#endif  // CFGTAG_CORE_TOKEN_TAGGER_H_
