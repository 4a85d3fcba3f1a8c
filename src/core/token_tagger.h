#ifndef CFGTAG_CORE_TOKEN_TAGGER_H_
#define CFGTAG_CORE_TOKEN_TAGGER_H_

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/resilience/deadline.h"
#include "grammar/grammar.h"
#include "hwgen/tagger_gen.h"
#include "obs/metrics.h"
#include "rtl/device.h"
#include "rtl/techmap.h"
#include "rtl/timing.h"
#include "tagger/lazy_dfa.h"
#include "tagger/tag.h"

namespace cfgtag::tagger::artifact {
struct LoadedTagger;
}  // namespace cfgtag::tagger::artifact

namespace cfgtag::core {

// Area of an implementation, in the units of the paper's Table 1.
struct AreaReport {
  size_t luts = 0;
  size_t ffs = 0;
  size_t pattern_bytes = 0;
  double luts_per_byte = 0.0;
  // Per-module attribution (decoder / tokenizer / syntax / encoder) — the
  // breakdown behind the paper's "as the size of the grammar increases ...
  // the number of LUTs per byte decreases" amortization argument.
  std::vector<rtl::AreaBucket> breakdown;
};

// One Table 1 row: what the vendor flow would report for a device.
struct ImplementationReport {
  std::string device;
  AreaReport area;
  rtl::TimingReport timing;
  // Fmax x bytes-per-cycle x 8 bits.
  double bandwidth_gbps = 0.0;
};

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
  bool fresh_ = true;  // Acquire reset the session and no call ran since
  uint64_t calls_ = 0;
  uint64_t bytes_ = 0;
  uint64_t tokens_ = 0;
  obs::HistogramTally seconds_;
};

// The library's main entry point: compiles a grammar into (a) a fast
// software tagger (the lazy DFA over the fused tables), (b) on demand, a
// gate-level netlist of the paper's architecture, and (c) area/timing
// reports for a target FPGA device. Compile builds only the software
// engine; the first hardware call generates the netlist, once, and every
// later hardware call reuses it. The cycle-accurate engine exists to
// validate the hardware, the lazy DFA to use it at speed; the two tag
// identically.
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
  // from a file (mmap'd; the zero-copy path). The result is software-only:
  // has_hardware() is false and the netlist/report methods return errors.
  static StatusOr<CompiledTagger> Deserialize(std::string_view bytes);
  static StatusOr<CompiledTagger> LoadArtifact(const std::string& path);
  // Like LoadArtifact but via artifact::LoadFromFileCopied: no mapping,
  // so immune to SIGBUS from concurrent in-place truncation of the file.
  static StatusOr<CompiledTagger> LoadArtifactCopied(const std::string& path);

  // Content-addressed compile cache under `cache_dir`, keyed by
  // (grammar::CanonicalHash, artifact::OptionsHash) — pure content, so
  // textually reordered but equivalent grammars share an entry. A hit
  // loads the artifact (no regex compilation of the tables); a miss
  // compiles, stores the artifact atomically, and returns the full tagger.
  static StatusOr<CompiledTagger> CompileCached(grammar::Grammar grammar,
                                                const hwgen::HwOptions& options,
                                                const std::string& cache_dir);

  // False when this tagger was loaded from an artifact: only the software
  // engine exists — hardware() and the netlist-backed methods
  // (TagCycleAccurate, Implement, ExportVhdl, ...) fail with
  // FailedPrecondition.
  bool has_hardware() const { return hardware_ != nullptr; }

  CompiledTagger(CompiledTagger&&) = default;
  CompiledTagger& operator=(CompiledTagger&&) = default;

  const grammar::Grammar& grammar() const { return lazy_->grammar(); }
  // The generated netlist, built by the first call (from any hardware
  // method) and shared by every later one. Fails with the generator's
  // error for invalid hardware options (e.g. bytes_per_cycle 3), and with
  // FailedPrecondition on an artifact-loaded tagger. Thread-safe.
  StatusOr<const hwgen::GeneratedTagger*> hardware() const;
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
  // stepping hot loops are untouched. On a trip the scan stops at the
  // last chunk boundary and returns kDeadlineExceeded / kCancelled; every
  // tag already emitted to `sink` is valid for the consumed prefix (a tag
  // still open at the stop point is simply not reported, exactly as if
  // the stream had ended there without its flush). The trip is counted
  // (cfgtag_deadline_exceeded_total / cfgtag_scan_cancelled_total) and
  // flight-recorded once, here. `progress`, when set, is advanced to the
  // consumed byte count after every chunk (the scan-engine watchdog's
  // heartbeat); `consumed` receives the final count. With a `slot` (of
  // this tagger), the scan runs on the slot's held session and adds to
  // its tally; without one it runs on a one-call slot.
  Status TagWithControl(std::string_view input, const tagger::TagSink& sink,
                        const resilience::ScanControl& control,
                        std::atomic<uint64_t>* progress = nullptr,
                        uint64_t* consumed = nullptr,
                        TagSlot* slot = nullptr) const;

  // Cycle-accurate tagging: simulates the generated netlist gate by gate
  // and decodes the per-token match registers. Bit-identical to Tag() —
  // the equivalence tests enforce it — but orders of magnitude slower.
  StatusOr<std::vector<tagger::Tag>> TagCycleAccurate(
      std::string_view input) const;

  // Cycle-accurate tagging through the §3.4 index-encoder bus instead of
  // the per-token match bits. Valid when at most one token matches per
  // cycle (or priorities per eq. 5 are in force).
  StatusOr<std::vector<tagger::Tag>> TagViaIndexBus(
      std::string_view input) const;

  // --- Implementation reports --------------------------------------------
  // Maps the generated netlist onto `device` and runs timing analysis.
  // With `optimize` set, a synthesis-style cleanup pass (CSE, constant
  // folding, dead-logic removal) runs first; the default reports the raw
  // generated structure, which is what the Table 1 calibration assumes.
  StatusOr<ImplementationReport> Implement(const rtl::Device& device,
                                           bool optimize = false) const;

  // Structural VHDL for the generated design (the paper generator's output
  // artifact).
  StatusOr<std::string> ExportVhdl(const std::string& entity_name) const;

  // Debug aid: simulates `input` through the netlist while dumping a VCD
  // waveform of the input byte, every match register and the index bus to
  // `os`. View with any VCD viewer (gtkwave etc.).
  Status DumpWaveform(std::string_view input, std::ostream& os) const;

  // Emits a self-checking VHDL testbench that feeds `input` into the
  // exported design (ExportVhdl with the same entity name) and asserts the
  // match outputs this library computed — the hand-off artifact for users
  // verifying the VHDL in a real simulator (GHDL etc.).
  StatusOr<std::string> ExportVhdlTestbench(const std::string& entity_name,
                                            std::string_view input) const;

  static constexpr size_t kFlushPadding = 8;
  static constexpr char kFlushByte = '\n';

 private:
  // The netlist slot: generated at most once, on the first hardware call.
  struct HardwareSlot {
    std::once_flag once;
    Status status;
    hwgen::GeneratedTagger design;
  };

  CompiledTagger() = default;

  // Serialize with caller-chosen header hashes (the compile cache stamps
  // the lookup key rather than recomputing it from resolved options).
  StatusOr<std::string> SerializeWithHashes(uint64_t grammar_hash,
                                            uint64_t options_hash) const;
  static StatusOr<CompiledTagger> AdoptLoaded(tagger::artifact::LoadedTagger);

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
