#include "core/token_tagger.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "core/resilience/budget.h"
#include "grammar/canonical.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tagger/artifact/cache.h"
#include "tagger/artifact/loader.h"
#include "tagger/artifact/writer.h"

namespace cfgtag::core {

StatusOr<CompiledTagger> CompiledTagger::Compile(
    grammar::Grammar grammar, const hwgen::HwOptions& options) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  obs::ScopedSpan span("core.Compile");
  obs::ScopedTimer timer(reg.GetHistogram(
      "cfgtag_compile_seconds", "End-to-end grammar compile wall time"));

  CompiledTagger out;
  out.grammar_ =
      std::make_unique<grammar::Grammar>(std::move(grammar));
  out.options_ = options;
  {
    obs::ScopedSpan stage("tagger.CreateFusedModel");
    obs::ScopedTimer stage_timer(reg.GetHistogram(
        "cfgtag_compile_stage_seconds{stage=\"fused\"}",
        "Wall time of one compile-pipeline stage"));
    auto fused =
        tagger::FusedTagger::Create(out.grammar_.get(), options.tagger);
    if (!fused.ok()) return fused.status().WithContext("fused model");
    reg.GetGauge("cfgtag_compile_byte_classes",
                 "Byte classes of the last compile")
        ->Set(static_cast<double>(fused.value().NumByteClasses()));
    out.lazy_ = std::make_unique<tagger::LazyDfaTagger>(
        tagger::LazyDfaTagger::Wrap(std::move(fused).value()));
  }
  out.hardware_ = std::make_unique<HardwareSlot>();
  reg.GetCounter("cfgtag_compile_total", "Grammar compiles completed")
      ->Increment();
  return out;
}

StatusOr<std::string> CompiledTagger::SerializeWithHashes(
    uint64_t grammar_hash, uint64_t options_hash) const {
  namespace art = tagger::artifact;
  art::SerializeRequest req;
  req.grammar_hash = grammar_hash;
  req.options_hash = options_hash;
  req.aot_state_budget = options_.tagger.aot_state_budget;
  return art::SerializeTagger(lazy_->fused(), req);
}

StatusOr<std::string> CompiledTagger::Serialize() const {
  return SerializeWithHashes(grammar::CanonicalHash(grammar()),
                             tagger::artifact::OptionsHash(options_.tagger));
}

// Builds a software-only CompiledTagger around a loaded artifact and
// records the artifact gauges.
StatusOr<CompiledTagger> CompiledTagger::AdoptLoaded(
    tagger::artifact::LoadedTagger lt) {
  const auto& am = tagger::artifact::ArtifactMetrics::Get();
  am.bytes->Set(static_cast<double>(lt.artifact_bytes));
  am.aot_states->Set(static_cast<double>(lt.aot_states));
  CompiledTagger out;
  out.options_.tagger = lt.options;
  out.lazy_ = std::move(lt.lazy);
  return out;
}

StatusOr<CompiledTagger> CompiledTagger::Deserialize(std::string_view bytes) {
  const auto& am = tagger::artifact::ArtifactMetrics::Get();
  obs::ScopedTimer timer(am.load_seconds);
  CFGTAG_ASSIGN_OR_RETURN(auto loaded,
                          tagger::artifact::LoadFromMemory(bytes));
  return AdoptLoaded(std::move(loaded));
}

StatusOr<CompiledTagger> CompiledTagger::LoadArtifact(
    const std::string& path) {
  const auto& am = tagger::artifact::ArtifactMetrics::Get();
  obs::ScopedTimer timer(am.load_seconds);
  CFGTAG_ASSIGN_OR_RETURN(auto loaded, tagger::artifact::LoadFromFile(path));
  return AdoptLoaded(std::move(loaded));
}

StatusOr<CompiledTagger> CompiledTagger::LoadArtifactCopied(
    const std::string& path) {
  const auto& am = tagger::artifact::ArtifactMetrics::Get();
  obs::ScopedTimer timer(am.load_seconds);
  CFGTAG_ASSIGN_OR_RETURN(auto loaded,
                          tagger::artifact::LoadFromFileCopied(path));
  return AdoptLoaded(std::move(loaded));
}

StatusOr<CompiledTagger> CompiledTagger::CompileCached(
    grammar::Grammar grammar, const hwgen::HwOptions& options,
    const std::string& cache_dir) {
  namespace art = tagger::artifact;
  const auto& am = art::ArtifactMetrics::Get();
  // The key is the *requested* configuration: grammar content (order
  // normalized) plus the options fields that shape the tables.
  const uint64_t ghash = grammar::CanonicalHash(grammar);
  const uint64_t ohash = art::OptionsHash(options.tagger);
  const std::string path = art::CachePath(cache_dir, ghash, ohash);
  {
    auto loaded = art::LoadFromFile(path);
    if (loaded.ok() && loaded.value().grammar_hash == ghash &&
        loaded.value().options_hash == ohash) {
      am.cache_hits->Increment();
      obs::ScopedTimer timer(am.load_seconds);
      return AdoptLoaded(std::move(loaded).value());
    }
    // Missing, corrupt, or stale-key entry: fall through to a compile
    // (the store below overwrites a bad entry atomically).
  }
  am.cache_misses->Increment();
  CFGTAG_ASSIGN_OR_RETURN(CompiledTagger out,
                          Compile(std::move(grammar), options));
  auto bytes = out.SerializeWithHashes(ghash, ohash);
  if (bytes.ok()) {
    if (resilience::ResourceBudget::Process().ArtifactCacheReadOnly()) {
      // Top rung of the degradation ladder: the compile still succeeds,
      // but the cache stops accumulating new entries on disk.
      obs::RecordEvent(obs::EventKind::kDegradedMode, 1,
                       static_cast<int64_t>(bytes.value().size()),
                       "artifact_cache store skipped (read-only)");
    } else {
      // Best effort: a failed store (read-only dir, disk full) degrades
      // to an uncached compile, never to an error.
      (void)art::AtomicWriteFile(path, bytes.value());
    }
  }
  return out;
}

namespace {

// Run-path metric handles, resolved once per process.
struct TagMetrics {
  obs::Counter* calls;
  obs::Counter* bytes;
  obs::Counter* tags;
  obs::Histogram* latency;

  static const TagMetrics& Get() {
    static const TagMetrics kMetrics = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
      return TagMetrics{
          reg.GetCounter("cfgtag_tag_calls_total", "Tag() invocations"),
          reg.GetCounter("cfgtag_tag_bytes_total",
                         "Input bytes scanned by Tag()"),
          reg.GetCounter("cfgtag_tag_tokens_total", "Tags emitted by Tag()"),
          reg.GetHistogram("cfgtag_tag_seconds", "Per-call Tag() wall time")};
    }();
    return kMetrics;
  }
};

}  // namespace

TagSlot::TagSlot(const CompiledTagger& tagger)
    : session_(tagger.lazy_model()), seconds_(TagMetrics::Get().latency) {}

TagSlot::~TagSlot() {
  if (calls_ != 0) {
    const TagMetrics& metrics = TagMetrics::Get();
    metrics.calls->Increment(calls_);
    metrics.bytes->Increment(bytes_);
    metrics.tags->Increment(tokens_);
  }
  seconds_.Merge();
}

std::vector<tagger::Tag> CompiledTagger::Tag(std::string_view input) const {
  std::vector<tagger::Tag> tags;
  Tag(input, [&tags](const tagger::Tag& t) {
    tags.push_back(t);
    return true;
  });
  return tags;
}

void CompiledTagger::Tag(std::string_view input,
                         const tagger::TagSink& sink) const {
  (void)TagWithControl(input, sink, resilience::ScanControl::InertOneChunk());
}

Status CompiledTagger::TagWithControl(std::string_view input,
                                      const tagger::TagSink& sink,
                                      const resilience::ScanControl& control,
                                      std::atomic<uint64_t>* progress,
                                      uint64_t* consumed, obs::Lap* lap,
                                      TagSlot* slot) const {
  if (slot == nullptr) {
    TagSlot one_call(*this);
    return TagWithControl(input, sink, control, progress, consumed, lap,
                          &one_call);
  }
  obs::ScopedTimer timer(&slot->seconds_, lap);
  // Stream the input and then the flush padding through the slot's
  // session: the same bytes the simulator sees (Padded()), minus the
  // per-call input copy. One extra pad byte
  // beyond the scanned range keeps the Fig. 7 look-ahead identical to the
  // gate-level simulation at the final scanned byte. That byte stays
  // pending in the session, so every tag fed out ends before the scan end
  // (input.size() + kFlushPadding), and the stream is never Finished: its
  // one step would emit only at the scan end. The padding is the same
  // bytes on every call, so the session replays it from a per-state memo.
  static const std::string& kPadding =
      *new std::string(kFlushPadding + 1, kFlushByte);
  const size_t step = control.check_interval_bytes == 0
                          ? input.size() + 1
                          : control.check_interval_bytes;
  size_t fed = 0;
  Status trip = Status::Ok();
  // The session is reset here, so an early trip just abandons it half-fed
  // — no padding, and a tag still open at the stop point is never
  // reported.
  assert(slot->session_.tagger() == lazy_.get());
  tagger::LazyDfaSession* session = &slot->session_;
  session->Reset();
  const auto run = [&] {
    while (fed < input.size()) {
      trip = control.Check();
      if (!trip.ok()) return;
      resilience::FaultInjector::MaybeStall("scan.chunk");
      const size_t n = std::min(step, input.size() - fed);
      session->Feed(input.substr(fed, n), sink);
      fed += n;
      if (progress != nullptr) {
        progress->store(fed, std::memory_order_relaxed);
      }
    }
    trip = control.Check();
    if (!trip.ok()) return;
    session->FeedPadding(kPadding, sink);
  };
  run();
  session->FlushAttribution();
  ++slot->calls_;
  slot->bytes_ += fed;
  slot->tokens_ += session->tags_emitted();
  if (consumed != nullptr) *consumed = fed;
  if (!trip.ok()) {
    resilience::CountControlTrip(trip, fed, input.size(), "core.Tag");
  }
  return trip;
}

}  // namespace cfgtag::core
