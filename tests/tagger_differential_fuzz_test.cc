// Differential fuzzing across the tagging engines: on randomly generated
// small grammars and random byte streams, the lazy DFA must be tag-for-tag
// identical to the functional reference — for every arm mode, with and
// without the longest-match look-ahead, chunked or whole-buffer, under
// both scalar and vectorized SIMD dispatch, with a warm cache, under a
// starvation-sized cache (a table that fills, then the fallback), and
// falling back to uncached fused steps at its first miss.
// CompiledTagger::Tag must match the same reference and the gate-level
// simulation of its netlist. The artifact leg closes the loop through the
// serializer: serialize → Deserialize → tag must be byte-identical to the
// compiler that produced the artifact, whole-buffer and chunked. The flush
// padding's per-state memo must replay exactly what the plain Feed does.

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/hardware_design.h"
#include "core/token_tagger.h"
#include "grammar/grammar.h"
#include "obs/attribution.h"
#include "obs/metrics.h"
#include "oracle.h"
#include "reference/functional_model.h"
#include "tagger/lazy_dfa.h"
#include "tagger/simd/dispatch.h"
#include "tagger/skip_scan.h"

namespace cfgtag {
namespace {

using grammar::Grammar;
using grammar::Symbol;
using tagger::ArmMode;
using tagger::FunctionalTagger;
using tagger::LazyDfaTagger;
using tagger::Tag;
using tagger::TaggerOptions;

// Small random grammar: literal tokens plus optional class tokens, wired
// into right-linear productions (same family as the hwgen equivalence
// fuzzer, but occasionally with a long literal so the fused state spans
// multiple words).
Grammar RandomGrammar(Rng& rng) {
  Grammar g;
  const int num_lits = 2 + static_cast<int>(rng.NextIndex(3));
  std::vector<int32_t> tokens;
  for (int i = 0; i < num_lits; ++i) {
    std::string text;
    text.push_back(static_cast<char>('a' + i));
    text += rng.NextString(1 + rng.NextIndex(3), "xyz");
    auto t = g.AddLiteralToken(text);
    if (t.ok()) tokens.push_back(*t);
  }
  if (rng.NextBool(0.6)) {
    auto t = g.AddToken("NUM", "[0-9]+");
    if (t.ok()) tokens.push_back(*t);
  }
  if (rng.NextBool(0.4)) {
    auto t = g.AddToken("HEX", "[a-f][a-f0-9]*");
    if (t.ok()) tokens.push_back(*t);
  }
  if (rng.NextBool(0.25)) {
    // >64 positions: forces a two-word token bitmap.
    auto t = g.AddLiteralToken("q" + std::string(70, 'w'));
    if (t.ok()) tokens.push_back(*t);
  }

  const int num_nts = 2 + static_cast<int>(rng.NextIndex(2));
  std::vector<int32_t> nts;
  for (int i = 0; i < num_nts; ++i) {
    nts.push_back(g.AddNonterminal("n" + std::to_string(i)));
  }
  for (int i = 0; i < num_nts; ++i) {
    const int alts = 1 + static_cast<int>(rng.NextIndex(2));
    for (int a = 0; a < alts; ++a) {
      std::vector<Symbol> rhs;
      rhs.push_back(Symbol::Terminal(tokens[rng.NextIndex(tokens.size())]));
      const int extra = static_cast<int>(rng.NextIndex(3));
      for (int e = 0; e < extra; ++e) {
        if (rng.NextBool(0.35) && i + 1 < num_nts) {
          rhs.push_back(Symbol::Nonterminal(
              nts[i + 1 + rng.NextIndex(num_nts - i - 1)]));
        } else {
          rhs.push_back(
              Symbol::Terminal(tokens[rng.NextIndex(tokens.size())]));
        }
      }
      g.AddProduction(nts[i], std::move(rhs));
    }
  }
  g.SetStart(nts[0]);
  return g;
}

// Random byte stream biased toward bytes the grammar can consume: token
// spellings, digits, delimiters, and occasional arbitrary garbage.
std::string RandomStream(const Grammar& g, Rng& rng) {
  std::string out;
  const size_t pieces = 1 + rng.NextIndex(12);
  for (size_t p = 0; p < pieces; ++p) {
    switch (rng.NextIndex(5)) {
      case 0:  // a token spelling
      case 1: {
        const auto& def = g.tokens()[rng.NextIndex(g.tokens().size())];
        if (def.is_literal) {
          out += def.literal_text;
          // Sometimes truncate/extend to probe partial matches.
          if (rng.NextBool(0.3) && out.size() > 1) out.pop_back();
        } else {
          out += std::to_string(rng.NextIndex(100000));
        }
        break;
      }
      case 2:  // delimiters
        out.append(1 + rng.NextIndex(4), rng.NextBool(0.5) ? ' ' : '\n');
        break;
      case 3:  // lowercase garbage (often prefixes of literals)
        out += rng.NextString(1 + rng.NextIndex(6), "abcdefwxyz");
        break;
      default:  // arbitrary bytes
        for (size_t i = 0, n = 1 + rng.NextIndex(4); i < n; ++i) {
          out.push_back(static_cast<char>(rng.NextIndex(256)));
        }
        break;
    }
  }
  return out;
}

// The kernel dispatches to sweep every backend comparison over: forced
// scalar plus the best vector tier the host offers (just scalar when the
// host has no vector tier).
std::vector<tagger::simd::Isa> DispatchIsas() {
  std::vector<tagger::simd::Isa> isas = {tagger::simd::Isa::kScalar};
  if (tagger::simd::BestAvailable() != tagger::simd::Isa::kScalar) {
    isas.push_back(tagger::simd::BestAvailable());
  }
  return isas;
}

template <typename Tagger>
std::vector<Tag> Chunked(const Tagger& t, std::string_view input,
                         size_t chunk) {
  std::vector<Tag> tags;
  auto session = t.NewSession();
  const tagger::TagSink sink = [&](const Tag& tag) {
    tags.push_back(tag);
    return true;
  };
  for (size_t i = 0; i < input.size(); i += chunk) {
    session.Feed(std::string_view(input).substr(i, chunk), sink);
  }
  session.Finish(sink);
  return tags;
}

void ExpectSameTags(const std::vector<Tag>& want, const std::vector<Tag>& got,
                    const std::string& what, const std::string& input) {
  ASSERT_EQ(want.size(), got.size())
      << what << " diverged on input: " << testing::PrintToString(input);
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_TRUE(want[i].token == got[i].token && want[i].end == got[i].end)
        << what << " tag " << i << " diverged on input: "
        << testing::PrintToString(input);
  }
}

TEST(DifferentialFuzzTest, FusedMatchesFunctionalEverywhere) {
  Rng rng(20260806);
  const ArmMode kModes[] = {ArmMode::kAnchored, ArmMode::kScan,
                            ArmMode::kResync};
  for (int iter = 0; iter < 60; ++iter) {
    const Grammar g = RandomGrammar(rng);
    TaggerOptions opt;
    opt.arm_mode = kModes[iter % 3];
    opt.longest_match = (iter % 2) == 0;
    auto functional = FunctionalTagger::Create(&g, opt);
    auto lazy = LazyDfaTagger::Create(&g, opt);
    // No cache at all: the session falls back at its first miss and steps
    // the fused tables uncached for every byte after.
    TaggerOptions uncached = opt;
    uncached.dfa_cache_bytes = 0;
    auto fallback = LazyDfaTagger::Create(&g, uncached);
    // Starvation-sized cache: interning even a handful of states fills the
    // table, so streams that miss past that point fall back mid-stream —
    // exercised on real streams.
    TaggerOptions tiny = opt;
    tiny.dfa_cache_bytes = 1 << 10;
    auto lazy_tiny = LazyDfaTagger::Create(&g, tiny);
    ASSERT_TRUE(functional.ok()) << functional.status();
    ASSERT_TRUE(fallback.ok()) << fallback.status();
    ASSERT_TRUE(lazy.ok()) << lazy.status();
    ASSERT_TRUE(lazy_tiny.ok()) << lazy_tiny.status();
    for (int s = 0; s < 8; ++s) {
      const std::string input = RandomStream(g, rng);
      const std::vector<Tag> want = functional->TagAll(input);
      const size_t chunk = 1 + rng.NextIndex(7);
      for (const tagger::simd::Isa isa : DispatchIsas()) {
        tagger::simd::ForceIsa(isa);
        const std::string d =
            std::string(" dispatch=") + tagger::simd::IsaName(isa);
        ExpectSameTags(want, fallback->TagAll(input),
                       "fallback whole-buffer" + d, input);
        ExpectSameTags(want, lazy->TagAll(input), "lazy whole-buffer" + d,
                       input);
        ExpectSameTags(want, lazy_tiny->TagAll(input),
                       "lazy tiny-cache whole-buffer" + d, input);
        ExpectSameTags(want, Chunked(*fallback, input, chunk),
                       "fallback chunk=" + std::to_string(chunk) + d, input);
        ExpectSameTags(want, Chunked(*lazy, input, chunk),
                       "lazy chunk=" + std::to_string(chunk) + d, input);
        ExpectSameTags(want, Chunked(*lazy_tiny, input, chunk),
                       "lazy tiny-cache chunk=" + std::to_string(chunk) + d,
                       input);
      }
      tagger::simd::ClearForcedIsa();
    }
  }
}

// serialize → Deserialize → tag: a tagger rebuilt from its own artifact
// bytes must be tag-for-tag identical to the tagger that wrote them and to
// the functional reference, with and without an AOT table, whole-buffer
// and chunked through the loaded engine's sessions.
TEST(DifferentialFuzzTest, ArtifactRoundTripMatchesDirectCompile) {
  Rng rng(20260809);
  const ArmMode kModes[] = {ArmMode::kAnchored, ArmMode::kScan,
                            ArmMode::kResync};
  for (int iter = 0; iter < 16; ++iter) {
    Grammar g = RandomGrammar(rng);
    hwgen::HwOptions options;
    options.tagger.arm_mode = kModes[iter % 3];
    options.tagger.longest_match = (iter % 2) == 0;
    // Every fourth iteration strips the AOT table so both artifact shapes
    // (baked DFA present / absent) go through the loader. Another fourth
    // bakes only three states under a starved cache: the table builds
    // transitions out of baked states until it is full, and streams that
    // miss after that fall back to uncached stepping.
    if (iter % 4 == 1) options.tagger.aot_state_budget = 0;
    if (iter % 4 == 3) {
      options.tagger.aot_state_budget = 3;
      options.tagger.dfa_cache_bytes = 1 << 10;
    }
    auto direct = core::CompiledTagger::Compile(g.Clone(), options);
    ASSERT_TRUE(direct.ok()) << direct.status();
    auto bytes = direct->Serialize();
    ASSERT_TRUE(bytes.ok()) << bytes.status();
    auto loaded = core::CompiledTagger::Deserialize(*bytes);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    EXPECT_TRUE(loaded->loaded_from_artifact());
    for (int s = 0; s < 6; ++s) {
      const std::string input = RandomStream(direct->grammar(), rng);
      const std::vector<Tag> want = direct->Tag(input);
      auto oracle = testing_oracle::OracleTags(g, options.tagger, input);
      ASSERT_TRUE(oracle.ok()) << oracle.status();
      ExpectSameTags(*oracle, want, "direct vs oracle", input);
      ExpectSameTags(want, loaded->Tag(input), "artifact whole-buffer",
                     input);
      const size_t chunk = 1 + rng.NextIndex(7);
      ExpectSameTags(want, Chunked(*loaded->lazy_model(), input, chunk),
                     "artifact chunk=" + std::to_string(chunk), input);
    }
  }
}

// CompiledTagger::Tag against the functional reference and against the
// gate-level simulation of the netlist generated from the same grammar,
// with the default transition cache and with a starved one that falls
// back to uncached stepping.
TEST(DifferentialFuzzTest, CompiledTaggerMatchesOracleAndNetlist) {
  Rng rng(424242);
  const ArmMode kModes[] = {ArmMode::kAnchored, ArmMode::kScan,
                            ArmMode::kResync};
  for (int iter = 0; iter < 12; ++iter) {
    Grammar g = RandomGrammar(rng);
    hwgen::HwOptions options;
    options.tagger.arm_mode = kModes[iter % 3];
    options.tagger.longest_match = (iter % 4) != 3;
    auto compiled = core::CompiledTagger::Compile(g.Clone(), options);
    hwgen::HwOptions starved_options = options;
    starved_options.tagger.dfa_cache_bytes = 1 << 10;
    auto starved = core::CompiledTagger::Compile(g.Clone(), starved_options);
    auto design = core::HardwareDesign::Create(g, options);
    ASSERT_TRUE(compiled.ok()) << compiled.status();
    ASSERT_TRUE(starved.ok()) << starved.status();
    ASSERT_TRUE(design.ok()) << design.status();
    for (int s = 0; s < 6; ++s) {
      const std::string input = RandomStream(g, rng);
      auto want = testing_oracle::OracleTags(g, options.tagger, input);
      ASSERT_TRUE(want.ok()) << want.status();
      ExpectSameTags(*want, compiled->Tag(input), "CompiledTagger", input);
      ExpectSameTags(*want, starved->Tag(input), "CompiledTagger starved",
                     input);
      auto hw = design->TagCycleAccurate(input);
      ASSERT_TRUE(hw.ok()) << hw.status();
      ExpectSameTags(*want, *hw, "gate-level simulation", input);
    }
  }
}

// CompiledTagger::Tag feeds the input and the flush padding and never
// finishes the stream, with no filter on the tags: a session fed that way
// must emit nothing that ends at or past the scan end (input size +
// kFlushPadding), in every arm mode with and without longest-match, cached
// and uncached, and must emit exactly the oracle's tags.
TEST(DifferentialFuzzTest, PaddedFeedEndsBeforeScanEnd) {
  Rng rng(20261018);
  const ArmMode kModes[] = {ArmMode::kAnchored, ArmMode::kScan,
                            ArmMode::kResync};
  for (int iter = 0; iter < 24; ++iter) {
    const Grammar g = RandomGrammar(rng);
    TaggerOptions opt;
    opt.arm_mode = kModes[iter % 3];
    opt.longest_match = (iter / 3) % 2 == 0;
    TaggerOptions uncached = opt;
    uncached.dfa_cache_bytes = 0;
    for (const TaggerOptions& o : {opt, uncached}) {
      auto lazy = LazyDfaTagger::Create(&g, o);
      ASSERT_TRUE(lazy.ok()) << lazy.status();
      for (int s = 0; s < 6; ++s) {
        const std::string input = RandomStream(g, rng);
        const uint64_t scan_end =
            input.size() + core::CompiledTagger::kFlushPadding;
        const std::vector<Tag> got =
            testing_oracle::PaddedFeedTags(*lazy, input);
        for (const Tag& t : got) {
          ASSERT_LT(t.end, scan_end)
              << "dfa_cache_bytes=" << o.dfa_cache_bytes
              << " input: " << testing::PrintToString(input);
        }
        auto want = testing_oracle::OracleTags(g, o, input);
        ASSERT_TRUE(want.ok()) << want.status();
        ExpectSameTags(*want, got, "padded feed", input);
      }
    }
  }
}

// Random streams concatenated past one superblock (LazyDfaSession::kLanes
// slices of kSliceBytes), so cached sessions walk speculative lanes from
// guessed states: the default cache, a starved one (filling mid-
// superblock, then falling back) and no cache at all (uncached fallback
// from the first miss) must each match the functional reference, whole
// and in chunks that cut superblocks at random points.
TEST(DifferentialFuzzTest, SuperblockStreamsMatchAcrossCacheSizes) {
  Rng rng(20261017);
  const ArmMode kModes[] = {ArmMode::kAnchored, ArmMode::kScan,
                            ArmMode::kResync};
  const size_t block =
      tagger::LazyDfaSession::kLanes * tagger::LazyDfaSession::kSliceBytes;
  for (int iter = 0; iter < 6; ++iter) {
    const Grammar g = RandomGrammar(rng);
    TaggerOptions opt;
    opt.arm_mode = kModes[iter % 3];
    opt.longest_match = (iter % 2) == 0;
    TaggerOptions starved = opt;
    starved.dfa_cache_bytes = 1 << 10;
    TaggerOptions uncached = opt;
    uncached.dfa_cache_bytes = 0;
    auto functional = FunctionalTagger::Create(&g, opt);
    ASSERT_TRUE(functional.ok()) << functional.status();
    std::string input;
    while (input.size() < block + block / 4) input += RandomStream(g, rng);
    const std::vector<Tag> want = functional->TagAll(input);
    const size_t chunk = block + rng.NextIndex(block);
    for (const TaggerOptions& o : {opt, starved, uncached}) {
      auto lazy = LazyDfaTagger::Create(&g, o);
      ASSERT_TRUE(lazy.ok()) << lazy.status();
      const std::string what =
          "dfa_cache_bytes=" + std::to_string(o.dfa_cache_bytes);
      ExpectSameTags(want, lazy->TagAll(input), what + " whole", input);
      ExpectSameTags(want, lazy->TagAll(input), what + " warm", input);
      ExpectSameTags(want, Chunked(*lazy, input, chunk),
                     what + " chunk=" + std::to_string(chunk), input);
    }
  }
}

// Every cfgtag_skip_bytes_total{kind,strategy} value.
std::vector<uint64_t> SkipCounts() {
  std::vector<uint64_t> counts;
  for (const auto& row : tagger::SkipMetrics::Get().counters) {
    for (const obs::Counter* c : row) counts.push_back(c->Value());
  }
  return counts;
}

// What the flush padding did after `input`: the tags the sink saw from
// the padding, the session's counts, and the skip bytes it counted.
struct PadRun {
  std::vector<Tag> tags;
  uint64_t emitted = 0;
  uint64_t consumed = 0;
  std::vector<uint64_t> skips;
};

// Feeds `input`, then the padding through FeedPadding (`memo`) or the
// plain Feed, to a sink that refuses the padding's `stop`-th tag.
PadRun FeedPadded(tagger::LazyDfaSession& session, std::string_view input,
                  size_t stop, bool memo) {
  const std::string pad(core::CompiledTagger::kFlushPadding + 1,
                        core::CompiledTagger::kFlushByte);
  PadRun run;
  session.Reset();
  session.Feed(input, [](const Tag&) { return true; });
  const tagger::TagSink sink = [&](const Tag& t) {
    run.tags.push_back(t);
    return run.tags.size() != stop + 1;
  };
  const std::vector<uint64_t> before = SkipCounts();
  if (memo) {
    session.FeedPadding(pad, sink);
  } else {
    session.Feed(pad, sink);
  }
  run.skips = SkipCounts();
  for (size_t k = 0; k < before.size(); ++k) run.skips[k] -= before[k];
  run.emitted = session.tags_emitted();
  run.consumed = session.bytes_consumed();
  return run;
}

void ExpectSameRun(const PadRun& want, const PadRun& got,
                   const std::string& what, const std::string& input) {
  ExpectSameTags(want.tags, got.tags, what, input);
  EXPECT_EQ(want.emitted, got.emitted) << what;
  EXPECT_EQ(want.consumed, got.consumed) << what;
  EXPECT_EQ(want.skips, got.skips) << what;
}

// The flush padding's per-state memo (LazyDfaSession::FeedPadding) in
// every arm mode, with and without longest-match, on a cached session, in
// fallback, from an AOT artifact and on a cache so small that it fills
// within the first calls. Each input is tagged twice on one held TagSlot, so the
// first call records the padding and the second replays it, and both
// equal the oracle. At the session level, a recording, a replay and an
// early stop at every tag of the padding deliver the same tags, tag and
// consumed counts and skip bytes as the plain Feed, and
// cfgtag_tag_tokens_total counts each stopped call exactly. With
// attribution on, the per-token counts are those of the tags delivered.
TEST(DifferentialFuzzTest, FlushMemoReplaysThePlainFeed) {
  Rng rng(20261019);
  const ArmMode kModes[] = {ArmMode::kAnchored, ArmMode::kScan,
                            ArmMode::kResync};
  obs::Counter* tokens =
      obs::MetricsRegistry::Default().GetCounter("cfgtag_tag_tokens_total");
  for (int iter = 0; iter < 18; ++iter) {
    Grammar g = RandomGrammar(rng);
    hwgen::HwOptions options;
    options.tagger.arm_mode = kModes[iter % 3];
    options.tagger.longest_match = (iter / 3) % 2 == 0;
    hwgen::HwOptions fallback_options = options;
    fallback_options.tagger.dfa_cache_bytes = 0;
    hwgen::HwOptions tiny_options = options;
    tiny_options.tagger.dfa_cache_bytes = 1 << 10;
    auto cached = core::CompiledTagger::Compile(g.Clone(), options);
    auto fallback = core::CompiledTagger::Compile(g.Clone(), fallback_options);
    auto tiny = core::CompiledTagger::Compile(g.Clone(), tiny_options);
    ASSERT_TRUE(cached.ok()) << cached.status();
    ASSERT_TRUE(fallback.ok()) << fallback.status();
    ASSERT_TRUE(tiny.ok()) << tiny.status();
    auto bytes = cached->Serialize();
    ASSERT_TRUE(bytes.ok()) << bytes.status();
    auto artifact = core::CompiledTagger::Deserialize(*bytes);
    ASSERT_TRUE(artifact.ok()) << artifact.status();
    ASSERT_NE(artifact->lazy_model()->aot(), nullptr);
    std::vector<std::string> inputs;
    for (int s = 0; s < 6; ++s) inputs.push_back(RandomStream(g, rng));
    inputs.push_back("");

    const std::pair<const char*, const core::CompiledTagger*> flavors[] = {
        {"cached", &*cached},
        {"fallback", &*fallback},
        {"artifact", &*artifact},
        {"tiny cache", &*tiny}};
    for (const auto& [name, tagger] : flavors) {
      const std::string what = std::string(name) + " iter " +
                               std::to_string(iter);
      {
        core::TagSlot slot(*tagger);
        for (const std::string& input : inputs) {
          auto want = testing_oracle::OracleTags(g, options.tagger, input);
          ASSERT_TRUE(want.ok()) << want.status();
          for (int pass = 0; pass < 2; ++pass) {
            std::vector<Tag> got;
            ASSERT_TRUE(tagger
                            ->TagWithControl(
                                input,
                                [&got](const Tag& t) {
                                  got.push_back(t);
                                  return true;
                                },
                                core::resilience::ScanControl::InertOneChunk(),
                                nullptr, nullptr, nullptr, &slot)
                            .ok());
            ExpectSameTags(*want, got,
                           what + " held slot pass " + std::to_string(pass),
                           input);
          }
          // A sink that refuses tag `stop` leaves cfgtag_tag_tokens_total
          // exactly stop + 1 higher (a one-call slot merges on return).
          for (size_t stop = 0; stop < want->size(); ++stop) {
            const uint64_t before = tokens->Value();
            size_t seen = 0;
            tagger->Tag(input, [&](const Tag&) { return ++seen != stop + 1; });
            ASSERT_EQ(seen, stop + 1) << what;
            ASSERT_EQ(tokens->Value() - before, stop + 1) << what;
          }
        }
      }

      const LazyDfaTagger& lazy = *tagger->lazy_model();
      tagger::LazyDfaSession plain = lazy.NewSession();
      tagger::LazyDfaSession memo = lazy.NewSession();
      for (const std::string& input : inputs) {
        const size_t all = std::numeric_limits<size_t>::max();
        const PadRun want = FeedPadded(plain, input, all, false);
        // A recording that stops early is discarded; then a recording (or
        // a replay, if another input left the same state) and a replay.
        ExpectSameRun(FeedPadded(plain, input, 0, false),
                      FeedPadded(memo, input, 0, true), what + " stop 0",
                      input);
        ExpectSameRun(want, FeedPadded(memo, input, all, true),
                      what + " first", input);
        ExpectSameRun(want, FeedPadded(memo, input, all, true),
                      what + " second", input);
        for (size_t stop = 0; stop < want.tags.size(); ++stop) {
          ExpectSameRun(FeedPadded(plain, input, stop, false),
                        FeedPadded(memo, input, stop, true),
                        what + " stop " + std::to_string(stop), input);
        }
      }
    }

    // Attribution takes the plain Feed: each token is counted once per tag
    // delivered, on every call.
    obs::AttributionTable& table = obs::AttributionTable::Default();
    table.Clear();
    obs::AttributionTable::set_enabled(true);
    std::map<std::string, uint64_t> want_counts;
    for (int pass = 0; pass < 2; ++pass) {
      for (const std::string& input : inputs) {
        for (const Tag& t : cached->Tag(input)) {
          ++want_counts[g.tokens()[static_cast<size_t>(t.token)].name];
        }
      }
    }
    obs::AttributionTable::set_enabled(false);
    std::map<std::string, uint64_t> got_counts;
    for (const obs::AttributionTable::Row& row : table.RankedTokens()) {
      got_counts[row.name] = row.hits;
    }
    table.Clear();
    EXPECT_EQ(want_counts, got_counts) << "attribution iter " << iter;
  }
}

}  // namespace
}  // namespace cfgtag
