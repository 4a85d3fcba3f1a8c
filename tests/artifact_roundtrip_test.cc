// Round-trip and robustness tests for the compiled-tagger artifact layer:
// serialize → Deserialize / LoadArtifact must reproduce the compiling
// tagger tag-for-tag, with and without a baked DFA table, and files with
// the older fused header value must still load; the compile cache must
// hit on content-equal (even reordered) grammars; loaded taggers must
// reject the netlist-backed methods; and the hardened loader must turn
// malformed bytes into typed errors — never a crash, and never a tagger
// that silently diverges (the corrupt-artifact fuzz at the bottom).

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/hardware_design.h"
#include "core/token_tagger.h"
#include "grammar/canonical.h"
#include "grammar/grammar.h"
#include "obs/metrics.h"
#include "tagger/artifact/cache.h"
#include "tagger/artifact/format.h"
#include "tagger/lazy_dfa.h"
#include "tagger/tag.h"

namespace cfgtag {
namespace {

using core::CompiledTagger;
using grammar::Grammar;
using grammar::Symbol;
using tagger::Tag;

// The Fig. 14 expression-flavored fixture: two class tokens, one literal,
// a recursive start rule.
Grammar FixtureGrammar() {
  Grammar g;
  const int32_t num = *g.AddToken("NUM", "[0-9]+");
  const int32_t word = *g.AddToken("WORD", "[a-z]+");
  const int32_t kw = *g.AddLiteralToken("begin");
  const int32_t s = g.AddNonterminal("s");
  g.AddProduction(s, {Symbol::Terminal(num), Symbol::Nonterminal(s)});
  g.AddProduction(s, {Symbol::Terminal(word), Symbol::Nonterminal(s)});
  g.AddProduction(s, {Symbol::Terminal(kw)});
  g.AddProduction(s, {Symbol::Terminal(num)});
  g.AddProduction(s, {Symbol::Terminal(word)});
  g.SetStart(s);
  return g;
}

// Same content as FixtureGrammar, everything declared in a different
// order (different internal ids) — must share a cache entry.
Grammar ReorderedFixtureGrammar() {
  Grammar g;
  const int32_t kw = *g.AddLiteralToken("begin");
  const int32_t word = *g.AddToken("WORD", "[a-z]+");
  const int32_t num = *g.AddToken("NUM", "[0-9]+");
  const int32_t s = g.AddNonterminal("s");
  g.AddProduction(s, {Symbol::Terminal(word)});
  g.AddProduction(s, {Symbol::Terminal(num)});
  g.AddProduction(s, {Symbol::Terminal(kw)});
  g.AddProduction(s, {Symbol::Terminal(word), Symbol::Nonterminal(s)});
  g.AddProduction(s, {Symbol::Terminal(num), Symbol::Nonterminal(s)});
  g.SetStart(s);
  return g;
}

const char* const kInputs[] = {
    "hello 123 world",
    "begin 42 end",
    "   7 seven 77   ",
    "beginbegin 0begin",
    "",
    "a1b2c3",
};

std::string TempPath(const std::string& leaf) {
  const char* dir = std::getenv("TMPDIR");
  std::string path = dir != nullptr ? dir : "/tmp";
  if (path.back() != '/') path += '/';
  path += "cfgtag_artifact_test_" + std::to_string(::getpid()) + "_" + leaf;
  return path;
}

void ExpectSameTags(const CompiledTagger& want, const CompiledTagger& got) {
  for (const char* input : kInputs) {
    const std::vector<Tag> w = want.Tag(input);
    const std::vector<Tag> g = got.Tag(input);
    ASSERT_EQ(w.size(), g.size()) << "on input: " << input;
    for (size_t i = 0; i < w.size(); ++i) {
      EXPECT_EQ(w[i].token, g[i].token) << "tag " << i << " on: " << input;
      EXPECT_EQ(w[i].end, g[i].end) << "tag " << i << " on: " << input;
    }
  }
}

hwgen::HwOptions Options(uint32_t aot_budget = 4096) {
  hwgen::HwOptions options;
  options.tagger.aot_state_budget = aot_budget;
  return options;
}

TEST(ArtifactRoundTripTest, RoundTripKeepsTokenNumbering) {
  auto direct = CompiledTagger::Compile(FixtureGrammar(), Options());
  ASSERT_TRUE(direct.ok()) << direct.status();
  auto bytes = direct->Serialize();
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  auto loaded = CompiledTagger::Deserialize(*bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_NE(loaded->lazy_model(), nullptr);
  EXPECT_FALSE(direct->loaded_from_artifact());
  EXPECT_TRUE(loaded->loaded_from_artifact());
  ExpectSameTags(*direct, *loaded);
  // The rebuilt grammar keeps the original token numbering and names.
  EXPECT_EQ(loaded->grammar().FindToken("NUM"),
            direct->grammar().FindToken("NUM"));
  EXPECT_EQ(loaded->grammar().FindToken("WORD"),
            direct->grammar().FindToken("WORD"));
}

TEST(ArtifactRoundTripTest, RoundTripsWithAndWithoutAot) {
  for (uint32_t budget : {uint32_t{4096}, uint32_t{0}}) {
    auto direct = CompiledTagger::Compile(FixtureGrammar(), Options(budget));
    ASSERT_TRUE(direct.ok()) << direct.status();
    auto bytes = direct->Serialize();
    ASSERT_TRUE(bytes.ok()) << bytes.status();
    auto loaded = CompiledTagger::Deserialize(*bytes);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    ASSERT_NE(loaded->lazy_model(), nullptr);
    EXPECT_EQ(loaded->lazy_model()->aot() != nullptr, budget > 0);
    ExpectSameTags(*direct, *loaded);
  }
}

// The bake and the runtime build states with the same step: after a
// converged bake, a session out of the loaded table resolves its start to
// baked state 0 and finds every transition it takes already baked, so it
// interns nothing of its own — in every arm mode.
TEST(ArtifactRoundTripTest, ConvergedBakeCoversEverySessionStep) {
  constexpr uint32_t kBudget = 16384;
  for (tagger::ArmMode mode :
       {tagger::ArmMode::kAnchored, tagger::ArmMode::kScan,
        tagger::ArmMode::kResync}) {
    hwgen::HwOptions options = Options(kBudget);
    options.tagger.arm_mode = mode;
    auto direct = CompiledTagger::Compile(FixtureGrammar(), options);
    ASSERT_TRUE(direct.ok()) << direct.status();
    auto bytes = direct->Serialize();
    ASSERT_TRUE(bytes.ok()) << bytes.status();
    auto loaded = CompiledTagger::Deserialize(*bytes);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    const tagger::AotDfaTable* aot = loaded->lazy_model()->aot();
    ASSERT_NE(aot, nullptr);
    ASSERT_LT(aot->states.size(), kBudget) << "bake did not converge";
    tagger::LazyDfaSession session = loaded->lazy_model()->NewSession();
    for (const char* input : kInputs) {
      std::vector<Tag> got;
      const auto sink = [&got](const Tag& t) {
        got.push_back(t);
        return true;
      };
      session.Reset();
      session.Feed(input, sink);
      session.Finish(sink);
      const std::vector<Tag> want = direct->Tag(input);
      ASSERT_EQ(want.size(), got.size()) << "on input: " << input;
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(want[i].token, got[i].token) << "on input: " << input;
        EXPECT_EQ(want[i].end, got[i].end) << "on input: " << input;
      }
    }
    EXPECT_EQ(session.cache_states(), 0u);
  }
}

TEST(ArtifactRoundTripTest, SerializeIsDeterministic) {
  auto a = CompiledTagger::Compile(FixtureGrammar(), Options());
  auto b = CompiledTagger::Compile(FixtureGrammar(), Options());
  ASSERT_TRUE(a.ok() && b.ok());
  auto ba = a->Serialize();
  auto bb = b->Serialize();
  ASSERT_TRUE(ba.ok() && bb.ok());
  EXPECT_EQ(*ba, *bb);
}

// Files written with the fused header value (no baked table) load as lazy
// artifacts with no AOT region.
TEST(ArtifactRoundTripTest, FusedHeaderLoadsAsLazyArtifact) {
  namespace art = tagger::artifact;
  auto direct = CompiledTagger::Compile(FixtureGrammar(), Options(0));
  ASSERT_TRUE(direct.ok()) << direct.status();
  auto bytes = direct->Serialize();
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  std::string fused = *bytes;
  fused[offsetof(art::ArtifactHeader, backend)] =
      static_cast<char>(art::kArtifactFused);
  const uint64_t checksum = art::ArtifactChecksum(fused.data(), fused.size());
  std::memcpy(fused.data() + offsetof(art::ArtifactHeader, checksum),
              &checksum, sizeof(checksum));
  auto loaded = CompiledTagger::Deserialize(fused);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_NE(loaded->lazy_model(), nullptr);
  EXPECT_EQ(loaded->lazy_model()->aot(), nullptr);
  ExpectSameTags(*direct, *loaded);
}

TEST(ArtifactRoundTripTest, LoadArtifactMmapsFromDisk) {
  auto direct = CompiledTagger::Compile(FixtureGrammar(), Options());
  ASSERT_TRUE(direct.ok()) << direct.status();
  auto bytes = direct->Serialize();
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  const std::string path = TempPath("mmap.cfgtag");
  ASSERT_TRUE(tagger::artifact::AtomicWriteFile(path, *bytes).ok());
  auto loaded = CompiledTagger::LoadArtifact(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectSameTags(*direct, *loaded);
  std::remove(path.c_str());

  auto missing = CompiledTagger::LoadArtifact(path);
  EXPECT_FALSE(missing.ok());
}

// CompiledTagger's two hardware forwarders, kept for perfbench, are
// HardwareDesign's methods on the tagger's own grammar and options, over a
// netlist generated once per tagger: racing first calls share one
// generation, and a generator failure is remembered, not retried. An
// artifact carries no grammar source for them, so a loaded tagger refuses
// both.
TEST(ArtifactRoundTripTest, LoadedTaggerRejectsHardwareMethods) {
  auto direct = CompiledTagger::Compile(FixtureGrammar(), Options());
  ASSERT_TRUE(direct.ok());
  auto design = core::HardwareDesign::Create(FixtureGrammar(), Options());
  ASSERT_TRUE(design.ok()) << design.status();
  obs::Histogram* hwgen = obs::MetricsRegistry::Default().GetHistogram(
      "cfgtag_compile_stage_seconds{stage=\"hwgen\"}");
  const uint64_t runs = hwgen->TotalCount();
  for (const char* input : kInputs) {
    auto hw = direct->TagCycleAccurate(input);
    ASSERT_TRUE(hw.ok()) << hw.status();
    EXPECT_EQ(*hw, design->TagCycleAccurate(input).value()) << input;
    EXPECT_EQ(*hw, direct->Tag(input)) << input;
  }
  for (bool optimize : {false, true}) {
    auto got = direct->Implement(rtl::Virtex4LX200(), optimize);
    auto want = design->Implement(rtl::Virtex4LX200(), optimize);
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_TRUE(want.ok()) << want.status();
    EXPECT_EQ(got->area.luts, want->area.luts);
    EXPECT_EQ(got->area.ffs, want->area.ffs);
    EXPECT_EQ(got->area.pattern_bytes, want->area.pattern_bytes);
    EXPECT_EQ(got->timing.fmax_mhz, want->timing.fmax_mhz);
    EXPECT_EQ(got->bandwidth_gbps, want->bandwidth_gbps);
  }
  EXPECT_EQ(hwgen->TotalCount(), runs + 1);

  // First calls racing on a fresh tagger, half of them Implement.
  auto fresh = CompiledTagger::Compile(FixtureGrammar(), Options());
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  const uint64_t before_race = hwgen->TotalCount();
  constexpr int kThreads = 4;
  std::vector<StatusOr<core::ImplementationReport>> reports(
      kThreads, InternalError("not run"));
  std::vector<StatusOr<std::vector<Tag>>> raced(kThreads,
                                                InternalError("not run"));
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      if (i % 2 == 0) reports[i] = fresh->Implement(rtl::Virtex4LX200());
      raced[i] = fresh->TagCycleAccurate(kInputs[0]);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(hwgen->TotalCount(), before_race + 1);
  for (int i = 0; i < kThreads; ++i) {
    ASSERT_TRUE(raced[i].ok()) << raced[i].status();
    EXPECT_EQ(*raced[i], fresh->Tag(kInputs[0]));
    if (i % 2 != 0) continue;
    ASSERT_TRUE(reports[i].ok()) << reports[i].status();
    EXPECT_EQ(reports[i]->area.luts, reports[0]->area.luts);
    EXPECT_EQ(reports[i]->timing.fmax_mhz, reports[0]->timing.fmax_mhz);
  }

  // bytes_per_cycle 3 compiles and tags, but the generator refuses it:
  // both forwarders return that one failure.
  hwgen::HwOptions bad = Options();
  bad.bytes_per_cycle = 3;
  auto unbuildable = CompiledTagger::Compile(FixtureGrammar(), bad);
  ASSERT_TRUE(unbuildable.ok()) << unbuildable.status();
  const uint64_t before_bad = hwgen->TotalCount();
  auto failed = unbuildable->TagCycleAccurate("x");
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(unbuildable->Implement(rtl::Virtex4LX200()).status(),
            failed.status());
  EXPECT_EQ(unbuildable->TagCycleAccurate("x").status(), failed.status());
  EXPECT_EQ(hwgen->TotalCount(), before_bad + 1);

  auto bytes = direct->Serialize();
  ASSERT_TRUE(bytes.ok());
  auto loaded = CompiledTagger::Deserialize(*bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->TagCycleAccurate("x").status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(loaded->Implement(rtl::Virtex4LX200()).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(ArtifactRoundTripTest, CompileCachedMissesThenHits) {
  const std::string dir = TempPath("cache");
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);

  hwgen::HwOptions options = Options();
  auto miss = CompiledTagger::CompileCached(FixtureGrammar(), options, dir);
  ASSERT_TRUE(miss.ok()) << miss.status();
  // A miss compiles for real: the grammar source stays with it.
  EXPECT_FALSE(miss->loaded_from_artifact());

  auto hit = CompiledTagger::CompileCached(FixtureGrammar(), options, dir);
  ASSERT_TRUE(hit.ok()) << hit.status();
  EXPECT_TRUE(hit->loaded_from_artifact());
  // Cold starts run out of the baked table.
  EXPECT_NE(hit->lazy_model()->aot(), nullptr);
  ExpectSameTags(*miss, *hit);

  // Content-equal but textually reordered grammar: same cache entry.
  EXPECT_EQ(grammar::CanonicalHash(FixtureGrammar()),
            grammar::CanonicalHash(ReorderedFixtureGrammar()));
  auto reordered =
      CompiledTagger::CompileCached(ReorderedFixtureGrammar(), options, dir);
  ASSERT_TRUE(reordered.ok()) << reordered.status();
  EXPECT_TRUE(reordered->loaded_from_artifact());
  ExpectSameTags(*miss, *reordered);

  // Different options hash → different entry → a fresh compile.
  hwgen::HwOptions other = options;
  other.tagger.longest_match = !other.tagger.longest_match;
  auto other_miss =
      CompiledTagger::CompileCached(FixtureGrammar(), other, dir);
  ASSERT_TRUE(other_miss.ok()) << other_miss.status();
  EXPECT_FALSE(other_miss->loaded_from_artifact());

  const std::string cmd = "rm -rf '" + dir + "'";
  ASSERT_EQ(std::system(cmd.c_str()), 0);
}

// --- Hardened loader: malformed bytes become typed errors. ---------------

std::string ValidArtifact() {
  auto direct = CompiledTagger::Compile(FixtureGrammar(), Options());
  EXPECT_TRUE(direct.ok());
  auto bytes = direct->Serialize();
  EXPECT_TRUE(bytes.ok());
  return *bytes;
}

TEST(ArtifactLoaderHardeningTest, RejectsTruncationAndGarbage) {
  const std::string bytes = ValidArtifact();

  // Too short for a header.
  for (size_t n : {size_t{0}, size_t{8}, size_t{100},
                   sizeof(tagger::artifact::ArtifactHeader) - 1}) {
    auto r = CompiledTagger::Deserialize(std::string_view(bytes).substr(0, n));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }

  // Truncated payload (header intact, file_bytes mismatch).
  {
    auto r = CompiledTagger::Deserialize(
        std::string_view(bytes).substr(0, bytes.size() - 8));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }

  // Trailing garbage.
  {
    auto r = CompiledTagger::Deserialize(bytes + "garbage!");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }

  // Not an artifact at all.
  {
    const std::string junk(1024, 'x');
    auto r = CompiledTagger::Deserialize(junk);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
}

// Flip bytes at a fixed header offset and expect a typed rejection.
void ExpectRejects(std::string bytes, size_t offset, const char* what) {
  bytes[offset] ^= 0x5a;
  auto r = CompiledTagger::Deserialize(bytes);
  ASSERT_FALSE(r.ok()) << what << ": corruption at offset " << offset
                       << " was accepted";
  EXPECT_TRUE(r.status().code() == StatusCode::kInvalidArgument ||
              r.status().code() == StatusCode::kOutOfRange)
      << what << ": " << r.status();
}

TEST(ArtifactLoaderHardeningTest, RejectsHeaderFieldCorruption) {
  const std::string bytes = ValidArtifact();
  ExpectRejects(bytes, 0, "magic");
  ExpectRejects(bytes, 8, "format version");
  ExpectRejects(bytes, 12, "endian tag");
  ExpectRejects(bytes, 16, "file_bytes");
  ExpectRejects(bytes, 24, "checksum");
}

// The acceptance invariant: random byte flips and truncations anywhere in
// the artifact either fail to load (typed error) or load into a tagger
// whose output is byte-identical to the original. Never a crash, never a
// silent divergence. The checksum catches essentially all of these; the
// structural checks stand behind it for crafted files.
TEST(ArtifactLoaderHardeningTest, CorruptArtifactFuzz) {
  const std::string bytes = ValidArtifact();
  auto original = CompiledTagger::Deserialize(bytes);
  ASSERT_TRUE(original.ok());
  std::vector<std::vector<Tag>> want;
  for (const char* input : kInputs) want.push_back(original->Tag(input));

  Rng rng(20260809);
  int loads = 0;
  for (int iter = 0; iter < 400; ++iter) {
    std::string corrupt = bytes;
    switch (rng.NextIndex(3)) {
      case 0:  // single byte flip
        corrupt[rng.NextIndex(corrupt.size())] ^=
            static_cast<char>(1 + rng.NextIndex(255));
        break;
      case 1:  // a burst of flips
        for (size_t k = 0, n = 1 + rng.NextIndex(16); k < n; ++k) {
          corrupt[rng.NextIndex(corrupt.size())] ^=
              static_cast<char>(1 + rng.NextIndex(255));
        }
        break;
      default:  // truncation (sometimes with the header intact)
        corrupt.resize(rng.NextIndex(corrupt.size()));
        break;
    }
    auto r = CompiledTagger::Deserialize(corrupt);
    if (!r.ok()) continue;  // typed rejection is the expected outcome
    ++loads;
    for (size_t i = 0; i < want.size(); ++i) {
      const std::vector<Tag> got = r->Tag(kInputs[i]);
      ASSERT_EQ(want[i].size(), got.size())
          << "corrupt artifact diverged (iter " << iter << ")";
      for (size_t t = 0; t < got.size(); ++t) {
        ASSERT_TRUE(want[i][t].token == got[t].token &&
                    want[i][t].end == got[t].end)
            << "corrupt artifact diverged (iter " << iter << ")";
      }
    }
  }
  // With a whole-file checksum, surviving loads should be rare; the few
  // that do survive (flips that cancel out, truncation at full length)
  // were verified identical above.
  EXPECT_LT(loads, 40) << "checksum is not catching corruption";
}

}  // namespace
}  // namespace cfgtag
