// Equivalence and edge-case coverage for the runtime-dispatched SIMD
// kernel library (src/tagger/simd/) and the RunScanner rewired on top of
// it: every available kernel tier must return byte-identical results to
// the scalar tier for arbitrary byte sets, buffer lengths shorter than a
// vector, and unaligned heads and tails.

#include <cstring>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "regex/char_class.h"
#include "tagger/simd/dispatch.h"
#include "tagger/skip_scan.h"

namespace cfgtag::tagger {
namespace {

using simd::BuildByteSet;
using simd::ByteSet;
using simd::Isa;
using simd::IsaAvailable;
using simd::Kernels;
using simd::KernelsFor;

std::vector<Isa> AvailableIsas() {
  std::vector<Isa> isas;
  for (int i = 0; i < simd::kNumIsas; ++i) {
    const Isa isa = static_cast<Isa>(i);
    if (IsaAvailable(isa)) isas.push_back(isa);
  }
  return isas;
}

// Reference implementation: plain per-byte membership loop.
size_t NaiveFindFirstIn(const bool members[256], const std::string& s,
                        size_t from, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (members[static_cast<unsigned char>(s[from + i])]) return i;
  }
  return n;
}

size_t NaiveFindFirstNotIn(const bool members[256], const std::string& s,
                           size_t from, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (!members[static_cast<unsigned char>(s[from + i])]) return i;
  }
  return n;
}

// A byte set with `count` pseudo-random members.
void RandomSet(std::mt19937* rng, int count, bool members[256]) {
  std::memset(members, 0, 256);
  int placed = 0;
  while (placed < count) {
    const int b = static_cast<int>((*rng)() % 256);
    if (!members[b]) {
      members[b] = true;
      ++placed;
    }
  }
}

std::string RandomBuffer(std::mt19937* rng, size_t n, const bool members[256],
                         double member_prob) {
  // Bytes drawn from inside/outside the set with the given bias, so runs
  // of both polarities occur at every tested length.
  std::vector<unsigned char> inside, outside;
  for (int b = 0; b < 256; ++b) {
    (members[b] ? inside : outside).push_back(static_cast<unsigned char>(b));
  }
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::string s;
  s.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const bool in = !inside.empty() && (outside.empty() || coin(*rng) < member_prob);
    const auto& pool = in ? inside : outside;
    s.push_back(static_cast<char>(pool[(*rng)() % pool.size()]));
  }
  return s;
}

TEST(SimdKernels, AtLeastScalarIsAvailable) {
  EXPECT_TRUE(IsaAvailable(Isa::kScalar));
  EXPECT_TRUE(IsaAvailable(simd::BestAvailable()));
}

// Every tier, every set size of interest (0, 1, 8, 9, 255 cross the
// memchr / SWAR / table strategy boundaries), buffers shorter than any
// vector width through several vectors long, at every alignment offset.
TEST(SimdKernels, FindFirstMatchesNaiveEverywhere) {
  std::mt19937 rng(20260809);
  const std::vector<Isa> isas = AvailableIsas();
  const int set_sizes[] = {0, 1, 2, 8, 9, 16, 100, 255, 256};
  for (const int count : set_sizes) {
    bool members[256];
    RandomSet(&rng, count, members);
    const ByteSet set = BuildByteSet(members);
    ASSERT_EQ(set.num_values, count);
    for (const double bias : {0.05, 0.5, 0.95}) {
      // Oversized so every (offset, length) window stays in bounds.
      const std::string buf = RandomBuffer(&rng, 256, members, bias);
      for (const size_t len : {size_t{0}, size_t{1}, size_t{3}, size_t{7},
                               size_t{8}, size_t{15}, size_t{16}, size_t{17},
                               size_t{31}, size_t{32}, size_t{33}, size_t{63},
                               size_t{64}, size_t{65}, size_t{100},
                               size_t{128}}) {
        for (const size_t off : {size_t{0}, size_t{1}, size_t{7}, size_t{13},
                                 size_t{16}, size_t{31}}) {
          const size_t want_in = NaiveFindFirstIn(members, buf, off, len);
          const size_t want_not = NaiveFindFirstNotIn(members, buf, off, len);
          for (const Isa isa : isas) {
            const Kernels& k = KernelsFor(isa);
            EXPECT_EQ(k.find_first_in(set, buf.data() + off, len), want_in)
                << "isa=" << simd::IsaName(isa) << " count=" << count
                << " off=" << off << " len=" << len;
            EXPECT_EQ(k.find_first_not_in(set, buf.data() + off, len),
                      want_not)
                << "isa=" << simd::IsaName(isa) << " count=" << count
                << " off=" << off << " len=" << len;
          }
        }
      }
    }
  }
}

TEST(SimdDispatch, ForceIsaSwitchesActiveKernels) {
  simd::ForceIsa(Isa::kScalar);
  EXPECT_EQ(simd::Active().isa, Isa::kScalar);
  const Isa best = simd::BestAvailable();
  simd::ForceIsa(best);
  EXPECT_EQ(simd::Active().isa, best);
  simd::ClearForcedIsa();
  // The startup selection honors CFGTAG_FORCE_SCALAR if the environment
  // sets it, so only sanity-check availability here.
  EXPECT_TRUE(IsaAvailable(simd::Active().isa));
}

TEST(SimdDispatch, ForcingUnavailableIsaFallsBackToScalar) {
#if defined(__aarch64__)
  const Isa missing = Isa::kAvx2;
#else
  const Isa missing = Isa::kNeon;
#endif
  ASSERT_FALSE(IsaAvailable(missing));
  simd::ForceIsa(missing);
  EXPECT_EQ(simd::Active().isa, Isa::kScalar);
  simd::ClearForcedIsa();
}

// RunScanner (the idle fast-skip engine) must agree between forced-scalar
// and the best vector dispatch for arbitrary sets, and its reported
// strategy must track the active dispatch.
TEST(RunScannerSimd, DispatchEquivalenceSweep) {
  std::mt19937 rng(1337);
  const Isa best = simd::BestAvailable();
  for (const int count : {0, 1, 3, 8, 9, 40, 255}) {
    bool members[256];
    RandomSet(&rng, count, members);
    regex::CharClass cc;
    for (int b = 0; b < 256; ++b) {
      if (members[b]) cc.Set(static_cast<unsigned char>(b));
    }
    const RunScanner scanner = RunScanner::ForSet(cc);
    EXPECT_EQ(scanner.num_values(), count);
    for (int b = 0; b < 256; ++b) {
      EXPECT_EQ(scanner.Test(static_cast<unsigned char>(b)), members[b]);
    }
    for (const double bias : {0.1, 0.9}) {
      const std::string buf = RandomBuffer(&rng, 200, members, bias);
      for (size_t len : {size_t{0}, size_t{5}, size_t{16}, size_t{40},
                         size_t{200}}) {
        simd::ForceIsa(Isa::kScalar);
        const size_t in_scalar = scanner.FindFirstIn(buf.data(), len);
        const size_t not_scalar = scanner.FindFirstNotIn(buf.data(), len);
        simd::ForceIsa(best);
        EXPECT_EQ(scanner.FindFirstIn(buf.data(), len), in_scalar);
        EXPECT_EQ(scanner.FindFirstNotIn(buf.data(), len), not_scalar);
      }
    }
  }
  simd::ClearForcedIsa();
}

TEST(RunScannerSimd, StrategyTracksDispatchAndPopulation) {
  auto scanner_with = [](int count) {
    regex::CharClass cc;
    for (int b = 0; b < count; ++b) cc.Set(static_cast<unsigned char>(b));
    return RunScanner::ForSet(cc);
  };
  simd::ForceIsa(Isa::kScalar);
  EXPECT_EQ(scanner_with(0).strategy(), SkipStrategy::kNone);
  EXPECT_EQ(scanner_with(1).strategy(), SkipStrategy::kMemchr);
  EXPECT_EQ(scanner_with(8).strategy(), SkipStrategy::kSwar);
  EXPECT_EQ(scanner_with(9).strategy(), SkipStrategy::kTable);
  const Isa best = simd::BestAvailable();
  simd::ForceIsa(best);
  if (best != Isa::kScalar) {
    EXPECT_EQ(scanner_with(0).strategy(), SkipStrategy::kNone);
    EXPECT_EQ(scanner_with(1).strategy(), SkipStrategy::kMemchr);
    EXPECT_EQ(scanner_with(8).strategy(), SkipStrategy::kSimd);
    EXPECT_EQ(scanner_with(9).strategy(), SkipStrategy::kSimd);
  }
  simd::ClearForcedIsa();
}

}  // namespace
}  // namespace cfgtag::tagger
