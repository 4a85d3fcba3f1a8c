#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "reference/nfa.h"
#include "regex/position_automaton.h"
#include "regex/regex_parser.h"

namespace cfgtag::regex {
namespace {

PositionAutomaton Build(const std::string& pattern) {
  auto re = ParseRegex(pattern);
  EXPECT_TRUE(re.ok()) << pattern;
  return PositionAutomaton::Build(**re);
}

// Runs the position automaton over `s` with injection only at step 0 and
// returns the longest accepted prefix (mirrors Nfa::LongestPrefixMatch).
size_t PaLongestPrefix(const PositionAutomaton& pa, const std::string& s) {
  const size_t nw = pa.NumWords() == 0 ? 1 : pa.NumWords();
  std::vector<uint64_t> state(nw, 0), next(nw, 0);
  size_t best = pa.nullable ? 0 : Nfa::kNoMatch;
  for (size_t i = 0; i < s.size(); ++i) {
    pa.StepState(state.data(), /*inject=*/i == 0,
                 static_cast<unsigned char>(s[i]), next.data());
    bool dead = true;
    for (size_t w = 0; w < nw; ++w) dead &= next[w] == 0;
    if (dead) break;
    if (pa.Accepts(next.data())) best = i + 1;
    state.swap(next);
  }
  return best;
}

TEST(PositionAutomatonTest, LiteralChain) {
  PositionAutomaton pa = Build("abc");
  ASSERT_EQ(pa.NumPositions(), 3u);
  EXPECT_EQ(pa.first, (std::vector<uint32_t>{0}));
  EXPECT_TRUE(pa.is_last[2]);
  EXPECT_FALSE(pa.is_last[0]);
  EXPECT_EQ(pa.follow[0], (std::vector<uint32_t>{1}));
  EXPECT_EQ(pa.follow[1], (std::vector<uint32_t>{2}));
  EXPECT_TRUE(pa.follow[2].empty());
  EXPECT_FALSE(pa.nullable);
}

TEST(PositionAutomatonTest, PlusSelfLoop) {
  PositionAutomaton pa = Build("a+");
  ASSERT_EQ(pa.NumPositions(), 1u);
  EXPECT_EQ(pa.follow[0], (std::vector<uint32_t>{0}));
  EXPECT_TRUE(pa.is_last[0]);
  EXPECT_FALSE(pa.nullable);
  EXPECT_TRUE(Build("a*").nullable);
}

TEST(PositionAutomatonTest, AlternationFirstsAndLasts) {
  PositionAutomaton pa = Build("ab|cd");
  ASSERT_EQ(pa.NumPositions(), 4u);
  EXPECT_EQ(pa.first, (std::vector<uint32_t>{0, 2}));
  EXPECT_TRUE(pa.is_last[1]);
  EXPECT_TRUE(pa.is_last[3]);
}

TEST(PositionAutomatonTest, OptionalMiddle) {
  PositionAutomaton pa = Build("ab?c");
  // 'a' is followed by both 'b' and 'c'.
  EXPECT_EQ(pa.follow[0], (std::vector<uint32_t>{1, 2}));
  EXPECT_EQ(pa.follow[1], (std::vector<uint32_t>{2}));
}

TEST(PositionAutomatonTest, StarLoopFollow) {
  PositionAutomaton pa = Build("(ab)*");
  // b loops back to a.
  EXPECT_EQ(pa.follow[1], (std::vector<uint32_t>{0}));
  EXPECT_TRUE(pa.nullable);
}

TEST(PositionAutomatonTest, PositionsCarryClasses) {
  PositionAutomaton pa = Build("[0-9][a-z]");
  EXPECT_TRUE(pa.positions[0].Test('5'));
  EXPECT_FALSE(pa.positions[0].Test('x'));
  EXPECT_TRUE(pa.positions[1].Test('x'));
}

TEST(PositionAutomatonTest, CanExtendOnlyFromAcceptingPositions) {
  PositionAutomaton pa = Build("a+b?");
  const size_t nw = 1;
  std::vector<uint64_t> state(nw, 0), next(nw, 0);
  pa.StepState(state.data(), true, 'a', next.data());
  ASSERT_TRUE(pa.Accepts(next.data()));
  // From an accepting 'a' run, both 'a' (self-loop) and 'b' extend.
  EXPECT_TRUE(pa.CanExtend(next.data(), 'a'));
  EXPECT_TRUE(pa.CanExtend(next.data(), 'b'));
  EXPECT_FALSE(pa.CanExtend(next.data(), 'c'));

  // After consuming 'b' the match cannot extend at all.
  state.swap(next);
  pa.StepState(state.data(), false, 'b', next.data());
  ASSERT_TRUE(pa.Accepts(next.data()));
  EXPECT_FALSE(pa.CanExtend(next.data(), 'a'));
  EXPECT_FALSE(pa.CanExtend(next.data(), 'b'));
}

TEST(PositionAutomatonTest, FixedLengthTokenNeverExtends) {
  PositionAutomaton pa = Build("\"<i4>\"");
  std::vector<uint64_t> state(1, 0), next(1, 0);
  const std::string s = "<i4>";
  for (size_t i = 0; i < s.size(); ++i) {
    pa.StepState(state.data(), i == 0, static_cast<unsigned char>(s[i]),
                 next.data());
    state.swap(next);
  }
  ASSERT_TRUE(pa.Accepts(state.data()));
  for (int c = 0; c < 256; ++c) {
    EXPECT_FALSE(pa.CanExtend(state.data(), static_cast<unsigned char>(c)));
  }
}

TEST(PositionAutomatonTest, InjectionMergesRuns) {
  // Two overlapping runs merge into one state set (the hardware shares one
  // register chain per token).
  PositionAutomaton pa = Build("aa");
  std::vector<uint64_t> state(1, 0), next(1, 0);
  pa.StepState(state.data(), true, 'a', next.data());  // run 1: pos0
  state.swap(next);
  pa.StepState(state.data(), true, 'a', next.data());  // run 2 starts too
  // Both pos0 (new run) and pos1 (old run) are live.
  EXPECT_EQ(next[0], 0b11u);
  EXPECT_TRUE(pa.Accepts(next.data()));
}

// One run's observable stepping: the state words after each byte (with
// injection every byte, scan style), then whether it accepts and whether
// it can extend on the next byte. `first_call` picks which of StepState,
// Accepts and CanExtend the run makes first.
std::vector<uint64_t> SteppingTrace(const PositionAutomaton& pa,
                                    const std::string& s, int first_call) {
  const size_t nw = pa.NumWords();
  std::vector<uint64_t> state(nw, 0), next(nw, 0), trace;
  if (first_call == 1) trace.push_back(pa.Accepts(state.data()));
  if (first_call == 2) trace.push_back(pa.CanExtend(state.data(), 'a'));
  for (size_t i = 0; i < s.size(); ++i) {
    pa.StepState(state.data(), /*inject=*/true,
                 static_cast<unsigned char>(s[i]), next.data());
    trace.insert(trace.end(), next.begin(), next.end());
    trace.push_back(pa.Accepts(next.data()));
    trace.push_back(pa.CanExtend(
        next.data(), static_cast<unsigned char>(s[(i + 1) % s.size()])));
    state.swap(next);
  }
  return trace;
}

// The stepping tables are built by the first StepState/Accepts/CanExtend
// call. Four threads making those first calls at once on one fresh
// automaton must each see exactly what a single-threaded run sees.
TEST(PositionAutomatonTest, ConcurrentFirstStepsMatchSingleThreaded) {
  const std::string pattern =
      "(abc|a[0-9]+x|\"<value><string>\")*(hello|world)+[a-z]*z?";
  const std::string input =
      "abca12xhello<value><string>worldzzabcaxa9xhelloworldqz";
  const std::vector<uint64_t> want = SteppingTrace(Build(pattern), input, 0);
  constexpr int kThreads = 4;
  for (int round = 0; round < 16; ++round) {
    const PositionAutomaton pa = Build(pattern);
    std::atomic<int> ready{0};
    std::vector<std::vector<uint64_t>> got(kThreads);
    std::vector<std::thread> threads;
    for (int k = 0; k < kThreads; ++k) {
      threads.emplace_back([&, k] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) {
        }
        got[k] = SteppingTrace(pa, input, k % 3);
      });
    }
    for (std::thread& t : threads) t.join();
    for (int k = 0; k < kThreads; ++k) {
      std::vector<uint64_t> expect = want;
      if (k % 3 != 0) expect.insert(expect.begin(), 0);
      EXPECT_EQ(got[k], expect) << "thread " << k << ", round " << round;
    }
  }
}

class PaVsNfaTest : public ::testing::TestWithParam<uint64_t> {};

// The position automaton and the Thompson NFA are two independent
// constructions of the same language: their prefix-match behaviour must
// coincide on random patterns and inputs.
TEST_P(PaVsNfaTest, LongestPrefixAgrees) {
  Rng rng(GetParam() * 7919 + 1);
  std::function<std::string(int)> gen = [&](int depth) -> std::string {
    if (depth <= 0 || rng.NextBool(0.4)) {
      static constexpr const char* kAtoms[] = {"a", "b", "[ab]", "c", "[^a]"};
      return kAtoms[rng.NextIndex(5)];
    }
    switch (rng.NextIndex(3)) {
      case 0:
        return gen(depth - 1) + gen(depth - 1);
      case 1:
        return "(" + gen(depth - 1) + "|" + gen(depth - 1) + ")";
      default: {
        static constexpr const char* kPostfix[] = {"*", "+", "?"};
        return "(" + gen(depth - 1) + ")" + kPostfix[rng.NextIndex(3)];
      }
    }
  };
  const std::string pattern = gen(4);
  auto re = ParseRegex(pattern);
  ASSERT_TRUE(re.ok()) << pattern;
  Nfa nfa = Nfa::Build(**re);
  PositionAutomaton pa = PositionAutomaton::Build(**re);
  EXPECT_EQ(pa.nullable, (*re)->Nullable());
  for (int i = 0; i < 40; ++i) {
    const std::string s = rng.NextString(rng.NextIndex(7), "abc");
    EXPECT_EQ(PaLongestPrefix(pa, s), nfa.LongestPrefixMatch(s, 0))
        << pattern << " on " << s;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PaVsNfaTest, ::testing::Range<uint64_t>(0, 20));

}  // namespace
}  // namespace cfgtag::regex
