// TaggerSession: chunked streaming must be byte-for-byte identical to
// whole-input tagging, for every chunking of the input.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "grammar/grammar_parser.h"
#include "reference/functional_model.h"
#include "xmlrpc/message_gen.h"
#include "xmlrpc/xmlrpc_grammar.h"

namespace cfgtag::tagger {
namespace {

grammar::Grammar MustParse(const std::string& text) {
  auto g = grammar::ParseGrammar(text);
  EXPECT_TRUE(g.ok()) << g.status();
  return std::move(g).value();
}

std::vector<Tag> Collect(TaggerSession& session, std::string_view input,
                         size_t chunk_size) {
  std::vector<Tag> tags;
  const TagSink sink = [&tags](const Tag& t) {
    tags.push_back(t);
    return true;
  };
  for (size_t at = 0; at < input.size(); at += chunk_size) {
    session.Feed(input.substr(at, chunk_size), sink);
  }
  session.Finish(sink);
  return tags;
}

TEST(TaggerSessionTest, ChunkedEqualsWhole) {
  grammar::Grammar g = MustParse("NUM [0-9]+\n%%\ns: \"<n>\" NUM \"</n>\";\n%%\n");
  auto t = FunctionalTagger::Create(&g, {});
  ASSERT_TRUE(t.ok());
  const std::string input = "<n>12345</n>";
  const auto whole = t->TagAll(input);
  for (size_t chunk : {1u, 2u, 3u, 5u, 7u, 100u}) {
    TaggerSession session = t->NewSession();
    EXPECT_EQ(Collect(session, input, chunk), whole) << "chunk=" << chunk;
  }
}

TEST(TaggerSessionTest, LookaheadDeferredAcrossChunkBoundary) {
  // NUM's longest-match decision for "12" depends on the next chunk's
  // first byte: "3" extends it, "x" does not.
  grammar::Grammar g = MustParse("NUM [0-9]+\n%%\ns: NUM;\n%%\n");
  auto t = FunctionalTagger::Create(&g, {});
  ASSERT_TRUE(t.ok());

  std::vector<Tag> tags;
  const TagSink sink = [&tags](const Tag& tag) {
    tags.push_back(tag);
    return true;
  };
  TaggerSession session = t->NewSession();
  session.Feed("12", sink);
  EXPECT_TRUE(tags.empty()) << "decision must wait for the next byte";
  session.Feed("3", sink);
  EXPECT_TRUE(tags.empty());
  session.Finish(sink);
  ASSERT_EQ(tags.size(), 1u);
  EXPECT_EQ(tags[0].end, 2u);  // "123" as one token
}

TEST(TaggerSessionTest, FinishEmitsFinalByteMatch) {
  grammar::Grammar g = MustParse("%%\ns: \"ab\";\n%%\n");
  auto t = FunctionalTagger::Create(&g, {});
  ASSERT_TRUE(t.ok());
  TaggerSession session = t->NewSession();
  std::vector<Tag> tags;
  const TagSink sink = [&tags](const Tag& tag) {
    tags.push_back(tag);
    return true;
  };
  session.Feed("ab", sink);
  EXPECT_TRUE(tags.empty());
  session.Finish(sink);
  ASSERT_EQ(tags.size(), 1u);
  EXPECT_EQ(tags[0].end, 1u);
  // Finish is idempotent; Feed after Finish is ignored.
  session.Finish(sink);
  session.Feed("ab", sink);
  EXPECT_EQ(tags.size(), 1u);
}

TEST(TaggerSessionTest, ResetStartsOver) {
  grammar::Grammar g = MustParse("%%\ns: \"ab\";\n%%\n");
  auto t = FunctionalTagger::Create(&g, {});
  ASSERT_TRUE(t.ok());
  TaggerSession session = t->NewSession();
  std::vector<Tag> tags;
  const TagSink sink = [&tags](const Tag& tag) {
    tags.push_back(tag);
    return true;
  };
  session.Feed("ab", sink);
  session.Finish(sink);
  EXPECT_EQ(session.bytes_consumed(), 2u);
  session.Reset();
  EXPECT_EQ(session.bytes_consumed(), 0u);
  session.Feed("ab", sink);
  session.Finish(sink);
  ASSERT_EQ(tags.size(), 2u);
  EXPECT_EQ(tags[1].end, 1u);  // offsets restart after Reset
}

TEST(TaggerSessionTest, TagEndingOnChunkFinalByteWaitsOneByte) {
  // A tag whose last byte is the final byte of a Feed() chunk cannot be
  // emitted inside that Feed(): the longest-match decision needs the next
  // byte (the one-byte lag of the Fig. 7 look-ahead). It must arrive at
  // the start of the next chunk, not be dropped and not wait for Finish.
  grammar::Grammar g = MustParse("NUM [0-9]+\n%%\ns: NUM \"x\";\n%%\n");
  auto t = FunctionalTagger::Create(&g, {});
  ASSERT_TRUE(t.ok());
  TaggerSession session = t->NewSession();
  std::vector<Tag> tags;
  const TagSink sink = [&tags](const Tag& tag) {
    tags.push_back(tag);
    return true;
  };
  session.Feed("12", sink);
  EXPECT_TRUE(tags.empty()) << "decision lags one byte";
  session.Feed("x", sink);  // non-digit settles NUM without Finish
  ASSERT_EQ(tags.size(), 1u);
  EXPECT_EQ(tags[0].end, 1u);
  session.Finish(sink);
  EXPECT_EQ(tags.size(), 2u) << "then the literal \"x\" tag";
}

TEST(TaggerSessionTest, EarlyStopMidChunkThenResetAndReuse) {
  grammar::Grammar g = MustParse("%%\ns: \"a\" \"b\" \"c\";\n%%\n");
  auto t = FunctionalTagger::Create(&g, {});
  ASSERT_TRUE(t.ok());
  TaggerSession session = t->NewSession();
  int seen = 0;
  const TagSink stopper = [&seen](const Tag&) { return ++seen < 1; };
  session.Feed("a b c", stopper);
  EXPECT_EQ(seen, 1) << "halted mid-chunk after the first tag";

  // The same session object, Reset() and re-fed, must behave like new.
  session.Reset();
  EXPECT_EQ(session.bytes_consumed(), 0u);
  std::vector<Tag> tags;
  const TagSink sink = [&tags](const Tag& tag) {
    tags.push_back(tag);
    return true;
  };
  session.Feed("a b c", sink);
  session.Finish(sink);
  EXPECT_EQ(tags, t->TagAll("a b c"));
  EXPECT_EQ(tags.size(), 3u);
}

TEST(TaggerSessionTest, EarlyStopHalts) {
  grammar::Grammar g = MustParse("%%\ns: \"a\" \"b\" \"c\";\n%%\n");
  auto t = FunctionalTagger::Create(&g, {});
  ASSERT_TRUE(t.ok());
  TaggerSession session = t->NewSession();
  int seen = 0;
  const TagSink sink = [&seen](const Tag&) { return ++seen < 2; };
  session.Feed("a b c", sink);
  session.Finish(sink);
  EXPECT_EQ(seen, 2);
}

class ChunkFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChunkFuzzTest, RandomChunkingMatchesWholeOnXmlRpc) {
  auto g = xmlrpc::XmlRpcGrammar();
  ASSERT_TRUE(g.ok());
  TaggerOptions opt;
  opt.arm_mode = ArmMode::kResync;
  auto t = FunctionalTagger::Create(&g.value(), opt);
  ASSERT_TRUE(t.ok());

  Rng rng(GetParam() * 31 + 5);
  xmlrpc::MessageGenerator gen({}, GetParam());
  const std::string stream = gen.GenerateStream(3);
  const auto whole = t->TagAll(stream);

  TaggerSession session = t->NewSession();
  std::vector<Tag> tags;
  const TagSink sink = [&tags](const Tag& tag) {
    tags.push_back(tag);
    return true;
  };
  size_t at = 0;
  while (at < stream.size()) {
    const size_t len = 1 + rng.NextIndex(17);
    session.Feed(std::string_view(stream).substr(at, len), sink);
    at += len;
  }
  session.Finish(sink);
  EXPECT_EQ(tags, whole);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChunkFuzzTest,
                         ::testing::Range<uint64_t>(0, 8));

}  // namespace
}  // namespace cfgtag::tagger
