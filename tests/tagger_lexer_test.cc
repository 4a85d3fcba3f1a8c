#include <gtest/gtest.h>

#include "grammar/grammar_parser.h"
#include "reference/lexer.h"
#include "reference/ll_parser.h"
#include "xmlrpc/xmlrpc_grammar.h"

namespace cfgtag::tagger {
namespace {

grammar::Grammar MustParse(const std::string& text) {
  auto g = grammar::ParseGrammar(text);
  EXPECT_TRUE(g.ok()) << g.status();
  return std::move(g).value();
}

TEST(LexerTest, BasicTokenization) {
  grammar::Grammar g =
      MustParse("NUM [0-9]+\nWORD [a-z]+\n%%\ns: NUM WORD;\n%%\n");
  auto lexer = Lexer::Create(&g);
  ASSERT_TRUE(lexer.ok()) << lexer.status();
  auto tags = lexer->Lex("123 abc 45x");
  ASSERT_EQ(tags.size(), 4u);
  EXPECT_EQ(tags[0].token, g.FindToken("NUM"));
  EXPECT_EQ(tags[0].length, 3u);
  EXPECT_EQ(tags[1].token, g.FindToken("WORD"));
  EXPECT_EQ(tags[2].token, g.FindToken("NUM"));
  EXPECT_EQ(tags[3].token, g.FindToken("WORD"));
  EXPECT_EQ(tags[3].end, 10u);
}

TEST(LexerTest, MaximalMunch) {
  grammar::Grammar g = MustParse("%%\ns: a | b;\na: \"ab\";\nb: \"abc\";\n%%\n");
  auto lexer = Lexer::Create(&g);
  ASSERT_TRUE(lexer.ok());
  auto tags = lexer->Lex("abc");
  ASSERT_EQ(tags.size(), 1u);
  EXPECT_EQ(tags[0].length, 3u);  // "abc", not "ab" + skip
}

TEST(LexerTest, EarliestTokenWinsTies) {
  // KW and WORD both match "if" with length 2: lower id (KW) wins.
  grammar::Grammar g =
      MustParse("KW \"if\"\nWORD [a-z]+\n%%\ns: KW | WORD;\n%%\n");
  auto lexer = Lexer::Create(&g);
  ASSERT_TRUE(lexer.ok());
  auto tags = lexer->Lex("if iffy");
  ASSERT_EQ(tags.size(), 2u);
  EXPECT_EQ(tags[0].token, g.FindToken("KW"));
  EXPECT_EQ(tags[1].token, g.FindToken("WORD"));
}

TEST(LexerTest, SkippedBytesCounted) {
  grammar::Grammar g = MustParse("%%\ns: \"ab\";\n%%\n");
  auto lexer = Lexer::Create(&g);
  ASSERT_TRUE(lexer.ok());
  uint64_t skipped = 0;
  auto tags = lexer->Lex("??ab!?", &skipped);
  ASSERT_EQ(tags.size(), 1u);
  EXPECT_EQ(skipped, 4u);
}

TEST(LexerTest, AgreesWithParserTagsOnUnambiguousGrammar) {
  grammar::Grammar g = MustParse(R"(
%%
stmt: "if" cond "then" stmt "else" stmt | "go" | "stop";
cond: "true" | "false";
%%
)");
  grammar::Grammar g2 = g.Clone();
  auto lexer = Lexer::Create(&g);
  auto parser = PredictiveParser::Create(&g2, {});
  ASSERT_TRUE(lexer.ok());
  ASSERT_TRUE(parser.ok());
  const std::string input = "if true then go else stop";
  auto lexed = lexer->Lex(input);
  auto parsed = parser->Parse(input);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(lexed.size(), parsed->size());
  for (size_t i = 0; i < lexed.size(); ++i) {
    EXPECT_TRUE(lexed[i] == (*parsed)[i]) << i;
  }
}

TEST(LexerTest, ContextFreeLexingCannotSplitDateTime) {
  // The paper's core point, software edition: without grammatical context
  // a lexer cannot produce YEAR MONTH DAY from "19980717" — maximal munch
  // hands the whole digit run to INT. The follow-wired tagger (and the LL
  // parser) split it correctly.
  auto g = xmlrpc::XmlRpcGrammar();
  ASSERT_TRUE(g.ok());
  auto lexer = Lexer::Create(&g.value());
  ASSERT_TRUE(lexer.ok());

  auto tags = lexer->Lex("19980717");
  ASSERT_EQ(tags.size(), 1u);
  // Maximal munch hands all 8 digits to one unbounded token (STRING beats
  // INT on the tie as the earlier definition) — never YEAR MONTH DAY.
  EXPECT_EQ(tags[0].token, g->FindToken("STRING"));
  EXPECT_EQ(tags[0].length, 8u);
  EXPECT_NE(tags[0].token, g->FindToken("YEAR"));
}

TEST(LexerTest, LexesWholeXmlRpcMessageWithoutSkips) {
  auto g = xmlrpc::XmlRpcGrammar();
  ASSERT_TRUE(g.ok());
  auto lexer = Lexer::Create(&g.value());
  ASSERT_TRUE(lexer.ok());
  uint64_t skipped = 0;
  auto tags = lexer->Lex(
      "<methodCall><methodName>buy</methodName>"
      "<params><param><i4>42</i4></param></params></methodCall>",
      &skipped);
  EXPECT_EQ(skipped, 0u);
  EXPECT_GE(tags.size(), 10u);
}

TEST(LexerTest, DfaStaysSmall) {
  auto g = xmlrpc::XmlRpcGrammar();
  ASSERT_TRUE(g.ok());
  auto lexer = Lexer::Create(&g.value());
  ASSERT_TRUE(lexer.ok());
  // The combined DFA over the whole XML-RPC token set must stay modest
  // (the token patterns share long literal prefixes).
  EXPECT_LT(lexer->NumDfaStates(), 600u);
  EXPECT_GT(lexer->NumDfaStates(), 50u);
}

TEST(LexerTest, HandlesHighBytes) {
  grammar::Grammar g = MustParse("HI [\\x80-\\xff]+\n%%\ns: HI;\n%%\n");
  auto lexer = Lexer::Create(&g);
  ASSERT_TRUE(lexer.ok());
  std::string input = "\x80\xFF\x9A";
  auto tags = lexer->Lex(input);
  ASSERT_EQ(tags.size(), 1u);
  EXPECT_EQ(tags[0].length, 3u);
}

}  // namespace
}  // namespace cfgtag::tagger
