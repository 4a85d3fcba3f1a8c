#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "grammar/grammar_parser.h"
#include "grammar/lint.h"
#include "xmlrpc/xmlrpc_grammar.h"

namespace cfgtag::grammar {
namespace {

grammar::Grammar MustParse(const std::string& text) {
  auto g = grammar::ParseGrammar(text);
  EXPECT_TRUE(g.ok()) << g.status();
  return std::move(g).value();
}

int Count(const std::vector<LintFinding>& findings, LintFinding::Kind kind) {
  int n = 0;
  for (const auto& f : findings) n += f.kind == kind;
  return n;
}

TEST(LintTest, CleanGrammarHasNoFindings) {
  auto findings = Lint(MustParse(R"(
%%
stmt: "if" cond "then" stmt "else" stmt | "go" | "stop";
cond: "true" | "false";
%%
)"));
  ASSERT_TRUE(findings.ok()) << findings.status();
  EXPECT_TRUE(findings->empty());
}

TEST(LintTest, DetectsUnreachableNonterminal) {
  auto findings = Lint(MustParse(R"(
%%
s: "a";
island: "b";
%%
)"));
  ASSERT_TRUE(findings.ok());
  EXPECT_EQ(Count(*findings, LintFinding::Kind::kUnreachableNonterminal), 1);
}

TEST(LintTest, DetectsUnusedToken) {
  auto findings = Lint(MustParse("GHOST [0-9]+\n%%\ns: \"a\";\n%%\n"));
  ASSERT_TRUE(findings.ok());
  ASSERT_EQ(Count(*findings, LintFinding::Kind::kUnusedToken), 1);
}

TEST(LintTest, DetectsNonproductiveNonterminal) {
  // loop only derives itself: reachable but nonproductive.
  auto findings = Lint(MustParse(R"(
%%
s: "a" loop;
loop: "x" loop;
%%
)"));
  ASSERT_TRUE(findings.ok());
  // Both `loop` and `s` (which needs loop) can never finish deriving.
  EXPECT_EQ(Count(*findings, LintFinding::Kind::kNonproductiveNonterminal), 2);
}

TEST(LintTest, DetectsIdenticalPatternArmConflict) {
  // MIN and SEC both follow the shared ':' token — identical patterns
  // armed together, the §3.2/§3.4 case.
  auto findings = Lint(MustParse(R"(
NUM1, NUM2 [0-9][0-9]
%%
t: NUM1 ":" NUM2 ":" NUM1;
%%
)"));
  ASSERT_TRUE(findings.ok());
  EXPECT_GE(Count(*findings, LintFinding::Kind::kArmConflict), 1);
}

TEST(LintTest, DetectsKeywordSubsumedByIdentifier) {
  // "go" is fully matched by WORD and both are armed at start.
  auto findings = Lint(MustParse(R"(
WORD [a-z]+
%%
s: "go" | WORD;
%%
)"));
  ASSERT_TRUE(findings.ok());
  ASSERT_EQ(Count(*findings, LintFinding::Kind::kArmConflict), 1);
}

TEST(LintTest, DetectsLiteralPrefixShadow) {
  auto findings = Lint(MustParse(R"(
%%
s: "ab" "x" | "abc" "y";
%%
)"));
  ASSERT_TRUE(findings.ok());
  EXPECT_EQ(Count(*findings, LintFinding::Kind::kPrefixShadow), 1);
}

TEST(LintTest, XmlRpcGrammarFindingsAreExpected) {
  auto g = xmlrpc::XmlRpcGrammar();
  ASSERT_TRUE(g.ok());
  auto findings = Lint(*g);
  ASSERT_TRUE(findings.ok()) << findings.status();
  // Known in the paper's grammar: MONTH/DAY and HOUR/MIN/SEC duplicates
  // share arm contexts via the duplicated ':' literal.
  EXPECT_GE(Count(*findings, LintFinding::Kind::kArmConflict), 1);
  // No dead symbols.
  EXPECT_EQ(Count(*findings, LintFinding::Kind::kUnreachableNonterminal), 0);
  EXPECT_EQ(Count(*findings, LintFinding::Kind::kUnusedToken), 0);
  EXPECT_EQ(Count(*findings, LintFinding::Kind::kNonproductiveNonterminal),
            0);
}

TEST(LintTest, LiteralNotFullyMatchedByClassTokenIsNoConflict) {
  // "go!" starts like WORD but WORD cannot match the '!': the two are
  // armed together, yet they never match on the same cycle.
  auto findings = Lint(MustParse(R"(
WORD [a-z]+
%%
s: "go!" | WORD;
%%
)"));
  ASSERT_TRUE(findings.ok());
  EXPECT_EQ(Count(*findings, LintFinding::Kind::kArmConflict), 0);
}

// Each finding as "kind: symbol symbol ...", in report order.
std::vector<std::string> Render(const std::vector<LintFinding>& findings) {
  std::vector<std::string> out;
  for (const LintFinding& f : findings) {
    std::string line = LintKindName(f.kind);
    line += ":";
    for (const std::string& s : f.symbols) line += " " + s;
    out.push_back(std::move(line));
  }
  return out;
}

// Pins the exact findings on every checked-in grammar, so a rewrite of a
// check shows up as a changed list rather than a changed count.
TEST(LintTest, ExampleGrammarFindingsArePinned) {
  const std::map<std::string, std::vector<std::string>> expected = {
      {"balanced_parens.grm", {}},
      {"http_request.grm", {}},
      {"if_then_else.grm", {}},
      {"json_lite.grm", {}},
      {"xmlrpc.grm", {"arm-conflict: MIN SEC"}},
  };
  size_t seen = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(CFGTAG_EXAMPLE_GRAMMARS)) {
    const std::string name = entry.path().filename().string();
    SCOPED_TRACE(name);
    const auto it = expected.find(name);
    ASSERT_NE(it, expected.end()) << "no pinned findings for " << name;
    std::ifstream in(entry.path());
    std::ostringstream text;
    text << in.rdbuf();
    auto findings = Lint(MustParse(text.str()));
    ASSERT_TRUE(findings.ok()) << findings.status();
    EXPECT_EQ(Render(*findings), it->second);
    ++seen;
  }
  EXPECT_EQ(seen, expected.size());

  auto g = xmlrpc::XmlRpcGrammar();
  ASSERT_TRUE(g.ok());
  auto findings = Lint(*g);
  ASSERT_TRUE(findings.ok()) << findings.status();
  EXPECT_EQ(Render(*findings),
            std::vector<std::string>{"arm-conflict: MIN SEC"});
}

// Literals against class tokens with stars, bounded repeats, negated
// classes and alternation, all armed at the start: the literal-conflict
// check's full-match test, pinned finding by finding.
TEST(LintTest, LiteralConflictFindingsArePinned) {
  auto findings = Lint(MustParse(R"(
WORD   [a-z]+
HEX    0x[0-9a-f]{1,4}
NOTX   [^x]+
ABC    (ab)*c|d
%%
s: "go" | "go!" | "x" | "0x1f" | "0x12345" | "ababc" | "abab" | "d"
 | "dd" | WORD | HEX | NOTX | ABC;
%%
)"));
  ASSERT_TRUE(findings.ok()) << findings.status();
  const std::vector<std::string> expected = {
      R"(arm-conflict: WORD "go")",      R"(arm-conflict: WORD "x")",
      R"(arm-conflict: WORD "ababc")",   R"(arm-conflict: WORD "abab")",
      R"(arm-conflict: WORD "d")",       R"(arm-conflict: WORD "dd")",
      R"(arm-conflict: HEX "0x1f")",     R"(arm-conflict: NOTX "go")",
      R"(arm-conflict: NOTX "go!")",     R"(arm-conflict: NOTX "ababc")",
      R"(arm-conflict: NOTX "abab")",    R"(arm-conflict: NOTX "d")",
      R"(arm-conflict: NOTX "dd")",      R"(arm-conflict: ABC "ababc")",
      R"(arm-conflict: ABC "d")",        R"(prefix-shadow: "go" "go!")",
      R"(prefix-shadow: "ababc" "abab")", R"(prefix-shadow: "d" "dd")",
  };
  EXPECT_EQ(Render(*findings), expected);
}

TEST(LintTest, KindNamesAreStable) {
  EXPECT_STREQ(LintKindName(LintFinding::Kind::kArmConflict),
               "arm-conflict");
  EXPECT_STREQ(LintKindName(LintFinding::Kind::kUnusedToken),
               "unused-token");
}

}  // namespace
}  // namespace cfgtag::grammar
