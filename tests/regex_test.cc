#include <gtest/gtest.h>

#include "reference/nfa.h"
#include "regex/char_class.h"
#include "regex/regex_parser.h"

namespace cfgtag::regex {
namespace {

std::unique_ptr<RegexNode> MustParse(const std::string& pattern) {
  auto r = ParseRegex(pattern);
  EXPECT_TRUE(r.ok()) << pattern << ": " << r.status();
  return std::move(r).value();
}

// ------------------------------------------------------------- CharClass

TEST(CharClassTest, Constructors) {
  EXPECT_EQ(CharClass::Of('a').Count(), 1u);
  EXPECT_EQ(CharClass::Range('0', '9').Count(), 10u);
  EXPECT_EQ(CharClass::NoCase('x').Count(), 2u);
  EXPECT_EQ(CharClass::NoCase('7').Count(), 1u);
  EXPECT_EQ(CharClass::Any().Count(), 256u);
  EXPECT_EQ(CharClass::Alpha().Count(), 52u);
  EXPECT_EQ(CharClass::AlphaNum().Count(), 62u);
  EXPECT_TRUE(CharClass::Whitespace().Test(' '));
  EXPECT_TRUE(CharClass::Whitespace().Test('\n'));
  EXPECT_FALSE(CharClass::Whitespace().Test('x'));
}

TEST(CharClassTest, SetAlgebra) {
  CharClass digits = CharClass::Digit();
  CharClass alpha = CharClass::Alpha();
  EXPECT_EQ(digits.Union(alpha).Count(), 62u);
  EXPECT_TRUE(digits.Intersect(alpha).Empty());
  EXPECT_EQ(digits.Complement().Count(), 246u);
  EXPECT_EQ(CharClass::AlphaNum().Minus(digits), alpha);
  EXPECT_TRUE(digits.Intersects(CharClass::Of('5')));
  EXPECT_FALSE(digits.Intersects(CharClass::Of('x')));
}

TEST(CharClassTest, ToStringForms) {
  EXPECT_EQ(CharClass::Of('a').ToString(), "'a'");
  EXPECT_EQ(CharClass().ToString(), "[]");
  EXPECT_EQ(CharClass::Any().ToString(), ".");
  EXPECT_EQ(CharClass::Digit().ToString(), "['0'-'9']");
}

TEST(CharClassTest, HashDistinguishesAndAgrees) {
  EXPECT_EQ(CharClass::Digit().Hash(), CharClass::Range('0', '9').Hash());
  EXPECT_NE(CharClass::Digit().Hash(), CharClass::Alpha().Hash());
}

// ---------------------------------------------------------- Regex parser

TEST(RegexParserTest, LiteralsAndMetrics) {
  auto re = MustParse("abc");
  EXPECT_EQ(re->LiteralCount(), 3u);
  EXPECT_EQ(re->MinLength(), 3u);
  EXPECT_EQ(re->MaxLength(), 3u);
  EXPECT_FALSE(re->Nullable());
}

TEST(RegexParserTest, PostfixOperators) {
  EXPECT_TRUE(MustParse("a*")->Nullable());
  EXPECT_FALSE(MustParse("a+")->Nullable());
  EXPECT_TRUE(MustParse("a?")->Nullable());
  EXPECT_EQ(MustParse("a+")->MaxLength(), SIZE_MAX);
  EXPECT_EQ(MustParse("a?")->MaxLength(), 1u);
  EXPECT_EQ(MustParse("(ab)+")->MinLength(), 2u);
}

TEST(RegexParserTest, Alternation) {
  auto re = MustParse("ab|c|de");
  EXPECT_EQ(re->kind, RegexNode::Kind::kAlternate);
  EXPECT_EQ(re->MinLength(), 1u);
  EXPECT_EQ(re->MaxLength(), 2u);
}

TEST(RegexParserTest, CharClasses) {
  auto re = MustParse("[a-zA-Z0-9]");
  ASSERT_EQ(re->kind, RegexNode::Kind::kLiteral);
  EXPECT_EQ(re->char_class, CharClass::AlphaNum());

  auto neg = MustParse("[^<>]");
  EXPECT_FALSE(neg->char_class.Test('<'));
  EXPECT_FALSE(neg->char_class.Test('>'));
  EXPECT_TRUE(neg->char_class.Test('a'));

  // ']' first in class is a literal member; '-' last is literal.
  auto tricky = MustParse("[]a-]");
  EXPECT_TRUE(tricky->char_class.Test(']'));
  EXPECT_TRUE(tricky->char_class.Test('a'));
  EXPECT_TRUE(tricky->char_class.Test('-'));
}

TEST(RegexParserTest, Escapes) {
  EXPECT_TRUE(MustParse("\\n")->char_class.Test('\n'));
  EXPECT_TRUE(MustParse("\\t")->char_class.Test('\t'));
  EXPECT_TRUE(MustParse("\\x41")->char_class.Test('A'));
  EXPECT_TRUE(MustParse("\\.")->char_class.Test('.'));
  EXPECT_TRUE(MustParse("\\+")->char_class.Test('+'));
}

TEST(RegexParserTest, QuotedStrings) {
  auto re = MustParse("\"<tag>\"");
  EXPECT_EQ(re->LiteralCount(), 5u);
  EXPECT_EQ(re->MinLength(), 5u);
}

TEST(RegexParserTest, DotExcludesNewline) {
  auto re = MustParse(".");
  EXPECT_TRUE(re->char_class.Test('x'));
  EXPECT_FALSE(re->char_class.Test('\n'));
}

TEST(RegexParserTest, Grouping) {
  auto re = MustParse("(a|b)c");
  EXPECT_EQ(re->kind, RegexNode::Kind::kConcat);
  EXPECT_EQ(re->MinLength(), 2u);
}

TEST(RegexParserTest, BoundedRepetition) {
  Nfa exact = Nfa::Build(*MustParse("[0-9]{4}"));
  EXPECT_TRUE(exact.FullMatch("1234"));
  EXPECT_FALSE(exact.FullMatch("123"));
  EXPECT_FALSE(exact.FullMatch("12345"));
  EXPECT_EQ(MustParse("a{4}")->LiteralCount(), 4u);

  Nfa range = Nfa::Build(*MustParse("a{2,4}"));
  EXPECT_FALSE(range.FullMatch("a"));
  EXPECT_TRUE(range.FullMatch("aa"));
  EXPECT_TRUE(range.FullMatch("aaa"));
  EXPECT_TRUE(range.FullMatch("aaaa"));
  EXPECT_FALSE(range.FullMatch("aaaaa"));

  Nfa open = Nfa::Build(*MustParse("(ab){2,}"));
  EXPECT_FALSE(open.FullMatch("ab"));
  EXPECT_TRUE(open.FullMatch("abab"));
  EXPECT_TRUE(open.FullMatch("ababab"));

  Nfa zero = Nfa::Build(*MustParse("a{0,2}b"));
  EXPECT_TRUE(zero.FullMatch("b"));
  EXPECT_TRUE(zero.FullMatch("aab"));
  EXPECT_FALSE(zero.FullMatch("aaab"));
}

TEST(RegexParserTest, BoundedRepetitionErrors) {
  EXPECT_FALSE(ParseRegex("a{").ok());
  EXPECT_FALSE(ParseRegex("a{}").ok());
  EXPECT_FALSE(ParseRegex("a{3,1}").ok());
  EXPECT_FALSE(ParseRegex("a{1000}").ok());
  EXPECT_FALSE(ParseRegex("a{2,x}").ok());
}

TEST(RegexParserTest, Errors) {
  EXPECT_FALSE(ParseRegex("(a").ok());
  EXPECT_FALSE(ParseRegex("a)").ok());
  EXPECT_FALSE(ParseRegex("[a").ok());
  EXPECT_FALSE(ParseRegex("*a").ok());
  EXPECT_FALSE(ParseRegex("a\\").ok());
  EXPECT_FALSE(ParseRegex("\"unterminated").ok());
  EXPECT_FALSE(ParseRegex("[z-a]").ok());
  EXPECT_FALSE(ParseRegex("\\xZZ").ok());
}

TEST(RegexParserTest, ToStringRoundTripsSemantics) {
  for (const std::string pattern :
       {"abc", "a+", "(ab)*c?", "a|b|cd", "[0-9]+\\.[0-9]+"}) {
    auto re = MustParse(pattern);
    auto re2 = MustParse(re->ToString());
    // Compare language on a few probes via NFA.
    Nfa n1 = Nfa::Build(*re);
    Nfa n2 = Nfa::Build(*re2);
    for (const std::string probe :
         {"", "a", "ab", "abc", "aab", "b", "cd", "3.14", "12", "c"}) {
      EXPECT_EQ(n1.FullMatch(probe), n2.FullMatch(probe))
          << pattern << " vs " << re->ToString() << " on " << probe;
    }
  }
}

TEST(RegexAstTest, CloneIsDeep) {
  auto re = MustParse("(ab|c)+");
  auto copy = re->Clone();
  EXPECT_EQ(re->ToString(), copy->ToString());
  EXPECT_NE(re.get(), copy.get());
}

// ------------------------------------------------------------------- NFA

TEST(NfaTest, FullMatchBasics) {
  Nfa nfa = Nfa::Build(*MustParse("ab*c"));
  EXPECT_TRUE(nfa.FullMatch("ac"));
  EXPECT_TRUE(nfa.FullMatch("abbbc"));
  EXPECT_FALSE(nfa.FullMatch("a"));
  EXPECT_FALSE(nfa.FullMatch("abcx"));
  EXPECT_FALSE(nfa.FullMatch(""));
}

TEST(NfaTest, EmptyMatch) {
  Nfa nfa = Nfa::Build(*MustParse("a*"));
  EXPECT_TRUE(nfa.FullMatch(""));
  EXPECT_EQ(nfa.LongestPrefixMatch("bbb", 0), 0u);
}

TEST(NfaTest, LongestPrefixMatch) {
  Nfa nfa = Nfa::Build(*MustParse("[0-9]+"));
  EXPECT_EQ(nfa.LongestPrefixMatch("1234x", 0), 4u);
  EXPECT_EQ(nfa.LongestPrefixMatch("x1234", 1), 4u);
  EXPECT_EQ(nfa.LongestPrefixMatch("xx", 0), Nfa::kNoMatch);
}

TEST(NfaTest, AlternationPrefixPicksLongest) {
  Nfa nfa = Nfa::Build(*MustParse("a|ab|abc"));
  EXPECT_EQ(nfa.LongestPrefixMatch("abcd", 0), 3u);
}

}  // namespace
}  // namespace cfgtag::regex
