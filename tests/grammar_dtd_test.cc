#include <gtest/gtest.h>

#include "grammar/analysis.h"
#include "grammar/dtd.h"
#include "reference/ll_parser.h"
#include "xmlrpc/xmlrpc_grammar.h"

namespace cfgtag::grammar {
namespace {

TEST(DtdParserTest, ParsesSimpleElements) {
  auto dtd = ParseDtd(R"(
<!ELEMENT root (a, b)>
<!ELEMENT a (#PCDATA)>
<!ELEMENT b EMPTY>
)");
  ASSERT_TRUE(dtd.ok()) << dtd.status();
  ASSERT_EQ(dtd->elements.size(), 3u);
  EXPECT_EQ(dtd->elements[0].name, "root");
  EXPECT_EQ(dtd->elements[0].content->kind, DtdContent::Kind::kSequence);
  EXPECT_EQ(dtd->elements[1].content->kind, DtdContent::Kind::kPcdata);
  EXPECT_EQ(dtd->elements[2].content->kind, DtdContent::Kind::kEmpty);
  EXPECT_NE(dtd->Find("a"), nullptr);
  EXPECT_EQ(dtd->Find("zzz"), nullptr);
}

TEST(DtdParserTest, OccurrenceOperators) {
  auto dtd = ParseDtd("<!ELEMENT r (a*, b+, c?)> <!ELEMENT a EMPTY>"
                      "<!ELEMENT b EMPTY> <!ELEMENT c EMPTY>");
  ASSERT_TRUE(dtd.ok()) << dtd.status();
  const auto& seq = dtd->elements[0].content;
  ASSERT_EQ(seq->children.size(), 3u);
  EXPECT_EQ(seq->children[0]->kind, DtdContent::Kind::kStar);
  EXPECT_EQ(seq->children[1]->kind, DtdContent::Kind::kPlus);
  EXPECT_EQ(seq->children[2]->kind, DtdContent::Kind::kOptional);
}

TEST(DtdParserTest, ChoiceGroups) {
  auto dtd = ParseDtd("<!ELEMENT r (a|b|c)> <!ELEMENT a EMPTY>"
                      "<!ELEMENT b EMPTY> <!ELEMENT c EMPTY>");
  ASSERT_TRUE(dtd.ok()) << dtd.status();
  EXPECT_EQ(dtd->elements[0].content->kind, DtdContent::Kind::kChoice);
  EXPECT_EQ(dtd->elements[0].content->children.size(), 3u);
}

TEST(DtdParserTest, CommentsSkipped) {
  auto dtd = ParseDtd(R"(
<!-- header comment -->
<!ELEMENT r (#PCDATA)>
<!-- trailing -->
)");
  ASSERT_TRUE(dtd.ok()) << dtd.status();
  EXPECT_EQ(dtd->elements.size(), 1u);
}

TEST(DtdParserTest, Rejections) {
  EXPECT_FALSE(ParseDtd("").ok());
  EXPECT_FALSE(ParseDtd("<!ATTLIST a b CDATA #REQUIRED>").ok());
  EXPECT_FALSE(ParseDtd("<!ELEMENT r (a, b | c)> <!ELEMENT a EMPTY>").ok())
      << "mixed separators";
  EXPECT_FALSE(ParseDtd("<!ELEMENT r (a >").ok()) << "missing paren";
  EXPECT_FALSE(ParseDtd("<!ELEMENT r ANY>").ok()) << "ANY unsupported";
  EXPECT_FALSE(ParseDtd("<!-- unterminated").ok());
}

TEST(DtdToGrammarTest, SimpleConversionValidates) {
  auto dtd = ParseDtd(R"(
<!ELEMENT msg (head, body*)>
<!ELEMENT head (#PCDATA)>
<!ELEMENT body (#PCDATA)>
)");
  ASSERT_TRUE(dtd.ok()) << dtd.status();
  auto g = DtdToGrammar(*dtd, "msg");
  ASSERT_TRUE(g.ok()) << g.status();
  EXPECT_TRUE(g->Validate().ok());
  EXPECT_NE(g->FindToken("\"<msg>\""), -1);
  EXPECT_NE(g->FindToken("\"</msg>\""), -1);
  EXPECT_NE(g->FindToken("PCDATA"), -1);
  EXPECT_EQ(g->start(), g->FindNonterminal("elem_msg"));
}

TEST(DtdToGrammarTest, UnknownRootRejected) {
  auto dtd = ParseDtd("<!ELEMENT a (#PCDATA)>");
  ASSERT_TRUE(dtd.ok());
  EXPECT_FALSE(DtdToGrammar(*dtd, "nope").ok());
}

TEST(DtdToGrammarTest, DanglingReferenceRejected) {
  auto dtd = ParseDtd("<!ELEMENT a (ghost)>");
  ASSERT_TRUE(dtd.ok());
  EXPECT_FALSE(DtdToGrammar(*dtd, "a").ok());
}

TEST(DtdToGrammarTest, UnreachableElementsDropped) {
  auto dtd = ParseDtd(R"(
<!ELEMENT a (#PCDATA)>
<!ELEMENT island (#PCDATA)>
)");
  ASSERT_TRUE(dtd.ok());
  auto g = DtdToGrammar(*dtd, "a");
  ASSERT_TRUE(g.ok()) << g.status();
  EXPECT_EQ(g->FindNonterminal("elem_island"), -1);
}

TEST(DtdToGrammarTest, GeneratedGrammarParsesDocuments) {
  auto dtd = ParseDtd(R"(
<!ELEMENT msg (head, item*)>
<!ELEMENT head (#PCDATA)>
<!ELEMENT item (key, val?)>
<!ELEMENT key (#PCDATA)>
<!ELEMENT val (#PCDATA)>
)");
  ASSERT_TRUE(dtd.ok()) << dtd.status();
  auto g = DtdToGrammar(*dtd, "msg");
  ASSERT_TRUE(g.ok()) << g.status();
  auto parser = tagger::PredictiveParser::Create(&g.value(), {});
  ASSERT_TRUE(parser.ok()) << parser.status();

  EXPECT_TRUE(parser->Accepts("<msg><head>hello</head></msg>"));
  EXPECT_TRUE(parser->Accepts(
      "<msg><head>h</head><item><key>k</key><val>v</val></item></msg>"));
  EXPECT_TRUE(parser->Accepts(
      "<msg><head>h</head><item><key>k</key></item>"
      "<item><key>k2</key><val>v</val></item></msg>"));
  EXPECT_FALSE(parser->Accepts("<msg></msg>"));
  EXPECT_FALSE(parser->Accepts("<msg><head>h</head>"));
  EXPECT_FALSE(parser->Accepts(
      "<msg><head>h</head><item><val>v</val></item></msg>"));
}

// The paper's §4.1 path: the Fig. 13 XML-RPC DTD converts into a working
// grammar whose parser accepts XML-RPC-shaped documents.
TEST(DtdToGrammarTest, XmlRpcDtdConverts) {
  auto dtd = ParseDtd(xmlrpc::XmlRpcDtdText());
  ASSERT_TRUE(dtd.ok()) << dtd.status();
  auto g = DtdToGrammar(*dtd, "methodCall");
  ASSERT_TRUE(g.ok()) << g.status();
  EXPECT_TRUE(g->Validate().ok());
  auto analysis = Analyze(*g);
  ASSERT_TRUE(analysis.ok()) << analysis.status();

  auto parser = tagger::PredictiveParser::Create(&g.value(), {});
  ASSERT_TRUE(parser.ok()) << parser.status();
  EXPECT_TRUE(parser->Accepts(
      "<methodCall><methodName>getPrice</methodName>"
      "<params><param><value><string>ibm</string></value></param></params>"
      "</methodCall>"));
  EXPECT_FALSE(parser->Accepts(
      "<methodCall><params></params></methodCall>"));
}

}  // namespace
}  // namespace cfgtag::grammar
