// Edge-case robustness: full 8-bit alphabets, binary delimiters, degenerate
// grammars, long tokens, empty inputs — each cross-checked between the
// functional model and the gate-level netlist.

#include <gtest/gtest.h>

#include "core/hardware_design.h"
#include "core/token_tagger.h"
#include "grammar/grammar_parser.h"

namespace cfgtag {
namespace {

using core::CompiledTagger;
using core::HardwareDesign;

grammar::Grammar MustParse(const std::string& text) {
  auto g = grammar::ParseGrammar(text);
  EXPECT_TRUE(g.ok()) << g.status();
  return std::move(g).value();
}

void ExpectEnginesAgree(const CompiledTagger& tagger,
                        const std::string& input) {
  auto design = HardwareDesign::Create(tagger.grammar(), tagger.options());
  ASSERT_TRUE(design.ok()) << design.status();
  auto hw = design->TagCycleAccurate(input);
  ASSERT_TRUE(hw.ok()) << hw.status();
  EXPECT_EQ(tagger.Tag(input), *hw) << "input size " << input.size();
}

TEST(RobustnessTest, HighBytesDecodeCorrectly) {
  // A token made of bytes with the top bit set: the Fig. 4 AND decoders
  // must handle all 8 bits.
  auto compiled = CompiledTagger::Compile(
      MustParse("HI [\\x80-\\xff]+\n%%\ns: \"<\" HI \">\";\n%%\n"));
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  std::string input = "<";
  input += '\x80';
  input += '\xAB';
  input += '\xFF';
  input += '>';
  auto tags = compiled->Tag(input);
  ASSERT_EQ(tags.size(), 3u);
  EXPECT_EQ(tags[1].end, 3u);  // HI covers bytes 1..3
  ExpectEnginesAgree(*compiled, input);
}

TEST(RobustnessTest, ExactHighByteLiteral) {
  auto compiled = CompiledTagger::Compile(
      MustParse("MAGIC \\xde\\xad\\xbe\\xef\n%%\ns: MAGIC;\n%%\n"));
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  const std::string magic = "\xde\xad\xbe\xef";
  auto tags = compiled->Tag(magic);
  ASSERT_EQ(tags.size(), 1u);
  EXPECT_EQ(tags[0].end, 3u);
  EXPECT_TRUE(compiled->Tag("\xde\xad\xbe\xee").empty());
  ExpectEnginesAgree(*compiled, magic);
}

TEST(RobustnessTest, NulByteDelimiter) {
  hwgen::HwOptions opt;
  opt.tagger.delimiters = regex::CharClass::Of('\0');
  auto compiled = CompiledTagger::Compile(
      MustParse("%%\ns: \"ab\" \"cd\";\n%%\n"), opt);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  std::string input = "ab";
  input += '\0';
  input += '\0';
  input += "cd";
  EXPECT_EQ(compiled->Tag(input).size(), 2u);
  ExpectEnginesAgree(*compiled, input);
}

TEST(RobustnessTest, NoDelimitersAtAll) {
  hwgen::HwOptions opt;
  opt.tagger.delimiters = regex::CharClass();  // empty set
  auto compiled = CompiledTagger::Compile(
      MustParse("%%\ns: \"ab\" \"cd\";\n%%\n"), opt);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  // Only strictly adjacent tokens can chain.
  EXPECT_EQ(compiled->Tag("abcd").size(), 2u);
  EXPECT_EQ(compiled->Tag("ab cd").size(), 1u);
  ExpectEnginesAgree(*compiled, "abcd");
  ExpectEnginesAgree(*compiled, "ab cd");
}

TEST(RobustnessTest, SingleSingleByteToken) {
  auto compiled = CompiledTagger::Compile(MustParse("%%\ns: \"x\";\n%%\n"));
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  auto tags = compiled->Tag("x");
  ASSERT_EQ(tags.size(), 1u);
  EXPECT_EQ(tags[0].end, 0u);
  ExpectEnginesAgree(*compiled, "x");
  ExpectEnginesAgree(*compiled, "y");
}

TEST(RobustnessTest, EmptyAndDelimiterOnlyInputs) {
  auto compiled = CompiledTagger::Compile(MustParse("%%\ns: \"x\";\n%%\n"));
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  EXPECT_TRUE(compiled->Tag("").empty());
  EXPECT_TRUE(compiled->Tag("   \t\n  ").empty());
  ExpectEnginesAgree(*compiled, "");
  ExpectEnginesAgree(*compiled, "   \t\n  ");
  // Arms survive the delimiters: the token still fires afterwards.
  auto tags = compiled->Tag("   \t x");
  ASSERT_EQ(tags.size(), 1u);
  EXPECT_EQ(tags[0].end, 5u);
}

TEST(RobustnessTest, VeryLongLiteralToken) {
  std::string lit(64, 'q');
  auto compiled = CompiledTagger::Compile(
      MustParse("%%\ns: \"" + lit + "\";\n%%\n"));
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  auto tags = compiled->Tag(lit);
  ASSERT_EQ(tags.size(), 1u);
  EXPECT_EQ(tags[0].end, 63u);
  EXPECT_TRUE(compiled->Tag(lit.substr(0, 63)).empty());
  ExpectEnginesAgree(*compiled, lit);
}

TEST(RobustnessTest, AnyByteClassToken) {
  // [^\n]+ spans 255 byte values: exercises the complement decoder.
  auto compiled = CompiledTagger::Compile(
      MustParse("LINE [^\\n]+\n%%\ns: LINE;\n%%\n"));
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  std::string input = "any\x01\x02\x80text";
  auto tags = compiled->Tag(input);
  ASSERT_EQ(tags.size(), 1u);
  EXPECT_EQ(tags[0].end, input.size() - 1);
  ExpectEnginesAgree(*compiled, input);
}

TEST(RobustnessTest, RepeatedCompilationIsDeterministic) {
  auto a = HardwareDesign::Create(
      MustParse("NUM [0-9]+\n%%\ns: \"<\" NUM \">\";\n%%\n"));
  auto b = HardwareDesign::Create(
      MustParse("NUM [0-9]+\n%%\ns: \"<\" NUM \">\";\n%%\n"));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->generated().netlist.NumNodes(),
            b->generated().netlist.NumNodes());
  auto va = a->ExportVhdl("t");
  auto vb = b->ExportVhdl("t");
  ASSERT_TRUE(va.ok());
  ASSERT_TRUE(vb.ok());
  EXPECT_EQ(*va, *vb);
}

TEST(RobustnessTest, GeneratedVhdlHasMatchPorts) {
  auto design = HardwareDesign::Create(
      MustParse("%%\ns: \"ab\" \"cd\";\n%%\n"));
  ASSERT_TRUE(design.ok());
  auto vhdl = design->ExportVhdl("tagger");
  ASSERT_TRUE(vhdl.ok()) << vhdl.status();
  EXPECT_NE(vhdl->find("port_match_t0 : out std_logic"), std::string::npos);
  EXPECT_NE(vhdl->find("port_match_t1 : out std_logic"), std::string::npos);
  EXPECT_NE(vhdl->find("port_index_valid : out std_logic"), std::string::npos);
}

TEST(RobustnessTest, AreaBreakdownCoversAllLuts) {
  auto design = HardwareDesign::Create(
      MustParse("NUM [0-9]+\n%%\ns: \"<\" NUM \">\";\n%%\n"));
  ASSERT_TRUE(design.ok());
  auto report = design->Implement(rtl::Virtex4LX200());
  ASSERT_TRUE(report.ok());
  size_t luts = 0, ffs = 0;
  for (const auto& bucket : report->area.breakdown) {
    luts += bucket.luts;
    ffs += bucket.ffs;
    EXPECT_FALSE(bucket.scope.empty())
        << "unattributed logic: " << bucket.luts << " LUTs";
  }
  EXPECT_EQ(luts, report->area.luts);
  EXPECT_EQ(ffs, report->area.ffs);
}

TEST(RobustnessTest, OverlappingLiteralsSamePrefix) {
  // "ab" and "abc" armed together: both must be considered, FSA-style.
  auto compiled = CompiledTagger::Compile(
      MustParse("%%\ns: a | b;\na: \"ab\" \"x\";\nb: \"abc\" \"y\";\n%%\n"));
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  // "abc y": "ab" fires at 1 (no extension logic for literals) and "abc"
  // fires at 2; only the "abc" path continues to "y".
  auto tags = compiled->Tag("abc y");
  int ab = 0, abc = 0, y = 0;
  for (const auto& t : tags) {
    const std::string& name = compiled->grammar().tokens()[t.token].name;
    ab += name == "\"ab\"";
    abc += name == "\"abc\"";
    y += name == "\"y\"";
  }
  EXPECT_EQ(ab, 1);
  EXPECT_EQ(abc, 1);
  EXPECT_EQ(y, 1);
  ExpectEnginesAgree(*compiled, "abc y");
  ExpectEnginesAgree(*compiled, "ab x");
}

}  // namespace
}  // namespace cfgtag
