// End-to-end tests: grammar text -> generated hardware -> tags, with the
// three engines (the lazy DFA behind Tag, the cycle-accurate netlist, the
// LL reference parser) cross-checked on the paper's own examples; and the
// split between the two halves: Compile and Tag never run hwgen, a
// HardwareDesign runs it exactly once, and every hardware call on the
// design, racing threads included, reuses that one netlist.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <thread>
#include <vector>

#include "core/hardware_design.h"
#include "core/token_tagger.h"
#include "grammar/grammar_parser.h"
#include "obs/metrics.h"
#include "oracle.h"
#include "reference/ll_parser.h"
#include "xmlrpc/message_gen.h"
#include "xmlrpc/router.h"
#include "xmlrpc/xmlrpc_grammar.h"

namespace cfgtag {
namespace {

using core::CompiledTagger;
using core::HardwareDesign;
using grammar::ParseGrammar;
using tagger::Tag;

// Fig. 9: the if-then-else grammar.
constexpr char kIfThenElse[] = R"(
%%
stmt: "if" cond "then" stmt "else" stmt | "go" | "stop";
cond: "true" | "false";
%%
)";

std::vector<std::pair<std::string, uint64_t>> Render(
    const grammar::Grammar& g, const std::vector<Tag>& tags) {
  std::vector<std::pair<std::string, uint64_t>> out;
  for (const Tag& t : tags) {
    out.emplace_back(g.tokens()[t.token].name, t.end);
  }
  return out;
}

TEST(IfThenElseTest, FunctionalModelTagsInOrder) {
  auto g = ParseGrammar(kIfThenElse);
  ASSERT_TRUE(g.ok()) << g.status();
  auto compiled = CompiledTagger::Compile(std::move(g).value());
  ASSERT_TRUE(compiled.ok()) << compiled.status();

  const std::string input = "if true then go else stop";
  auto tags = compiled->Tag(input);
  auto rendered = Render(compiled->grammar(), tags);

  std::vector<std::pair<std::string, uint64_t>> expected = {
      {"\"if\"", 1},   {"\"true\"", 6},  {"\"then\"", 11},
      {"\"go\"", 14},  {"\"else\"", 19}, {"\"stop\"", 24},
  };
  EXPECT_EQ(rendered, expected);
}

TEST(IfThenElseTest, NestedStatement) {
  auto g = ParseGrammar(kIfThenElse);
  ASSERT_TRUE(g.ok()) << g.status();
  auto compiled = CompiledTagger::Compile(std::move(g).value());
  ASSERT_TRUE(compiled.ok()) << compiled.status();

  const std::string input = "if false then if true then go else stop else go";
  auto tags = compiled->Tag(input);
  ASSERT_EQ(tags.size(), 11u);
  // First and last tokens.
  EXPECT_EQ(compiled->grammar().tokens()[tags.front().token].name, "\"if\"");
  EXPECT_EQ(compiled->grammar().tokens()[tags.back().token].name, "\"go\"");
}

TEST(IfThenElseTest, CycleAccurateMatchesFunctionalModel) {
  auto g = ParseGrammar(kIfThenElse);
  ASSERT_TRUE(g.ok()) << g.status();
  auto compiled = CompiledTagger::Compile(std::move(g).value());
  ASSERT_TRUE(compiled.ok()) << compiled.status();

  auto design = HardwareDesign::Create(compiled->grammar());
  ASSERT_TRUE(design.ok()) << design.status();

  for (const std::string& input :
       {std::string("if true then go else stop"), std::string("go"),
        std::string("  stop  "),
        std::string("if true then if false then go else stop else go")}) {
    auto hw = design->TagCycleAccurate(input);
    ASSERT_TRUE(hw.ok()) << hw.status();
    EXPECT_EQ(compiled->Tag(input), hw.value()) << "input: " << input;
  }
}

TEST(IfThenElseTest, IndexBusMatchesFunctionalModel) {
  auto g = ParseGrammar(kIfThenElse);
  ASSERT_TRUE(g.ok()) << g.status();
  auto compiled = CompiledTagger::Compile(std::move(g).value());
  ASSERT_TRUE(compiled.ok()) << compiled.status();

  auto design = HardwareDesign::Create(compiled->grammar());
  ASSERT_TRUE(design.ok()) << design.status();

  const std::string input = "if true then go else stop";
  auto bus = design->TagViaIndexBus(input);
  ASSERT_TRUE(bus.ok()) << bus.status();
  EXPECT_EQ(compiled->Tag(input), bus.value());
}

TEST(IfThenElseTest, LlParserAgreesOnValidInput) {
  auto g = ParseGrammar(kIfThenElse);
  ASSERT_TRUE(g.ok()) << g.status();
  auto parser = tagger::PredictiveParser::Create(&g.value(), {});
  ASSERT_TRUE(parser.ok()) << parser.status();

  auto parsed = parser->Parse("if true then go else stop");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->size(), 6u);

  EXPECT_FALSE(parser->Accepts("if true go"));
  EXPECT_FALSE(parser->Accepts("then"));
  EXPECT_TRUE(parser->Accepts("  go  "));
}

TEST(XmlRpcTest, GeneratedMessagesParseAndTagConsistently) {
  auto g = xmlrpc::XmlRpcGrammar();
  ASSERT_TRUE(g.ok()) << g.status();
  auto g2 = xmlrpc::XmlRpcGrammar();
  ASSERT_TRUE(g2.ok());
  auto parser = tagger::PredictiveParser::Create(&g2.value(), {});
  ASSERT_TRUE(parser.ok()) << parser.status();

  auto compiled = CompiledTagger::Compile(std::move(g).value());
  ASSERT_TRUE(compiled.ok()) << compiled.status();

  xmlrpc::MessageGenerator gen({}, /*seed=*/42);
  for (int i = 0; i < 20; ++i) {
    const std::string msg = gen.Generate();
    auto ll_tags = parser->Parse(msg);
    ASSERT_TRUE(ll_tags.ok()) << ll_tags.status() << "\nmsg: " << msg;

    // The hardware tags must be a superset of the true parser's tags
    // (paper §3.1: the collapsed FSA accepts a superset).
    auto hw_tags = compiled->Tag(msg);
    for (const Tag& t : *ll_tags) {
      EXPECT_TRUE(std::find(hw_tags.begin(), hw_tags.end(), t) !=
                  hw_tags.end())
          << "missing tag token=" << compiled->grammar().tokens()[t.token].name
          << " end=" << t.end << "\nmsg: " << msg;
    }
  }
}

TEST(XmlRpcTest, CycleAccurateMatchesFunctionalModel) {
  auto g = xmlrpc::XmlRpcGrammar();
  ASSERT_TRUE(g.ok()) << g.status();
  auto compiled = CompiledTagger::Compile(std::move(g).value());
  ASSERT_TRUE(compiled.ok()) << compiled.status();

  auto design = HardwareDesign::Create(compiled->grammar());
  ASSERT_TRUE(design.ok()) << design.status();

  xmlrpc::MessageGenerator gen({}, /*seed=*/7);
  for (int i = 0; i < 3; ++i) {
    const std::string msg = gen.Generate();
    auto hw = design->TagCycleAccurate(msg);
    ASSERT_TRUE(hw.ok()) << hw.status();
    EXPECT_EQ(compiled->Tag(msg), hw.value()) << "msg: " << msg;
  }
}

TEST(XmlRpcTest, ImplementationReportIsPlausible) {
  auto g = xmlrpc::XmlRpcGrammar();
  ASSERT_TRUE(g.ok()) << g.status();
  auto design = HardwareDesign::Create(*g);
  ASSERT_TRUE(design.ok()) << design.status();

  auto report = design->Implement(rtl::Virtex4LX200());
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GT(report->area.luts, 100u);
  EXPECT_GT(report->area.pattern_bytes, 200u);
  EXPECT_GT(report->timing.fmax_mhz, 100.0);
  EXPECT_GT(report->bandwidth_gbps, 0.8);
}

TEST(RouterTest, RoutesByMethodName) {
  xmlrpc::RouterConfig config;
  config.services = {{"deposit", 1}, {"withdraw", 1}, {"acctinfo", 1},
                     {"buy", 2},     {"sell", 2},     {"price", 2}};
  config.default_port = 0;
  auto router = xmlrpc::XmlRpcRouter::Create(config);
  ASSERT_TRUE(router.ok()) << router.status();

  xmlrpc::MessageGenerator gen({}, /*seed=*/3);
  EXPECT_EQ(router->Route(gen.GenerateWithMethod("deposit")), 1);
  EXPECT_EQ(router->Route(gen.GenerateWithMethod("sell")), 2);
  EXPECT_EQ(router->Route(gen.GenerateWithMethod("somethingelse")), 0);
}

TEST(RouterTest, AdversarialPayloadDoesNotMisroute) {
  xmlrpc::RouterConfig config;
  config.services = {{"deposit", 1}, {"buy", 2}};
  config.default_port = 0;
  auto router = xmlrpc::XmlRpcRouter::Create(config);
  ASSERT_TRUE(router.ok()) << router.status();

  // "buy" hidden in a string value of a "deposit" call must not route to 2.
  const std::string msg =
      "<methodCall><methodName>deposit</methodName><params>"
      "<param><string>please buy everything</string></param>"
      "</params></methodCall>";
  EXPECT_EQ(router->Route(msg), 1);
}

// Netlists generated so far in this process: the observation count of the
// hwgen compile-stage histogram.
uint64_t HwgenRuns() {
  return obs::MetricsRegistry::Default()
      .GetHistogram("cfgtag_compile_stage_seconds{stage=\"hwgen\"}")
      ->TotalCount();
}

TEST(HardwareOnDemandTest, OnlyHardwareCallsGenerateTheNetlist) {
  auto g = ParseGrammar(kIfThenElse);
  ASSERT_TRUE(g.ok()) << g.status();
  const uint64_t before = HwgenRuns();
  auto compiled = CompiledTagger::Compile(std::move(g).value());
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  // One engine, and no netlist behind it.
  ASSERT_NE(compiled->lazy_model(), nullptr);
  EXPECT_EQ(compiled->Tag("if true then go else stop").size(), 6u);
  EXPECT_EQ(HwgenRuns(), before);

  // Every hardware call shares the one generation Create runs.
  auto design = HardwareDesign::Create(compiled->grammar());
  ASSERT_TRUE(design.ok()) << design.status();
  EXPECT_EQ(HwgenRuns(), before + 1);
  ASSERT_TRUE(design->Implement(rtl::Virtex4LX200()).ok());
  ASSERT_TRUE(design->TagCycleAccurate("go").ok());
  ASSERT_TRUE(design->ExportVhdl("tagger").ok());
  std::ostringstream vcd;
  ASSERT_TRUE(design->DumpWaveform("go", vcd).ok());
  EXPECT_EQ(HwgenRuns(), before + 1);
}

// Racing first Implement calls on one design share the netlist Create
// generated: the whole run generates once. (The perfbench forwarders'
// lazy generation is raced in artifact_roundtrip_test.)
TEST(HardwareOnDemandTest, RacingFirstImplementGeneratesOnce) {
  auto g = ParseGrammar(kIfThenElse);
  ASSERT_TRUE(g.ok()) << g.status();
  const uint64_t before = HwgenRuns();
  auto design = HardwareDesign::Create(*g);
  ASSERT_TRUE(design.ok()) << design.status();
  constexpr int kThreads = 4;
  std::vector<StatusOr<core::ImplementationReport>> reports(
      kThreads, InternalError("not run"));
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      reports[i] = design->Implement(rtl::Virtex4LX200());
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(HwgenRuns(), before + 1);
  for (const auto& r : reports) {
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(r->area.luts, reports[0]->area.luts);
    EXPECT_EQ(r->area.ffs, reports[0]->area.ffs);
    EXPECT_EQ(r->timing.fmax_mhz, reports[0]->timing.fmax_mhz);
  }
}

// bytes_per_cycle means nothing to the software engine: the compile
// succeeds and tags, and the hardware half fails at its construction.
TEST(HardwareOnDemandTest, BadHardwareOptionFailsAtFirstHardwareCall) {
  auto g = ParseGrammar(kIfThenElse);
  ASSERT_TRUE(g.ok()) << g.status();
  hwgen::HwOptions opt;
  opt.bytes_per_cycle = 3;
  auto design = HardwareDesign::Create(*g, opt);
  ASSERT_FALSE(design.ok());
  EXPECT_EQ(design.status().code(), StatusCode::kInvalidArgument);
  auto compiled = CompiledTagger::Compile(std::move(g).value(), opt);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  EXPECT_EQ(compiled->Tag("go").size(), 1u);
}

// NL also matches the flush padding, and scan mode arms it at every byte,
// so a padded stream run to its end emits tags that end at or past
// scan_end (the input plus kFlushPadding). Tag and TagWithControl never
// see those: they feed the input and the padding without finishing the
// stream, which keeps the last pad byte pending, and a session fed that
// way emits nothing at or past scan_end in any arm mode. Tag delivers
// exactly the oracle's tags, and cfgtag_tag_tokens_total counts exactly
// the tags handed to the caller's sink, the refused one of an early stop
// included.
TEST(CompiledTaggerTest, PaddingTagsAreDroppedAndTagCountIsExact) {
  grammar::Grammar g;
  auto word = g.AddToken("WORD", "[a-z]+");
  auto nl = g.AddToken("NL", "\\n");
  ASSERT_TRUE(word.ok()) << word.status();
  ASSERT_TRUE(nl.ok()) << nl.status();
  const int32_t s = g.AddNonterminal("s");
  g.AddProduction(s, {grammar::Symbol::Terminal(*nl)});
  g.AddProduction(s, {grammar::Symbol::Terminal(*word),
                      grammar::Symbol::Terminal(*nl)});
  g.SetStart(s);
  hwgen::HwOptions opt;
  opt.tagger.arm_mode = tagger::ArmMode::kScan;
  opt.tagger.delimiters = regex::CharClass::Of(' ');
  const std::string input = "ab\ncd ef\n\ngh";
  const auto want = testing_oracle::OracleTags(g, opt.tagger, input);
  ASSERT_TRUE(want.ok()) << want.status();
  auto compiled = CompiledTagger::Compile(g.Clone(), opt);
  ASSERT_TRUE(compiled.ok()) << compiled.status();

  // The raw padded stream does reach past scan_end.
  const uint64_t scan_end = input.size() + CompiledTagger::kFlushPadding;
  std::string padded = input;
  padded.append(CompiledTagger::kFlushPadding + 1, CompiledTagger::kFlushByte);
  size_t past = 0;
  for (const Tag& t : compiled->lazy_model()->TagAll(padded)) {
    past += t.end >= scan_end ? 1 : 0;
  }
  ASSERT_GT(past, 0u);

  for (const tagger::ArmMode mode :
       {tagger::ArmMode::kAnchored, tagger::ArmMode::kScan,
        tagger::ArmMode::kResync}) {
    for (const bool longest : {true, false}) {
      SCOPED_TRACE("arm mode " + std::to_string(static_cast<int>(mode)) +
                   (longest ? " longest-match" : " no longest-match"));
      hwgen::HwOptions o = opt;
      o.tagger.arm_mode = mode;
      o.tagger.longest_match = longest;
      auto c = CompiledTagger::Compile(g.Clone(), o);
      ASSERT_TRUE(c.ok()) << c.status();
      const std::vector<Tag> fed =
          testing_oracle::PaddedFeedTags(*c->lazy_model(), input);
      for (const Tag& t : fed) EXPECT_LT(t.end, scan_end);
      auto oracle = testing_oracle::OracleTags(g, o.tagger, input);
      ASSERT_TRUE(oracle.ok()) << oracle.status();
      EXPECT_EQ(fed, *oracle);
      EXPECT_EQ(c->Tag(input), *oracle);
    }
  }

  obs::Counter* counted = obs::MetricsRegistry::Default().GetCounter(
      "cfgtag_tag_tokens_total");
  for (const bool control : {false, true}) {
    SCOPED_TRACE(control ? "TagWithControl" : "Tag");
    for (size_t limit = 0; limit <= want->size(); ++limit) {
      SCOPED_TRACE("limit " + std::to_string(limit));
      std::vector<Tag> got;
      const tagger::TagSink sink = [&](const Tag& t) {
        got.push_back(t);
        return limit == 0 || got.size() < limit;
      };
      const uint64_t before = counted->Value();
      if (control) {
        ASSERT_TRUE(compiled->TagWithControl(input, sink, {}).ok());
      } else {
        compiled->Tag(input, sink);
      }
      const size_t n = limit == 0 ? want->size() : limit;
      ASSERT_EQ(got.size(), n);
      EXPECT_TRUE(std::equal(got.begin(), got.end(), want->begin()));
      EXPECT_EQ(counted->Value() - before, n);
    }
  }
}

}  // namespace
}  // namespace cfgtag
