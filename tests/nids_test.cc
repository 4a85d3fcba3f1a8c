#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "core/resilience/fault_injector.h"
#include "grammar/grammar_parser.h"
#include "nids/context_filter.h"

namespace cfgtag::nids {
namespace {

// A miniature request protocol: REQ <path> HDR <value> END
constexpr char kProtocol[] = R"grm(
PATH [a-zA-Z0-9/._-]+
WORD [a-zA-Z0-9/._-]+
%%
msg:  "REQ" path "HDR" hval "END";
path: PATH;
hval: WORD;
%%
)grm";

grammar::Grammar Protocol() {
  auto g = grammar::ParseGrammar(kProtocol);
  EXPECT_TRUE(g.ok()) << g.status();
  return std::move(g).value();
}

std::vector<Rule> WebRules() {
  return {
      {"TRAVERSAL", "../", "PATH", 3},
      {"PASSWD", "/etc/passwd", "PATH", 3},
      {"DROPPER", "cmd.exe", "PATH", 2},
  };
}

TEST(ContextFilterTest, AlertsOnPatternInContext) {
  auto filter = ContextFilter::Create(Protocol(), WebRules());
  ASSERT_TRUE(filter.ok()) << filter.status();
  auto alerts =
      filter->Scan("REQ /a/../../etc/passwd HDR curl END");
  // "../" twice + "/etc/passwd" once.
  ASSERT_EQ(alerts.size(), 3u);
  EXPECT_EQ(filter->rules()[alerts[0].rule_index].id, "TRAVERSAL");
  EXPECT_EQ(filter->rules()[alerts[2].rule_index].id, "PASSWD");
}

TEST(ContextFilterTest, IgnoresPatternOutsideContext) {
  auto filter = ContextFilter::Create(Protocol(), WebRules());
  ASSERT_TRUE(filter.ok());
  const std::string msg = "REQ /index.html HDR probe-/etc/passwd-x END";
  EXPECT_TRUE(filter->Scan(msg).empty());
  // The ungated baseline flags it.
  EXPECT_EQ(filter->ScanUngated(msg).size(), 1u);
}

TEST(ContextFilterTest, ScanContextFreeOmitsBoundRules) {
  // ScanContextFree is Scan()'s global pass alone: rules bound to a
  // context token must not fire from it, even when their pattern appears
  // in the stream. (ScanUngated is the anything-goes baseline.)
  std::vector<Rule> rules = WebRules();
  rules.push_back({"GLOBAL", "forbidden", "", 1});
  auto filter = ContextFilter::Create(Protocol(), rules);
  ASSERT_TRUE(filter.ok());
  const std::string msg =
      "REQ /a/../forbidden HDR decoy-/etc/passwd END";
  const auto free = filter->ScanContextFree(msg);
  ASSERT_EQ(free.size(), 1u);
  EXPECT_EQ(filter->rules()[free[0].rule_index].id, "GLOBAL");
  // ... while the ungated baseline fires on everything.
  EXPECT_GE(filter->ScanUngated(msg).size(), 3u);
  // And Scan() agrees with ScanContextFree on the global rule.
  bool scan_has_global = false;
  for (const Alert& a : filter->Scan(msg)) {
    if (filter->rules()[a.rule_index].id == "GLOBAL") scan_has_global = true;
  }
  EXPECT_TRUE(scan_has_global);
}

TEST(ContextFilterTest, SharedEndOffsetSpansAreBothScanned) {
  // Two token classes whose lexemes overlap: "123" is simultaneously a
  // NUM and a HEX, so both tags land on the same end offset. The span
  // computation must hand that span to BOTH tokens' rules — the old code
  // computed begin = prev_end + 1 for the second tag, failed the
  // begin <= end guard, and silently dropped its span.
  constexpr char kGrammar[] = R"grm(
NUM [0-9]+
HEX [0-9a-f]+
%%
msg: "GO" v "END";
v: NUM;
v: HEX;
%%
)grm";
  auto g = grammar::ParseGrammar(kGrammar);
  ASSERT_TRUE(g.ok()) << g.status();
  std::vector<Rule> rules = {
      {"NUM-123", "123", "NUM", 1},
      {"HEX-123", "123", "HEX", 1},
  };
  auto filter = ContextFilter::Create(std::move(g).value(), rules);
  ASSERT_TRUE(filter.ok()) << filter.status();
  const std::string msg = "GO 123 END";
  const auto alerts = filter->Scan(msg);
  ASSERT_EQ(alerts.size(), 2u) << "both co-located tags must be scanned";
  EXPECT_EQ(alerts[0].end, 5u);
  EXPECT_EQ(alerts[1].end, 5u);
  bool saw_num = false, saw_hex = false;
  for (const Alert& a : alerts) {
    saw_num |= filter->rules()[a.rule_index].id == "NUM-123";
    saw_hex |= filter->rules()[a.rule_index].id == "HEX-123";
  }
  EXPECT_TRUE(saw_num);
  EXPECT_TRUE(saw_hex);
}

TEST(ContextFilterTest, AlertOffsetsAreStreamAbsolute) {
  auto filter = ContextFilter::Create(Protocol(), WebRules());
  ASSERT_TRUE(filter.ok());
  const std::string msg = "REQ /x/cmd.exe HDR agent END";
  auto alerts = filter->Scan(msg);
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].end, msg.find("cmd.exe") + 6);
}

TEST(ContextFilterTest, ContextFreeRulesMatchAnywhere) {
  std::vector<Rule> rules = WebRules();
  rules.push_back({"GLOBAL", "forbidden", "", 1});
  auto filter = ContextFilter::Create(Protocol(), rules);
  ASSERT_TRUE(filter.ok());
  auto alerts = filter->Scan("REQ /ok HDR very-forbidden-agent END");
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(filter->rules()[alerts[0].rule_index].id, "GLOBAL");
}

TEST(ContextFilterTest, HeaderRulesSeparateFromPathRules) {
  std::vector<Rule> rules = {
      {"PATH-EVIL", "evil", "PATH", 2},
      {"UA-BADBOT", "badbot", "WORD", 1},
  };
  auto filter = ContextFilter::Create(Protocol(), rules);
  ASSERT_TRUE(filter.ok());

  auto a1 = filter->Scan("REQ /evil HDR goodagent END");
  ASSERT_EQ(a1.size(), 1u);
  EXPECT_EQ(filter->rules()[a1[0].rule_index].id, "PATH-EVIL");

  auto a2 = filter->Scan("REQ /fine HDR badbot END");
  ASSERT_EQ(a2.size(), 1u);
  EXPECT_EQ(filter->rules()[a2[0].rule_index].id, "UA-BADBOT");

  // Crossed contexts: no alerts.
  EXPECT_TRUE(filter->Scan("REQ /badbot HDR evil END").empty());
}

TEST(ContextFilterTest, StatsAreFilled) {
  auto filter = ContextFilter::Create(Protocol(), WebRules());
  ASSERT_TRUE(filter.ok());
  ScanStats stats;
  const std::string msg = "REQ /a/../b HDR ua END";
  auto alerts = filter->Scan(msg, &stats);
  EXPECT_EQ(stats.bytes, msg.size());
  EXPECT_GE(stats.tokens, 5u);
  EXPECT_GE(stats.spans_scanned, 1u);
  EXPECT_EQ(stats.alerts, alerts.size());
}

TEST(ContextFilterTest, CreateRejections) {
  EXPECT_FALSE(ContextFilter::Create(Protocol(), {}).ok());
  EXPECT_FALSE(
      ContextFilter::Create(Protocol(), {{"X", "", "PATH", 1}}).ok());
  EXPECT_FALSE(
      ContextFilter::Create(Protocol(), {{"X", "p", "NOSUCH", 1}}).ok());
}

TEST(ContextFilterTest, MultipleMessagesWithResync) {
  hwgen::HwOptions opt;
  opt.tagger.arm_mode = tagger::ArmMode::kResync;
  auto filter = ContextFilter::Create(Protocol(), WebRules(), opt);
  ASSERT_TRUE(filter.ok());
  const std::string stream =
      "REQ /ok HDR ua END\n"
      "REQ /x/../etc/passwd HDR ua END\n"
      "REQ /fine HDR probe-cmd.exe END\n";
  auto alerts = filter->Scan(stream);
  // Second message: one traversal + one passwd; third: decoy suppressed.
  ASSERT_EQ(alerts.size(), 2u);
  EXPECT_EQ(filter->rules()[alerts[0].rule_index].id, "TRAVERSAL");
  EXPECT_EQ(filter->rules()[alerts[1].rule_index].id, "PASSWD");
}

// ---- Equivalence against a brute-force reference -------------------------

// Occurrences of the rules in `subset` inside `text`, in Aho–Corasick
// report order (end offset, then longest pattern, then rule index), offset
// by `base`.
void BruteForce(const std::vector<Rule>& rules,
                const std::vector<size_t>& subset, std::string_view text,
                uint64_t base, std::vector<Alert>* out) {
  for (size_t i = 0; i < text.size(); ++i) {
    std::vector<size_t> here;
    for (size_t r : subset) {
      const std::string& pat = rules[r].pattern;
      if (i + 1 >= pat.size() &&
          text.compare(i + 1 - pat.size(), pat.size(), pat) == 0) {
        here.push_back(r);
      }
    }
    std::stable_sort(here.begin(), here.end(), [&](size_t a, size_t b) {
      return rules[a].pattern.size() > rules[b].pattern.size();
    });
    for (size_t r : here) out->push_back(Alert{r, base + i});
  }
}

std::vector<size_t> RulesBoundTo(const std::vector<Rule>& rules,
                                 const std::string& token) {
  std::vector<size_t> out;
  for (size_t r = 0; r < rules.size(); ++r) {
    if (rules[r].context_token == token) out.push_back(r);
  }
  return out;
}

// What Scan() must report for `tags` (the tagger's output) over `stream`
// when the scan consumed `consumed` bytes: each bound rule over the spans
// of its token, the context-free rules over the consumed prefix, in end
// order with span alerts first at a shared end.
std::vector<Alert> Reference(const ContextFilter& filter,
                             const std::vector<tagger::Tag>& tags,
                             std::string_view stream, uint64_t consumed) {
  const std::vector<Rule>& rules = filter.rules();
  const grammar::Grammar& g = filter.tagger().grammar();
  std::vector<Alert> out;
  uint64_t prev_end = 0, prev_begin = 0;
  bool any = false;
  for (const tagger::Tag& tag : tags) {
    const uint64_t begin = !any                  ? 0
                           : tag.end == prev_end ? prev_begin
                                                 : prev_end + 1;
    if (tag.token >= 0 && begin < stream.size()) {
      BruteForce(rules, RulesBoundTo(rules, g.tokens()[tag.token].name),
                 stream.substr(begin, tag.end - begin + 1), begin, &out);
    }
    prev_begin = begin;
    prev_end = tag.end;
    any = true;
  }
  BruteForce(rules, RulesBoundTo(rules, ""), stream.substr(0, consumed), 0,
             &out);
  std::stable_sort(out.begin(), out.end(), [](const Alert& a, const Alert& b) {
    return a.end < b.end;
  });
  return out;
}

std::vector<Rule> RandomRules(Rng& rng) {
  static const char* const kContexts[] = {"", "PATH", "WORD"};
  std::vector<Rule> rules;
  const size_t n = 1 + rng.NextIndex(8);
  for (size_t i = 0; i < n; ++i) {
    Rule r;
    r.id = "R" + std::to_string(i);
    r.pattern = rng.NextBool(0.1) ? std::string(rng.NextBool() ? "END" : "Q ")
                                  : rng.NextString(1 + rng.NextIndex(3),
                                                   "ab/.E");
    r.context_token = kContexts[rng.NextIndex(3)];
    rules.push_back(r);
  }
  return rules;
}

std::string RandomStream(Rng& rng) {
  std::string out;
  const size_t messages = rng.NextIndex(12);
  for (size_t m = 0; m < messages; ++m) {
    if (rng.NextBool(0.15)) out += rng.NextString(rng.NextIndex(6), "ab/ E");
    out += "REQ " + rng.NextString(1 + rng.NextIndex(8), "ab/.E-") +
           " HDR " + rng.NextString(1 + rng.NextIndex(8), "ab/.E-") +
           " END\n";
  }
  return out;
}

std::vector<std::vector<Rule>> EquivalenceRuleSets() {
  std::vector<std::vector<Rule>> sets = {
      // The same pattern as a bound and a context-free rule.
      {{"B", "../", "PATH", 1}, {"F", "../", "", 1}},
      // A context-free pattern that is a suffix of a bound one.
      {{"B", "a/b.", "PATH", 1}, {"F", "b.", "", 1}, {"W", "b.", "WORD", 1}},
      // All bound; all context-free.
      {{"P", "a/", "PATH", 1}, {"W", "/a", "WORD", 1}, {"E", "E", "PATH", 1}},
      {{"X", "a/", "", 1}, {"Y", "/a", "", 1}, {"Z", "END", "", 1}},
  };
  Rng rng(19);
  for (int i = 0; i < 40; ++i) sets.push_back(RandomRules(rng));
  return sets;
}

hwgen::HwOptions ResyncOptions() {
  hwgen::HwOptions opt;
  opt.tagger.arm_mode = tagger::ArmMode::kResync;
  return opt;
}

TEST(ContextFilterEquivalenceTest, ScansMatchBruteForceReference) {
  Rng rng(7);
  for (const std::vector<Rule>& rules : EquivalenceRuleSets()) {
    auto filter = ContextFilter::Create(Protocol(), rules, ResyncOptions());
    ASSERT_TRUE(filter.ok()) << filter.status();
    const std::vector<size_t> free_rules = RulesBoundTo(rules, "");
    std::vector<size_t> all_rules(rules.size());
    for (size_t r = 0; r < rules.size(); ++r) all_rules[r] = r;
    for (int k = 0; k < 6; ++k) {
      const std::string stream = RandomStream(rng);
      EXPECT_EQ(filter->Scan(stream),
                Reference(*filter, filter->tagger().Tag(stream), stream,
                          stream.size()))
          << stream;

      std::vector<Alert> free;
      BruteForce(rules, free_rules, stream, 0, &free);
      EXPECT_EQ(filter->ScanContextFree(stream), free) << stream;

      std::vector<Alert> ungated = filter->ScanUngated(stream);
      EXPECT_TRUE(std::is_sorted(
          ungated.begin(), ungated.end(),
          [](const Alert& a, const Alert& b) { return a.end < b.end; }));
      std::vector<Alert> all;
      BruteForce(rules, all_rules, stream, 0, &all);
      auto by_end_rule = [](const Alert& a, const Alert& b) {
        return a.end != b.end ? a.end < b.end : a.rule_index < b.rule_index;
      };
      std::sort(ungated.begin(), ungated.end(), by_end_rule);
      std::sort(all.begin(), all.end(), by_end_rule);
      EXPECT_EQ(ungated, all) << stream;
    }
  }
}

TEST(ContextFilterEquivalenceTest, TrippedScanReportsTheConsumedPrefix) {
  namespace res = core::resilience;
  const std::vector<Rule> rules = {
      {"B", "../", "PATH", 1}, {"F", "../", "", 1}, {"U", "curl", "WORD", 1}};
  auto filter = ContextFilter::Create(Protocol(), rules, ResyncOptions());
  ASSERT_TRUE(filter.ok()) << filter.status();
  std::string stream;
  for (int i = 0; i < 40; ++i) stream += "REQ /a/../x HDR curl/../ END\n";
  res::ScanControl control;
  control.deadline = res::Deadline::AfterMillis(60000);
  control.check_interval_bytes = 100;
  // A clock skew on every second deadline check: the first chunk feeds,
  // the second check trips.
  res::FaultInjector& faults = res::FaultInjector::Instance();
  ASSERT_TRUE(faults.Arm("deadline.clock", 2, 120000).ok());
  std::vector<Alert> alerts;
  ScanStats stats;
  const Status s = filter->Scan(stream, control, &alerts, &stats);
  faults.DisarmAll();
  ASSERT_EQ(s.code(), StatusCode::kDeadlineExceeded) << s;
  ASSERT_GT(stats.bytes, 0u);
  ASSERT_LT(stats.bytes, stream.size());

  // The tags the tagger emits under the same trip.
  ASSERT_TRUE(faults.Arm("deadline.clock", 2, 120000).ok());
  std::vector<tagger::Tag> tags;
  uint64_t consumed = 0;
  const Status ts = filter->tagger().TagWithControl(
      stream,
      [&](const tagger::Tag& t) {
        tags.push_back(t);
        return true;
      },
      control, nullptr, &consumed);
  faults.DisarmAll();
  ASSERT_EQ(ts.code(), StatusCode::kDeadlineExceeded) << ts;
  ASSERT_EQ(consumed, stats.bytes);
  EXPECT_FALSE(alerts.empty());
  EXPECT_EQ(alerts, Reference(*filter, tags, stream, consumed));
}

TEST(ContextFilterTest, CreateRejectsOversizedMatcher) {
  // Every byte value plus 8.4 M pattern bytes: the automaton's 31-bit
  // premultiplied entries would overflow.
  std::string big(8'400'000, 'a');
  for (int b = 0; b < 256; ++b) big[b] = static_cast<char>(b);
  const auto filter =
      ContextFilter::Create(Protocol(), {{"BIG", std::move(big), "", 1}});
  ASSERT_FALSE(filter.ok());
  EXPECT_EQ(filter.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace cfgtag::nids
