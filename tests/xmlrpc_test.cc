#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/hardware_design.h"
#include "core/token_tagger.h"
#include "grammar/analysis.h"
#include "obs/attribution.h"
#include "obs/metrics.h"
#include "reference/ll_parser.h"
#include "tagger/naive_matcher.h"
#include "xmlrpc/message_gen.h"
#include "xmlrpc/router.h"
#include "xmlrpc/xmlrpc_grammar.h"

namespace cfgtag::xmlrpc {
namespace {

TEST(XmlRpcGrammarTest, ParsesWithExpectedShape) {
  auto g = XmlRpcGrammar();
  ASSERT_TRUE(g.ok()) << g.status();
  // Fig. 14 defines 9 named tokens (STRING INT DOUBLE YEAR MONTH DAY HOUR
  // MIN SEC BASE64 = 10) plus the tag literals.
  EXPECT_GE(g->NumTokens(), 35u);
  EXPECT_LE(g->NumTokens(), 50u);
  // "approximately 300 bytes of pattern data" (§4.3).
  EXPECT_GE(g->PatternBytes(), 250u);
  EXPECT_LE(g->PatternBytes(), 330u);
  EXPECT_EQ(g->start(), g->FindNonterminal("methodCall"));
  EXPECT_TRUE(g->Validate().ok());
}

TEST(XmlRpcGrammarTest, IsLl1) {
  auto g = XmlRpcGrammar();
  ASSERT_TRUE(g.ok());
  auto p = tagger::PredictiveParser::Create(&g.value(), {});
  EXPECT_TRUE(p.ok()) << p.status();
}

TEST(XmlRpcGrammarTest, FindTokensLocatesMethodName) {
  auto g = XmlRpcGrammar();
  ASSERT_TRUE(g.ok());
  auto toks = FindXmlRpcTokens(*g);
  ASSERT_TRUE(toks.ok()) << toks.status();
  EXPECT_TRUE(g->tokens()[toks->open_method].is_literal);
  EXPECT_EQ(g->tokens()[toks->open_method].literal_text, "<methodName>");
}

TEST(XmlRpcGrammarTest, StartTokenIsMethodCall) {
  auto g = XmlRpcGrammar();
  ASSERT_TRUE(g.ok());
  auto a = grammar::Analyze(*g);
  ASSERT_TRUE(a.ok());
  ASSERT_EQ(a->start_tokens.size(), 1u);
  EXPECT_EQ(g->tokens()[*a->start_tokens.begin()].literal_text,
            "<methodCall>");
}

class MessageGenTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MessageGenTest, GeneratedMessagesAreValid) {
  auto g = XmlRpcGrammar();
  ASSERT_TRUE(g.ok());
  auto p = tagger::PredictiveParser::Create(&g.value(), {});
  ASSERT_TRUE(p.ok());

  MessageGenOptions opt;
  opt.max_depth = 3;
  MessageGenerator gen(opt, GetParam());
  for (int i = 0; i < 10; ++i) {
    const std::string msg = gen.Generate();
    EXPECT_TRUE(p->Accepts(msg)) << msg;
  }
}

TEST_P(MessageGenTest, AdversarialMessagesStillValid) {
  auto g = XmlRpcGrammar();
  ASSERT_TRUE(g.ok());
  auto p = tagger::PredictiveParser::Create(&g.value(), {});
  ASSERT_TRUE(p.ok());

  MessageGenOptions opt;
  opt.adversarial = true;
  MessageGenerator gen(opt, GetParam());
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(p->Accepts(gen.Generate()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MessageGenTest,
                         ::testing::Range<uint64_t>(0, 8));

TEST(MessageGenTest, DeterministicPerSeed) {
  MessageGenerator a({}, 5);
  MessageGenerator b({}, 5);
  EXPECT_EQ(a.Generate(), b.Generate());
  MessageGenerator c({}, 6);
  EXPECT_NE(a.Generate(), c.Generate());
}

TEST(MessageGenTest, FixedMethodAppearsInMessage) {
  MessageGenerator gen({}, 1);
  const std::string msg = gen.GenerateWithMethod("myService");
  EXPECT_NE(msg.find("<methodName>myService</methodName>"),
            std::string::npos);
}

TEST(MessageGenTest, StreamHonoursBothBounds) {
  MessageGenerator gen({}, 2);
  const std::string s = gen.GenerateStream(3, 4096);
  EXPECT_GE(s.size(), 4096u);
  size_t count = 0, pos = 0;
  while ((pos = s.find("<methodCall>", pos)) != std::string::npos) {
    ++count;
    pos += 1;
  }
  EXPECT_GE(count, 3u);
}

TEST(RouterTest, EveryServiceRoutesToItsPort) {
  RouterConfig config;
  config.services = {{"deposit", 1}, {"withdraw", 1}, {"acctinfo", 1},
                     {"buy", 2},     {"sell", 2},     {"price", 2}};
  config.default_port = 0;
  auto router = XmlRpcRouter::Create(config);
  ASSERT_TRUE(router.ok()) << router.status();

  MessageGenerator gen({}, 11);
  for (const auto& svc : config.services) {
    EXPECT_EQ(router->Route(gen.GenerateWithMethod(svc.name)), svc.port)
        << svc.name;
  }
}

TEST(RouterTest, ServiceTokenLookup) {
  RouterConfig config;
  config.services = {{"deposit", 1}, {"buy", 2}};
  config.default_port = 0;
  auto router = XmlRpcRouter::Create(config);
  ASSERT_TRUE(router.ok());
  EXPECT_EQ(router->ServiceToken("deposit"), 0);
  EXPECT_EQ(router->ServiceToken("buy"), 1);
  EXPECT_EQ(router->ServiceToken("nope"), -1);
}

TEST(RouterTest, CycleAccurateAgreesWithFunctional) {
  RouterConfig config;
  config.services = {{"deposit", 1}, {"buy", 2}};
  config.default_port = 0;
  auto router = XmlRpcRouter::Create(config);
  ASSERT_TRUE(router.ok());
  auto design = core::HardwareDesign::Create(router->tagger().grammar(),
                                             router->tagger().options());
  ASSERT_TRUE(design.ok()) << design.status();

  MessageGenerator gen({}, 21);
  for (const std::string method : {"deposit", "buy", "unknown"}) {
    const std::string msg = gen.GenerateWithMethod(method);
    auto hw = design->TagCycleAccurate(msg);
    ASSERT_TRUE(hw.ok()) << hw.status();
    EXPECT_EQ(router->RouteTags(*hw), router->Route(msg)) << method;
  }
}

TEST(RouterTest, PrefixServiceNamesDisambiguate) {
  // "buy" vs "buyback": longest match must pick the right keyword, and a
  // strictly longer non-service name must fall through to STRING.
  RouterConfig config;
  config.services = {{"buy", 1}, {"buyback", 2}};
  config.default_port = 0;
  auto router = XmlRpcRouter::Create(config);
  ASSERT_TRUE(router.ok()) << router.status();
  MessageGenerator gen({}, 31);
  EXPECT_EQ(router->Route(gen.GenerateWithMethod("buy")), 1);
  EXPECT_EQ(router->Route(gen.GenerateWithMethod("buyback")), 2);
  EXPECT_EQ(router->Route(gen.GenerateWithMethod("buybacks")), 0);
}

RouterConfig SixServices() {
  RouterConfig config;
  config.services = {{"deposit", 1}, {"withdraw", 2}, {"acctinfo", 3},
                     {"buy", 4},     {"sell", 5},     {"price", 6}};
  config.default_port = 0;
  return config;
}

int ExpectedPort(const RouterConfig& config, const std::string& method) {
  for (const RouterConfig::Service& s : config.services) {
    if (s.name == method) return s.port;
  }
  return config.default_port;
}

// Route decides while it tags and stops at the deciding tag; RouteTags
// reads a whole tag stream. On generated traffic — adversarial payloads,
// unknown method names, service names with a suffix, and a service that
// is a prefix of another — both pick each message's method port, and the
// netlist simulation agrees on a sample.
TEST(RouterTest, RouteEqualsRouteTagsOnGeneratedTraffic) {
  RouterConfig prefix;
  prefix.services = {{"buy", 1}, {"buyback", 2}};
  prefix.default_port = 0;
  const std::vector<std::string> methods = {
      "deposit", "withdraw",   "acctinfo",  "buy",      "sell",
      "price",   "buyback",    "buybacks",  "bu",       "audit",
      "transfer", "depositall", "pricelist", "sellprice"};
  for (const RouterConfig& config : {SixServices(), prefix}) {
    auto router = XmlRpcRouter::Create(config);
    ASSERT_TRUE(router.ok()) << router.status();
    auto design = core::HardwareDesign::Create(router->tagger().grammar(),
                                               router->tagger().options());
    ASSERT_TRUE(design.ok()) << design.status();
    MessageGenOptions opt;
    opt.method_names.clear();
    for (const auto& svc : config.services) {
      opt.method_names.push_back(svc.name);
    }
    MessageGenerator plain(opt, 51);
    opt.adversarial = true;
    MessageGenerator hostile(opt, 52);
    for (size_t i = 0; i < 10 * methods.size(); ++i) {
      const std::string& method = methods[i % methods.size()];
      const std::string msg = i % 3 == 0 ? hostile.GenerateWithMethod(method)
                                         : plain.GenerateWithMethod(method);
      const int want = ExpectedPort(config, method);
      ASSERT_EQ(router->Route(msg), want) << method << ": " << msg;
      ASSERT_EQ(router->RouteTags(router->tagger().Tag(msg)), want)
          << method << ": " << msg;
      if (i % 9 == 0) {
        auto hw = design->TagCycleAccurate(msg);
        ASSERT_TRUE(hw.ok()) << hw.status();
        EXPECT_EQ(router->RouteTags(*hw), want) << method << ": " << msg;
      }
    }
  }
}

// Within one end offset the tagger emits tags in token-id order, and the
// service keywords are declared first (SVC_i = token i), so a method
// name's keyword tag comes before its STRING tag and Route's scan stops at
// the STRING tag.
TEST(RouterTest, StringTokenFollowsServiceKeywords) {
  const RouterConfig config = SixServices();
  auto router = XmlRpcRouter::Create(config);
  ASSERT_TRUE(router.ok()) << router.status();
  for (size_t i = 0; i < config.services.size(); ++i) {
    EXPECT_EQ(router->ServiceToken(config.services[i].name),
              static_cast<int32_t>(i));
  }
  EXPECT_GE(router->tagger().grammar().FindToken("STRING"),
            static_cast<int32_t>(config.services.size()));
}

// The tags Route takes of a message that tags to `full` with `router`:
// through the first STRING tag that shares its end with an earlier service
// keyword (the method name that decides), or all of them when none does.
size_t TagsThroughDecision(const XmlRpcRouter& router,
                           const std::vector<tagger::Tag>& full) {
  const int32_t string_token = router.tagger().grammar().FindToken("STRING");
  const int32_t num_services =
      static_cast<int32_t>(router.config().services.size());
  for (size_t k = 0; k < full.size(); ++k) {
    if (full[k].token != string_token) continue;
    for (size_t j = 0; j < k; ++j) {
      if (full[j].end == full[k].end && full[j].token < num_services) {
        return k + 1;
      }
    }
  }
  return full.size();
}

// Route takes tags only up to the one that decides: for a message that
// names a service, cfgtag_tag_tokens_total moves by the tags through the
// method name's STRING tag, fewer than a full Tag returns; a message that
// names no service is tagged to its end. Either way the whole message
// counts in cfgtag_tag_bytes_total.
TEST(RouterTest, RouteStopsTaggingAtItsDecision) {
  const RouterConfig config = SixServices();
  auto router = XmlRpcRouter::Create(config);
  ASSERT_TRUE(router.ok()) << router.status();
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  obs::Counter* tokens = reg.GetCounter("cfgtag_tag_tokens_total");
  obs::Counter* bytes = reg.GetCounter("cfgtag_tag_bytes_total");
  MessageGenOptions opt;
  opt.adversarial = true;
  MessageGenerator gen(opt, 61);
  for (const std::string method :
       {"deposit", "price", "buy", "audit", "buyback", "sellprice"}) {
    SCOPED_TRACE(method);
    const std::string msg = gen.GenerateWithMethod(method);
    const std::vector<tagger::Tag> full = router->tagger().Tag(msg);
    const size_t taken = TagsThroughDecision(*router, full);
    const uint64_t tokens_before = tokens->Value();
    const uint64_t bytes_before = bytes->Value();
    EXPECT_EQ(router->Route(msg), ExpectedPort(config, method));
    EXPECT_EQ(bytes->Value() - bytes_before, msg.size());
    if (ExpectedPort(config, method) == config.default_port) {
      EXPECT_EQ(tokens->Value() - tokens_before, full.size());
    } else {
      EXPECT_LT(taken, full.size());
      EXPECT_EQ(tokens->Value() - tokens_before, taken);
    }
  }
}

// The same on a warmed session: full Tag calls over a mix of services,
// unknown methods and adversarial payloads first fill the pooled session's
// transition cache, as a long run of routed traffic does, so Route's walks
// run long stretches out of cached transitions. Each Route still picks its
// method's port, agrees with RouteTags on the full tag stream and takes the
// tags through the deciding STRING tag only.
TEST(RouterTest, WarmRouteStopsTaggingAtItsDecision) {
  const RouterConfig config = SixServices();
  auto router = XmlRpcRouter::Create(config);
  ASSERT_TRUE(router.ok()) << router.status();
  obs::Counter* tokens =
      obs::MetricsRegistry::Default().GetCounter("cfgtag_tag_tokens_total");
  MessageGenOptions opt;
  opt.method_names.clear();
  for (const auto& svc : config.services) opt.method_names.push_back(svc.name);
  for (const char* unknown :
       {"audit", "transfer", "depositall", "buyback", "pricelist"}) {
    opt.method_names.push_back(unknown);
  }
  MessageGenerator plain(opt, 71);
  opt.adversarial = true;
  MessageGenerator hostile(opt, 72);
  std::vector<std::string> methods;
  std::vector<std::string> msgs;
  std::vector<std::vector<tagger::Tag>> full;
  for (size_t i = 0; i < 12 * opt.method_names.size(); ++i) {
    methods.push_back(opt.method_names[i % opt.method_names.size()]);
    msgs.push_back(i % 3 == 0 ? hostile.GenerateWithMethod(methods.back())
                              : plain.GenerateWithMethod(methods.back()));
    full.push_back(router->tagger().Tag(msgs.back()));
  }
  size_t decided = 0;
  for (size_t i = 0; i < msgs.size(); ++i) {
    SCOPED_TRACE(methods[i] + ": " + msgs[i]);
    const size_t taken = TagsThroughDecision(*router, full[i]);
    const uint64_t tokens_before = tokens->Value();
    const int port = router->Route(msgs[i]);
    EXPECT_EQ(port, ExpectedPort(config, methods[i]));
    EXPECT_EQ(port, router->RouteTags(full[i]));
    EXPECT_EQ(tokens->Value() - tokens_before, taken);
    decided += taken < full[i].size();
  }
  EXPECT_GT(decided, msgs.size() / 2);
}

// Route credits the service that decided, by name, even when two services
// share a port, and counts a message as defaulted only when no service
// decided, even when a service routes to the default port.
TEST(RouterTest, AttributionCreditsTheDecidingService) {
  RouterConfig config;
  config.services = {{"deposit", 1}, {"withdraw", 1}, {"buy", 0}};
  config.default_port = 0;
  auto router = XmlRpcRouter::Create(config);
  ASSERT_TRUE(router.ok()) << router.status();
  obs::Counter* defaulted = obs::MetricsRegistry::Default().GetCounter(
      "cfgtag_xmlrpc_routed_default_total");
  obs::AttributionTable& table = obs::AttributionTable::Default();
  table.Clear();
  obs::AttributionTable::set_enabled(true);
  const uint64_t defaulted_before = defaulted->Value();
  const std::vector<std::pair<std::string, uint64_t>> traffic = {
      {"deposit", 1}, {"withdraw", 3}, {"buy", 2}, {"audit", 1}};
  MessageGenerator gen({}, 71);
  for (const auto& [method, count] : traffic) {
    for (uint64_t i = 0; i < count; ++i) {
      EXPECT_EQ(router->Route(gen.GenerateWithMethod(method)),
                ExpectedPort(config, method))
          << method;
    }
  }
  obs::AttributionTable::set_enabled(false);
  std::map<std::string, uint64_t> credited;
  for (const obs::AttributionTable::Row& row : table.RankedServices()) {
    credited[row.name] = row.hits;
  }
  table.Clear();
  EXPECT_EQ(credited, (std::map<std::string, uint64_t>{{"deposit", 1},
                                                       {"withdraw", 3},
                                                       {"buy", 2},
                                                       {"(default)", 1}}));
  EXPECT_EQ(defaulted->Value() - defaulted_before, 1u);
}

// Route times each message once, in its scan: over N routed messages
// cfgtag_xmlrpc_route_seconds and cfgtag_tag_seconds each observe exactly
// N values, whether the scan stops at its decision or runs to the end.
TEST(RouterTest, RouteTimesEachMessageOnce) {
  const RouterConfig config = SixServices();
  auto router = XmlRpcRouter::Create(config);
  ASSERT_TRUE(router.ok()) << router.status();
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  obs::Histogram* route = reg.GetHistogram("cfgtag_xmlrpc_route_seconds");
  obs::Histogram* tag = reg.GetHistogram("cfgtag_tag_seconds");
  const uint64_t route_before = route->TotalCount();
  const uint64_t tag_before = tag->TotalCount();
  const double route_sum_before = route->Sum();
  MessageGenerator gen({}, 81);
  const std::vector<std::string> methods = {"deposit", "audit", "price",
                                            "sellprice", "buy"};
  const uint64_t n = 4 * methods.size();
  for (uint64_t i = 0; i < n; ++i) {
    const std::string& method = methods[i % methods.size()];
    EXPECT_EQ(router->Route(gen.GenerateWithMethod(method)),
              ExpectedPort(config, method));
  }
  EXPECT_EQ(route->TotalCount() - route_before, n);
  EXPECT_EQ(tag->TotalCount() - tag_before, n);
  EXPECT_GT(route->Sum(), route_sum_before);
}

TEST(RouterTest, RejectsBadConfig) {
  RouterConfig empty;
  EXPECT_FALSE(XmlRpcRouter::Create(empty).ok());
  RouterConfig bad;
  bad.services = {{"has space", 1}};
  EXPECT_FALSE(XmlRpcRouter::Create(bad).ok());
}

// The false-positive experiment in miniature: a context-free matcher flags
// service names hidden in payloads; the context-aware tagger does not.
TEST(RouterTest, NaiveMatcherFalsePositivesContextTaggerClean) {
  RouterConfig config;
  config.services = {{"deposit", 1}, {"buy", 2}};
  config.default_port = 0;
  auto router = XmlRpcRouter::Create(config);
  ASSERT_TRUE(router.ok());

  tagger::NaiveMatcher naive({"deposit", "buy"});

  MessageGenOptions opt;
  opt.adversarial = true;
  opt.method_names = {"deposit", "buy"};
  MessageGenerator gen(opt, 77);

  int naive_hits = 0;
  int tagger_service_tags = 0;
  int messages_with_payload_hit = 0;
  for (int i = 0; i < 30; ++i) {
    // A method name outside the service set, with adversarial payloads.
    const std::string msg = gen.GenerateWithMethod("somethingneutral");
    const size_t naive_count = naive.Matches(msg).size();
    naive_hits += static_cast<int>(naive_count);
    messages_with_payload_hit += naive_count > 0;
    for (const auto& t : router->tagger().Tag(msg)) {
      tagger_service_tags +=
          t.token < static_cast<int32_t>(config.services.size());
    }
    EXPECT_EQ(router->Route(msg), 0);
  }
  EXPECT_GT(messages_with_payload_hit, 0) << "workload produced no decoys";
  EXPECT_GT(naive_hits, 0);
  EXPECT_EQ(tagger_service_tags, 0);
}

}  // namespace
}  // namespace cfgtag::xmlrpc
