// The benchmark's own checks: its generators are deterministic per seed,
// and each guard refuses a deliberately broken input.

#include <cmath>
#include <cstdio>
#include <set>

#include "core/token_tagger.h"
#include "grammar/grammar_parser.h"
#include "perfbench.h"
#include "xmlrpc/xmlrpc_grammar.h"

namespace perfbench {

int SelfTest() {
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    failures += !ok;
  };

  // Generators: the same seed gives the same inputs, another seed others.
  for (bool padded : {false, true}) {
    const XmlRpcStream a = MakeXmlRpcStream(7, padded, 1 << 14);
    expect(a.text == MakeXmlRpcStream(7, padded, 1 << 14).text &&
               a.text != MakeXmlRpcStream(8, padded, 1 << 14).text,
           padded ? "padded XML-RPC stream is deterministic per seed"
                  : "dense XML-RPC stream is deterministic per seed");
  }
  const std::vector<cfgtag::nids::Rule> rules = NidsRules();
  const NidsFlows flows = MakeNidsFlows(rules, 7, 16 << 10);
  const NidsFlows same = MakeNidsFlows(rules, 7, 16 << 10);
  expect(flows.flows == same.flows && flows.expected == same.expected &&
             flows.flows != MakeNidsFlows(rules, 8, 16 << 10).flows,
         "NIDS flows are deterministic per seed");
  const auto config = RouterServices();
  const RouterMessages msgs = MakeRouterMessages(config, 7, 256);
  expect(msgs.messages == MakeRouterMessages(config, 7, 256).messages &&
             msgs.expected_port ==
                 MakeRouterMessages(config, 7, 256).expected_port &&
             msgs.messages != MakeRouterMessages(config, 8, 256).messages,
         "router messages are deterministic per seed");
  std::set<std::string> patterns;
  for (const auto& rule : rules) patterns.insert(rule.pattern);
  expect(rules.size() == 64 && patterns.size() == rules.size(),
         "64 NIDS rules with distinct patterns");

  // Latency histogram: percentiles within about a bucket width of the
  // exact ones, on samples denser than the buckets (10-20 us).
  LatencyHistogram histogram;
  std::vector<double> exact;
  for (int i = 0; i < 100000; ++i) {
    histogram.Add((100000 + i) * 1e-10);
    exact.push_back((100000 + i) * 1e-10);
  }
  bool close = histogram.count() == exact.size();
  for (double p : {1.0, 50.0, 99.0}) {
    const double want = Percentile(exact, p);
    close = close && std::abs(histogram.Percentile(p) - want) <= 2e-3 * want;
  }
  expect(close, "latency histogram percentiles match the exact ones");

  // Throughput guard: nothing beats memcpy.
  Record probe(0, 0, false, 1);
  probe.memcpy_mbps = 1000;
  expect(CheckThroughput(probe, 999, "plausible") &&
             !CheckThroughput(probe, 30000, "impossible"),
         "throughput guard refuses a figure above memcpy bandwidth");

  // Tag-count guard: an anchored tagger on a multi-message stream tags the
  // first message and skips the dead tail — the trap behind impossible
  // throughput figures. The band must refuse it and accept resync.
  const XmlRpcStream stream = MakeXmlRpcStream(7, false, 1 << 16);
  const Band band = XmlRpcTagBand(stream, 1);
  auto count_tags = [&](cfgtag::tagger::ArmMode mode) {
    cfgtag::hwgen::HwOptions options;
    options.tagger.arm_mode = mode;
    const auto t = Must(cfgtag::core::CompiledTagger::Compile(
                            Must(cfgtag::xmlrpc::XmlRpcGrammar(), "grammar"),
                            options),
                        "Compile");
    TagDigest d;
    t.Tag(stream.text, DigestSink(&d));
    return static_cast<double>(d.count);
  };
  expect(!band.Contains(count_tags(cfgtag::tagger::ArmMode::kAnchored)),
         "tag band refuses an anchored tagger on a multi-message stream");
  expect(band.Contains(count_tags(cfgtag::tagger::ArmMode::kResync)),
         "tag band accepts the resync tagger on the same stream");

  // NIDS ground truth: a filter with every rule context-free alerts on the
  // decoys, so its alerts must differ from the planted attacks.
  std::vector<cfgtag::nids::Rule> ungated = rules;
  for (auto& rule : ungated) rule.context_token.clear();
  cfgtag::hwgen::HwOptions resync;
  resync.tagger.arm_mode = cfgtag::tagger::ArmMode::kResync;
  auto make_filter = [&](const std::vector<cfgtag::nids::Rule>& rs) {
    return Must(cfgtag::nids::ContextFilter::Create(
                    Must(cfgtag::grammar::ParseGrammar(NidsGrammarText()),
                         "grammar"),
                    rs, resync),
                "ContextFilter::Create");
  };
  auto mismatches = [&](const cfgtag::nids::ContextFilter& f) {
    size_t bad = 0;
    for (size_t i = 0; i < flows.flows.size(); ++i) {
      bad += f.Scan(flows.flows[i]) != flows.expected[i];
    }
    return bad;
  };
  expect(flows.decoys > 0 && flows.planted > 0,
         "NIDS flows carry planted attacks and decoys");
  expect(mismatches(make_filter(rules)) == 0,
         "context filter alerts equal the planted attacks");
  expect(mismatches(make_filter(ungated)) > 0,
         "NIDS check refuses a filter that alerts on decoys");

  // Router ground truth: a router with the ports permuted must misroute.
  auto misroutes = [&](const cfgtag::xmlrpc::RouterConfig& c) {
    const auto router =
        Must(cfgtag::xmlrpc::XmlRpcRouter::Create(c), "XmlRpcRouter::Create");
    size_t bad = 0;
    for (size_t i = 0; i < msgs.messages.size(); ++i) {
      bad += router.Route(msgs.messages[i]) != msgs.expected_port[i];
    }
    return bad;
  };
  cfgtag::xmlrpc::RouterConfig permuted = config;
  for (size_t i = 0; i < permuted.services.size(); ++i) {
    permuted.services[i].port =
        config.services[(i + 1) % config.services.size()].port;
  }
  expect(msgs.adversarial > 0 && msgs.unknown > 0,
         "router messages include adversarial and unknown methods");
  expect(misroutes(config) == 0, "router routes every message correctly");
  expect(misroutes(permuted) > 0, "router check refuses permuted ports");

  std::printf("%d failed\n", failures);
  return failures;
}

}  // namespace perfbench
