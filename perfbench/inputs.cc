#include <algorithm>
#include <cctype>
#include <cmath>

#include "common/rng.h"
#include "perfbench.h"
#include "xmlrpc/message_gen.h"

namespace perfbench {

using cfgtag::Rng;
using cfgtag::nids::Alert;
using cfgtag::nids::Rule;

XmlRpcStream MakeXmlRpcStream(uint64_t seed, bool padded, size_t min_bytes) {
  cfgtag::xmlrpc::MessageGenOptions options;
  if (padded) {
    options.whitespace_prob = 0.9;
    options.ws_run_min = 16;
    options.ws_run_max = 64;
  }
  cfgtag::xmlrpc::MessageGenerator gen(options, seed);
  XmlRpcStream s;
  s.text = gen.GenerateStream(1, min_bytes);
  static constexpr std::string_view kOpen = "<methodCall>";
  for (size_t at = s.text.find(kOpen); at != std::string::npos;
       at = s.text.find(kOpen, at + kOpen.size())) {
    ++s.messages;
  }
  s.live_bytes = static_cast<size_t>(std::count_if(
      s.text.begin(), s.text.end(),
      [](unsigned char c) { return !std::isspace(c); }));
  return s;
}

Band XmlRpcTagBand(const XmlRpcStream& s, int copies) {
  // Every message carries at least <methodCall> <methodName> STRING
  // </methodName> <params> </params> </methodCall>.
  constexpr double kMinTagsPerMessage = 7;
  return {kMinTagsPerMessage * s.messages * copies,
          2.0 * s.live_bytes * copies};
}

namespace {

constexpr char kNidsGrammar[] = R"grm(
PATH [a-zA-Z0-9/._-]+
WORD [a-zA-Z0-9/._-]+
%%
msg:  "REQ" path "HDR" hval "END";
path: PATH;
hval: WORD;
%%
)grm";

// Benign text draws from an alphabet without 's', 'i', 'g', 'x', '.' and
// '_', so it can never spell a signature: every real and synthetic PATH
// signature and the context-free one need at least one of those.
constexpr char kBenign[] = "abcdefhjklmnopqrtuvwz0123456789";
constexpr char kContextFreePattern[] = "xp_cmdshell";
constexpr size_t kBoundRules = 63;

std::string BenignSegment(Rng& rng) {
  return rng.NextString(3 + rng.NextIndex(8), kBenign);
}

}  // namespace

const std::string& NidsGrammarText() {
  static const std::string* const kText = new std::string(kNidsGrammar);
  return *kText;
}

std::vector<Rule> NidsRules() {
  std::vector<Rule> rules = {
      {"TRAVERSAL", "../", "PATH", 3},
      {"PASSWD", "/etc/passwd", "PATH", 3},
      {"DROPPER", "cmd.exe", "PATH", 2},
      {"SHELL", "bin/sh", "PATH", 2},
  };
  // Synthetic signatures from a fixed seed: the rule set is part of the
  // workload, not of the traffic seed.
  Rng rng(2006);
  while (rules.size() < kBoundRules) {
    rules.push_back({"SYN-" + std::to_string(rules.size()),
                     "sig" + rng.NextString(6, "abcdef0123456789"), "PATH",
                     1});
  }
  rules.push_back({"CF-MSSQL", kContextFreePattern, "", 3});
  return rules;
}

NidsFlows MakeNidsFlows(const std::vector<Rule>& rules, uint64_t seed,
                        size_t min_bytes) {
  Rng rng(seed);
  NidsFlows out;
  const size_t cf_rule = rules.size() - 1;
  while (out.bytes < min_bytes) {
    // Pareto(alpha 1.2) request counts: most flows are a few requests,
    // a few are hundreds.
    const double u = 1.0 - rng.NextDouble();
    const uint64_t requests = std::min<uint64_t>(
        256, static_cast<uint64_t>(std::floor(std::pow(u, -1.0 / 1.2))));
    std::string flow;
    std::vector<Alert> expected;
    for (uint64_t q = 0; q < requests; ++q) {
      const double kind = rng.NextDouble();
      flow += "REQ /" + BenignSegment(rng) + "/";
      if (kind < 0.02) {
        // Planted attack: a PATH signature inside the path.
        const size_t rule = rng.NextIndex(kBoundRules);
        flow += rules[rule].pattern;
        expected.push_back({rule, flow.size() - 1});
        flow += "/";
        ++out.planted;
      }
      flow += BenignSegment(rng) + ".html HDR agent-";
      if (kind >= 0.02 && kind < 0.025) {
        // Planted attack the context-free rule sees anywhere.
        flow += kContextFreePattern;
        expected.push_back({cf_rule, flow.size() - 1});
        ++out.planted;
      } else if (kind >= 0.025 && kind < 0.085) {
        // Decoy: a PATH signature where no PATH token is.
        flow += rules[rng.NextIndex(kBoundRules)].pattern;
        ++out.decoys;
      } else {
        flow += BenignSegment(rng);
      }
      flow += "-v" + std::to_string(rng.NextIndex(10)) + " END\n";
    }
    out.bytes += flow.size();
    out.total_requests += requests;
    out.flows.push_back(std::move(flow));
    out.expected.push_back(std::move(expected));
    out.requests.push_back(requests);
  }
  return out;
}

cfgtag::xmlrpc::RouterConfig RouterServices() {
  cfgtag::xmlrpc::RouterConfig config;
  config.services = {{"deposit", 1}, {"withdraw", 2}, {"acctinfo", 3},
                     {"buy", 4},     {"sell", 5},     {"price", 6}};
  config.default_port = 0;
  return config;
}

RouterMessages MakeRouterMessages(const cfgtag::xmlrpc::RouterConfig& config,
                                  uint64_t seed, size_t count) {
  // Unknown methods include service names with a suffix: the keyword
  // fires as a prefix there, and routing on it would be a misroute.
  const std::vector<std::string> unknown = {"audit", "transfer", "depositall",
                                            "buyback", "pricelist"};
  cfgtag::xmlrpc::MessageGenOptions plain;
  for (const auto& s : config.services) plain.method_names.push_back(s.name);
  for (const auto& u : unknown) plain.method_names.push_back(u);
  cfgtag::xmlrpc::MessageGenOptions hostile = plain;
  hostile.adversarial = true;

  Rng rng(seed);
  cfgtag::xmlrpc::MessageGenerator plain_gen(plain, seed * 2 + 1);
  cfgtag::xmlrpc::MessageGenerator hostile_gen(hostile, seed * 2 + 2);
  RouterMessages out;
  for (size_t i = 0; i < count; ++i) {
    const std::string& method =
        plain.method_names[rng.NextIndex(plain.method_names.size())];
    int port = config.default_port;
    for (const auto& s : config.services) {
      if (s.name == method) port = s.port;
    }
    if (port == config.default_port) ++out.unknown;
    const bool adversarial = rng.NextBool(1.0 / 3);
    out.adversarial += adversarial;
    out.messages.push_back(adversarial ? hostile_gen.GenerateWithMethod(method)
                                       : plain_gen.GenerateWithMethod(method));
    out.expected_port.push_back(port);
    if (out.messages.back().size() < out.messages[out.shortest].size()) {
      out.shortest = i;
    }
  }
  return out;
}

}  // namespace perfbench
