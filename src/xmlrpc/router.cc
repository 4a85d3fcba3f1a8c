#include "xmlrpc/router.h"

#include "obs/attribution.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "xmlrpc/xmlrpc_grammar.h"

namespace cfgtag::xmlrpc {

namespace {

struct RouteMetrics {
  obs::Counter* messages;
  obs::Counter* defaulted;
  obs::Histogram* latency;

  static const RouteMetrics& Get() {
    static const RouteMetrics* const kMetrics = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
      auto* m = new RouteMetrics;
      m->messages = reg.GetCounter("cfgtag_xmlrpc_messages_total",
                                   "Messages routed by XmlRpcRouter");
      m->defaulted = reg.GetCounter(
          "cfgtag_xmlrpc_routed_default_total",
          "Messages that fell through to the default port");
      m->latency = reg.GetHistogram("cfgtag_xmlrpc_route_seconds",
                                    "Per-message routed-scan wall time");
      return m;
    }();
    return *kMetrics;
  }
};

// RouteTags's rule (router.h), taken one tag at a time. Tags arrive in
// stream order, so the first end offset at which a service keyword and
// STRING both fire decides, and its first keyword names the method.
class RouteDecision {
 public:
  RouteDecision(const RouterConfig& config, int32_t string_token)
      : config_(config), string_token_(string_token) {}

  // Takes the next tag in stream order; false once the method is decided.
  bool Add(const tagger::Tag& t) {
    if (t.end != end_) {
      end_ = t.end;
      keyword_ = -1;
      string_ = false;
    }
    if (static_cast<size_t>(t.token) < config_.services.size()) {
      if (keyword_ < 0) keyword_ = t.token;
    } else if (t.token == string_token_) {
      string_ = true;
    }
    return service() < 0;
  }

  // The index in the config of the service that decided, or -1.
  int32_t service() const { return keyword_ >= 0 && string_ ? keyword_ : -1; }

  // The decided service's port, or the default port.
  int port() const {
    return service() >= 0 ? config_.services[static_cast<size_t>(keyword_)].port
                          : config_.default_port;
  }

 private:
  const RouterConfig& config_;
  const int32_t string_token_;
  uint64_t end_ = ~uint64_t{0};
  int32_t keyword_ = -1;  // first keyword tag at end_
  bool string_ = false;   // STRING fired at end_
};

}  // namespace

StatusOr<XmlRpcRouter> XmlRpcRouter::Create(const RouterConfig& config) {
  std::vector<std::string> names;
  names.reserve(config.services.size());
  for (const RouterConfig::Service& s : config.services) {
    names.push_back(s.name);
  }
  CFGTAG_ASSIGN_OR_RETURN(auto grammar, XmlRpcRouterGrammar(names));

  // Service keyword tokens are SVC_i = token id i (they are declared
  // first); STRING can fire on the same cycle as a keyword, so the encoder
  // gets an eq. 5 priority group with STRING lowest.
  hwgen::HwOptions options;
  const int32_t string_token = grammar.FindToken("STRING");
  if (string_token < 0) return InternalError("router grammar lacks STRING");
  std::vector<int32_t> group;
  group.push_back(string_token);
  for (size_t i = 0; i < config.services.size(); ++i) {
    group.push_back(static_cast<int32_t>(i));
  }
  options.priority_groups.push_back(std::move(group));

  CFGTAG_ASSIGN_OR_RETURN(auto tagger,
                          core::CompiledTagger::Compile(std::move(grammar),
                                                        options));
  return XmlRpcRouter(config, std::move(tagger), string_token);
}

int32_t XmlRpcRouter::ServiceToken(const std::string& name) const {
  for (size_t i = 0; i < config_.services.size(); ++i) {
    if (config_.services[i].name == name) return static_cast<int32_t>(i);
  }
  return -1;
}

int XmlRpcRouter::RouteTags(const std::vector<tagger::Tag>& tags) const {
  RouteDecision decision(config_, string_token_);
  for (const tagger::Tag& t : tags) {
    if (!decision.Add(t)) break;
  }
  return decision.port();
}

int XmlRpcRouter::Route(std::string_view message) const {
  const RouteMetrics& metrics = RouteMetrics::Get();
  // The sink refuses the tag that decides, so the scan stops there. The
  // decision runs inside the scan, so the scan's wall time covers it.
  RouteDecision decision(config_, string_token_);
  obs::Lap lap;
  (void)tagger_.TagWithControl(
      message, [&decision](const tagger::Tag& t) { return decision.Add(t); },
      core::resilience::ScanControl::InertOneChunk(), nullptr, nullptr,
      &lap);
  metrics.latency->Observe(lap.seconds);
  metrics.messages->Increment();
  const int32_t service = decision.service();
  if (service < 0) metrics.defaulted->Increment();
  if (obs::AttributionTable::enabled()) {
    obs::AttributionTable::Default().AddService(
        service < 0 ? std::string_view("(default)")
                    : config_.services[static_cast<size_t>(service)].name,
        1);
  }
  return decision.port();
}

}  // namespace cfgtag::xmlrpc
