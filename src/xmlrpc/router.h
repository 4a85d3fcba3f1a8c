#ifndef CFGTAG_XMLRPC_ROUTER_H_
#define CFGTAG_XMLRPC_ROUTER_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/token_tagger.h"

namespace cfgtag::xmlrpc {

// The content-based XML-RPC message router of paper Fig. 12: the tagger
// raises a dedicated wire per known service when it appears as the
// <methodName> content, and a switch steers the message to that service's
// output port. Unknown services go to `default_port`.
struct RouterConfig {
  struct Service {
    std::string name;  // alphanumeric method name, e.g. "deposit"
    int port = 0;      // output port it routes to
  };
  std::vector<Service> services;
  int default_port = -1;
};

class XmlRpcRouter {
 public:
  static StatusOr<XmlRpcRouter> Create(const RouterConfig& config);

  // Routes one message on the software tagger, deciding while it tags:
  // the scan stops at the tag that decides (the method name's STRING tag
  // for a known service), so only a message that names no service is
  // tagged to its end. No tag vector is built.
  int Route(std::string_view message) const;

  // Routes via the cycle-accurate netlist simulation — the match wire of
  // the service token is observed exactly as the Fig. 12 switch would.
  StatusOr<int> RouteCycleAccurate(std::string_view message) const;

  // Token id of a service's dedicated wire (-1 if unknown).
  int32_t ServiceToken(const std::string& name) const;

  const core::CompiledTagger& tagger() const { return tagger_; }
  const RouterConfig& config() const { return config_; }

  // The same decision as Route over a whole tag stream, read up to the
  // tag that decides. A service keyword identifies the method name only
  // when it matches on the same cycle as the STRING fallback token: under
  // longest-match, STRING fires exactly once at the true end of the method
  // name, so a keyword that is merely a *prefix* of a longer name fires
  // alone and is ignored — the §3.4 simultaneous-detection discipline
  // applied at the back-end.
  int RouteTags(const std::vector<tagger::Tag>& tags) const;

 private:
  XmlRpcRouter(RouterConfig config, core::CompiledTagger tagger,
               int32_t string_token)
      : config_(std::move(config)),
        tagger_(std::move(tagger)),
        string_token_(string_token) {}

  RouterConfig config_;
  core::CompiledTagger tagger_;
  int32_t string_token_;
};

}  // namespace cfgtag::xmlrpc

#endif  // CFGTAG_XMLRPC_ROUTER_H_
