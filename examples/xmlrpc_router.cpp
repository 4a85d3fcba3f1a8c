// The paper's §4 application: an XML-RPC content-based message router
// (Fig. 12). Messages for bank services (deposit / withdraw / acctinfo) go
// to port 1, shopping services (buy / sell / price) to port 2, everything
// else to port 0 — decided by the service token the hardware tags inside
// <methodName>, never by payload contents.
//
// Build & run:  ./build/examples/xmlrpc_router

#include <cstdio>

#include "core/hardware_design.h"
#include "rtl/device.h"
#include "xmlrpc/message_gen.h"
#include "xmlrpc/router.h"

int main() {
  using namespace cfgtag;

  xmlrpc::RouterConfig config;
  config.services = {{"deposit", 1}, {"withdraw", 1}, {"acctinfo", 1},
                     {"buy", 2},     {"sell", 2},     {"price", 2}};
  config.default_port = 0;
  auto router = xmlrpc::XmlRpcRouter::Create(config);
  if (!router.ok()) {
    std::fprintf(stderr, "router error: %s\n",
                 router.status().ToString().c_str());
    return 1;
  }

  const char* port_names[] = {"default", "bank server", "shopping server"};

  // Route a mixed workload.
  xmlrpc::MessageGenerator gen({}, /*seed=*/2006);
  std::printf("--- routing generated XML-RPC calls ---\n");
  int per_port[3] = {0, 0, 0};
  for (int i = 0; i < 12; ++i) {
    const std::string msg = gen.Generate();
    const int port = router->Route(msg);
    per_port[port]++;
    // Show the method name for the first few.
    if (i < 6) {
      const size_t at = msg.find("<methodName>") + 12;
      const size_t end = msg.find("</methodName>");
      std::printf("  %-12s -> port %d (%s)\n",
                  msg.substr(at, end - at).c_str(), port, port_names[port]);
    }
  }
  std::printf("  ... routed %d to bank, %d to shopping, %d to default\n",
              per_port[1], per_port[2], per_port[0]);

  // A payload that tries to smuggle a service name: the tagger only honours
  // <methodName> context, so this still routes to the bank.
  const std::string tricky =
      "<methodCall><methodName>deposit</methodName><params>"
      "<param><string>now buy sell price everything</string></param>"
      "</params></methodCall>";
  std::printf("\nadversarial payload (\"buy sell price\" inside a string):\n"
              "  -> port %d (%s)\n",
              router->Route(tricky), port_names[router->Route(tricky)]);

  // Cycle-accurate confirmation: the gate-level netlist of the router's
  // grammar routes identically.
  auto design = core::HardwareDesign::Create(router->tagger().grammar(),
                                             router->tagger().options());
  if (!design.ok()) {
    std::fprintf(stderr, "hwgen error: %s\n",
                 design.status().ToString().c_str());
    return 1;
  }
  auto hw_tags = design->TagCycleAccurate(tricky);
  std::printf("  gate-level simulation agrees: port %d\n",
              router->RouteTags(*hw_tags));

  // What this costs in hardware.
  auto report = design->Implement(rtl::Virtex4LX200());
  std::printf(
      "\nrouter tagger on %s: %zu LUTs, %.0f MHz, %.2f Gbps\n",
      report->device.c_str(), report->area.luts, report->timing.fmax_mhz,
      report->bandwidth_gbps);
  return 0;
}
