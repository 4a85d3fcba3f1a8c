#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "obs/attribution.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/stats_server.h"

namespace cfgtag::obs {
namespace {

// Minimal blocking HTTP/1.0 GET against 127.0.0.1:port. Returns the full
// response (status line + headers + body), empty string on connect failure.
std::string HttpGet(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request =
      "GET " + path + " HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      return "";
    }
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

class StatsServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(server_.Start(/*port=*/0).ok());
    ASSERT_GT(server_.port(), 0);
  }
  void TearDown() override { server_.Stop(); }

  StatsServer server_;
};

TEST_F(StatsServerTest, HealthzIsOk) {
  const std::string response = HttpGet(server_.port(), "/healthz");
  EXPECT_NE(response.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(response.find("ok"), std::string::npos);
}

TEST_F(StatsServerTest, MetricsServesPrometheusText) {
  MetricsRegistry::Default()
      .GetCounter("cfgtag_stats_server_test_total", "A test counter")
      ->Increment();
  const std::string response = HttpGet(server_.port(), "/metrics");
  EXPECT_NE(response.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(response.find("cfgtag_stats_server_test_total"),
            std::string::npos);
  EXPECT_NE(response.find("# TYPE"), std::string::npos);
}

TEST_F(StatsServerTest, MetricsJsonServesRegistryDump) {
  const std::string response = HttpGet(server_.port(), "/metrics.json");
  EXPECT_NE(response.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(response.find("application/json"), std::string::npos);
}

TEST_F(StatsServerTest, TraceJsonServesChromeTrace) {
  const std::string response = HttpGet(server_.port(), "/trace.json");
  EXPECT_NE(response.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(response.find("traceEvents"), std::string::npos);
}

TEST_F(StatsServerTest, EventsServesFlightRecorder) {
  RecordEvent(EventKind::kCustom, 1, 2, "stats-server-test-event");
  const std::string response = HttpGet(server_.port(), "/events");
  EXPECT_NE(response.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(response.find("\"recorded\""), std::string::npos);
  EXPECT_NE(response.find("stats-server-test-event"), std::string::npos);
}

TEST_F(StatsServerTest, RulesServesAttributionRanking) {
  AttributionTable::Default().AddToken("STATS_TEST_TOKEN", 5);
  const std::string response = HttpGet(server_.port(), "/rules");
  EXPECT_NE(response.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(response.find("STATS_TEST_TOKEN"), std::string::npos);
  EXPECT_NE(response.find("\"enabled\""), std::string::npos);
}

TEST_F(StatsServerTest, UnknownPathIs404) {
  const std::string response = HttpGet(server_.port(), "/nope");
  EXPECT_NE(response.find("HTTP/1.0 404"), std::string::npos);
}

TEST_F(StatsServerTest, CountsRequestsServed) {
  const uint64_t before = server_.requests_served();
  HttpGet(server_.port(), "/healthz");
  HttpGet(server_.port(), "/healthz");
  EXPECT_EQ(server_.requests_served(), before + 2);
}

TEST(StatsServerLifecycleTest, StopUnbindsThePort) {
  StatsServer server;
  ASSERT_TRUE(server.Start(0).ok());
  const int port = server.port();
  ASSERT_FALSE(HttpGet(port, "/healthz").empty());
  server.Stop();
  EXPECT_FALSE(server.running());
  // A second server can bind the same port right away (SO_REUSEADDR plus a
  // genuinely closed listener).
  StatsServer second;
  EXPECT_TRUE(second.Start(port).ok());
  EXPECT_NE(HttpGet(port, "/healthz").find("200"), std::string::npos);
  second.Stop();
}

TEST(StatsServerLifecycleTest, RejectsOutOfRangePorts) {
  StatsServer server;
  EXPECT_FALSE(server.Start(-1).ok());
  EXPECT_FALSE(server.Start(65536).ok());
}

TEST(StatsServerLifecycleTest, StopBeforeStartIsANoOp) {
  StatsServer server;
  server.Stop();  // nothing to join, nothing to close
  server.Stop();
  EXPECT_FALSE(server.running());
  // And the object is still startable afterwards.
  ASSERT_TRUE(server.Start(0).ok());
  EXPECT_NE(HttpGet(server.port(), "/healthz").find("200"),
            std::string::npos);
  server.Stop();
}

TEST(StatsServerLifecycleTest, StartStopStartCyclesOnOneObject) {
  StatsServer server;
  for (int cycle = 0; cycle < 3; ++cycle) {
    ASSERT_TRUE(server.Start(0).ok()) << "cycle " << cycle;
    EXPECT_TRUE(server.running());
    EXPECT_NE(HttpGet(server.port(), "/healthz").find("200"),
              std::string::npos)
        << "cycle " << cycle;
    server.Stop();
    EXPECT_FALSE(server.running());
  }
}

// Regression for the double-join: two threads calling Stop() on a running
// server used to race into thread_.join() (std::terminate) or close the
// listen fd twice (EBADF for whoever re-opened the descriptor number in
// between). The lifecycle mutex makes every combination below a single
// join/close path.
TEST(StatsServerLifecycleTest, ConcurrentStopsJoinExactlyOnce) {
  StatsServer server;
  ASSERT_TRUE(server.Start(0).ok());
  const int port = server.port();
  ASSERT_FALSE(HttpGet(port, "/healthz").empty());

  constexpr int kStoppers = 4;
  std::vector<std::thread> stoppers;
  for (int i = 0; i < kStoppers; ++i) {
    stoppers.emplace_back([&server] { server.Stop(); });
  }
  for (std::thread& t : stoppers) t.join();
  EXPECT_FALSE(server.running());

  // The port is genuinely released and the object restartable: the
  // strongest observable proof that exactly one close happened.
  StatsServer second;
  ASSERT_TRUE(second.Start(port).ok());
  EXPECT_NE(HttpGet(port, "/healthz").find("200"), std::string::npos);
  second.Stop();
  ASSERT_TRUE(server.Start(0).ok());
  EXPECT_NE(HttpGet(server.port(), "/healthz").find("200"),
            std::string::npos);
  server.Stop();
}

// Stop() racing Start()-ed traffic: scrapers in flight while another
// thread tears the server down must either get a full response or a
// cleanly dropped connection — never a hang or a crash.
TEST(StatsServerLifecycleTest, StopWhileScrapersAreInFlight) {
  StatsServer server;
  ASSERT_TRUE(server.Start(0).ok());
  const int port = server.port();

  std::atomic<bool> stop_scraping{false};
  std::vector<std::thread> scrapers;
  for (int i = 0; i < 2; ++i) {
    scrapers.emplace_back([&] {
      while (!stop_scraping.load(std::memory_order_acquire)) {
        (void)HttpGet(port, "/metrics");
      }
    });
  }
  // Let a few scrapes land, then pull the rug.
  while (server.requests_served() < 3) {
    std::this_thread::yield();
  }
  server.Stop();
  stop_scraping.store(true, std::memory_order_release);
  for (std::thread& t : scrapers) t.join();
  EXPECT_FALSE(server.running());
}

}  // namespace
}  // namespace cfgtag::obs
