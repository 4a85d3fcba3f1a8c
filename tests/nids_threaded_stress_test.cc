// Threaded stress oracle for the whole cross-thread surface: the engine
// differential (the lazy DFA with its default and with a starved transition
// cache, both through core::CompiledTagger inside a ContextFilter) runs
// *through* nids::ScanEngine worker pools while
//
//   * a live obs::StatsServer is scraped continuously (/metrics exercises
//     the histogram CAS paths, /events the flight-recorder seqlock
//     readers, /rules the attribution table under its mutex),
//   * obs::AttributionTable::set_enabled flips mid-scan (sessions sample
//     the switch at Reset(), so alerts must not change),
//   * the FlightRecorder is hammered with events and snapshotted
//     concurrently (the starved-cache filter also records
//     dfa_cache_fallback events from inside the scan workers), and
//   * the workers' sessions build into each filter's one shared table
//     concurrently, the starved one until it is full.
//
// The oracle: every parallel result is byte-identical to the same
// filter's sequential Scan() computed before the storm, both filters agree,
// and their tag streams match the functional reference model. Sizes are
// smoke-scaled for CI (TSan included); set CFGTAG_STRESS_ITERS to dig
// deeper locally.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/resilience/budget.h"
#include "core/resilience/deadline.h"
#include "core/resilience/fault_injector.h"
#include "grammar/grammar_parser.h"
#include "nids/context_filter.h"
#include "nids/scan_engine.h"
#include "obs/attribution.h"
#include "obs/events.h"
#include "obs/stats_server.h"
#include "oracle.h"

namespace cfgtag::nids {
namespace {

constexpr char kProtocol[] = R"grm(
PATH [a-zA-Z0-9/._-]+
WORD [a-zA-Z0-9/._-]+
%%
msg:  "REQ" path "HDR" hval "END";
path: PATH;
hval: WORD;
%%
)grm";

std::vector<Rule> WebRules() {
  return {
      {"TRAVERSAL", "../", "PATH", 3},
      {"PASSWD", "/etc/passwd", "PATH", 3},
      {"GLOBAL", "forbidden", "", 1},
  };
}

ContextFilter MakeFilter(size_t dfa_cache_bytes) {
  auto g = grammar::ParseGrammar(kProtocol);
  EXPECT_TRUE(g.ok()) << g.status();
  hwgen::HwOptions opt;
  opt.tagger.arm_mode = tagger::ArmMode::kResync;
  if (dfa_cache_bytes != 0) opt.tagger.dfa_cache_bytes = dfa_cache_bytes;
  auto filter = ContextFilter::Create(std::move(g).value(), WebRules(), opt);
  EXPECT_TRUE(filter.ok()) << filter.status();
  return std::move(filter).value();
}

std::string Traffic(int messages, uint64_t seed) {
  Rng rng(seed);
  std::string out;
  for (int i = 0; i < messages; ++i) {
    switch (rng.NextIndex(4)) {
      case 0:
        out += "REQ /a/../../etc/passwd HDR curl END\n";
        break;
      case 1:
        out += "REQ /index.html HDR decoy-/etc/passwd-x END\n";
        break;
      case 2:
        out += "REQ /ok HDR very-forbidden-agent END\n";
        break;
      default:
        out += "REQ /static/" + rng.NextString(8, "abcdefgh") +
               ".html HDR ua END\n";
    }
  }
  return out;
}

// Minimal blocking HTTP/1.0 GET against 127.0.0.1:port; empty on failure.
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

int StressIters() {
  const char* env = std::getenv("CFGTAG_STRESS_ITERS");
  if (env != nullptr && *env != '\0') {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return 2;  // smoke scale: CI runs this under TSan too
}

TEST(ThreadedStressOracleTest, CacheConfigsByteIdenticalUnderLiveObservation) {
  struct Config {
    const char* name;
    ContextFilter filter;
    std::vector<std::vector<Alert>> batch_expected;
    std::vector<Alert> stream_expected;
  };
  std::vector<Config> configs;
  configs.push_back({"lazy", MakeFilter(0), {}, {}});
  // Starvation-sized transition cache: the shared table fills within the
  // first flows, and every worker's streams then fall back to fused steps
  // (dfa_cache_fallback flight events from inside scan threads).
  configs.push_back({"lazy-starved", MakeFilter(1 << 10), {}, {}});

  std::vector<std::string> storage;
  for (uint64_t s = 0; s < 12; ++s) storage.push_back(Traffic(24, s));
  storage.push_back("");  // empty stream rides along
  const std::vector<std::string_view> streams(storage.begin(),
                                              storage.end());
  const std::string big_stream = Traffic(400, 777);

  // Sequential oracle, computed before the storm with attribution off.
  obs::AttributionTable::set_enabled(false);
  for (Config& b : configs) {
    for (const std::string_view s : streams) {
      b.batch_expected.push_back(b.filter.Scan(s));
    }
    b.stream_expected = b.filter.Scan(big_stream);
  }
  ASSERT_FALSE(configs[0].stream_expected.empty());
  for (size_t i = 1; i < configs.size(); ++i) {
    EXPECT_EQ(configs[i].batch_expected, configs[0].batch_expected)
        << configs[i].name << " sequential batch diverged";
    EXPECT_EQ(configs[i].stream_expected, configs[0].stream_expected)
        << configs[i].name << " sequential stream diverged";
  }
  // The alerts derive from the tags: pin those to the reference model.
  for (const Config& b : configs) {
    const core::CompiledTagger& t = b.filter.tagger();
    auto want =
        testing_oracle::OracleTags(t.grammar(), t.options().tagger, big_stream);
    ASSERT_TRUE(want.ok()) << want.status();
    EXPECT_EQ(t.Tag(big_stream), *want)
        << b.name << " tags diverged from the functional reference";
  }

  obs::StatsServer server;
  ASSERT_TRUE(server.Start(0).ok());
  const int port = server.port();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> scrapes{0};
  std::atomic<uint64_t> toggles{0};

  // Continuous scrapers: every observability endpoint, round-robin.
  std::vector<std::thread> observers;
  for (int i = 0; i < 2; ++i) {
    observers.emplace_back([&, i] {
      const char* endpoints[] = {"/metrics", "/events",       "/rules",
                                 "/healthz", "/metrics.json", "/trace.json"};
      size_t k = static_cast<size_t>(i);
      while (!stop.load(std::memory_order_acquire)) {
        const std::string r = HttpGet(port, endpoints[k++ % 6]);
        if (!r.empty()) scrapes.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Mid-scan togglers: attribution on/off plus flight-recorder write +
  // snapshot pressure from outside the scan workers.
  observers.emplace_back([&] {
    bool on = true;
    while (!stop.load(std::memory_order_acquire)) {
      obs::AttributionTable::set_enabled(on);
      on = !on;
      obs::RecordEvent(obs::EventKind::kCustom,
                       static_cast<int64_t>(toggles.load()), 0,
                       "stress toggle");
      (void)obs::FlightRecorder::Default().Snapshot();
      toggles.fetch_add(1, std::memory_order_relaxed);
    }
  });

  const int iters = StressIters();
  for (Config& b : configs) {
    ScanEngineOptions opt;
    opt.num_threads = 4;
    opt.min_shard_bytes = 1024;  // force real sharding on the big stream
    const ScanEngine engine(&b.filter, opt);
    for (int it = 0; it < iters; ++it) {
      const auto results = engine.ScanBatch(streams);
      ASSERT_EQ(results.size(), streams.size()) << b.name;
      for (size_t i = 0; i < results.size(); ++i) {
        ASSERT_EQ(results[i].alerts, b.batch_expected[i])
            << b.name << " iter " << it << " stream " << i;
      }
      const StreamResult sharded = engine.ScanStream(big_stream);
      ASSERT_EQ(sharded.alerts, b.stream_expected)
          << b.name << " iter " << it << " sharded stream";
      ASSERT_EQ(sharded.stats.bytes, big_stream.size()) << b.name;
    }
  }

  stop.store(true, std::memory_order_release);
  for (std::thread& t : observers) t.join();
  server.Stop();
  obs::AttributionTable::set_enabled(false);

  // The storm actually observed something while scans ran.
  EXPECT_GT(scrapes.load(), 0u);
  EXPECT_GT(toggles.load(), 0u);
  // And the observability surfaces are still coherent afterwards.
  const std::vector<obs::Event> events =
      obs::FlightRecorder::Default().Snapshot();
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].seq, events[i].seq);
  }
}

// Chaos leg: the same differential oracle with the fault injector armed at
// random scan-path sites. Faults that degrade (dfa.intern sheds the DFA
// cache, stalls slow workers, budget pressure climbs the ladder) must leave
// the alert streams byte-identical; faults that trip a finite deadline must
// surface as a typed status with sane partial results — and nothing may
// crash, hang, or tear a result vector either way.
TEST(ThreadedStressOracleTest, ChaosFaultsPreserveOrFailCleanly) {
  namespace res = core::resilience;
  auto& injector = res::FaultInjector::Instance();
  injector.DisarmAll();
  res::ResourceBudget::Process().ResetForTest();

  ContextFilter lazy = MakeFilter(0);
  ContextFilter starved = MakeFilter(1 << 10);

  std::vector<std::string> storage;
  for (uint64_t s = 0; s < 8; ++s) storage.push_back(Traffic(24, s + 100));
  const std::vector<std::string_view> streams(storage.begin(),
                                              storage.end());
  const std::string big_stream = Traffic(300, 778);

  obs::AttributionTable::set_enabled(false);
  std::vector<std::vector<Alert>> batch_expected;
  for (const std::string_view s : streams) {
    batch_expected.push_back(lazy.Scan(s));
  }
  const std::vector<Alert> stream_expected = lazy.Scan(big_stream);
  ASSERT_FALSE(stream_expected.empty());

  // Sites that can fire inside a scan, with kinds that only degrade.
  struct Chaos {
    const char* spec;
    bool can_trip_deadline;  // may turn a finite deadline into a trip
  };
  const Chaos kChaos[] = {
      {"dfa.intern:2", false},
      {"scan.chunk:5:1", false},
      {"engine.shard:2:2", false},
      {"dfa.intern:3,scan.chunk:7:1", false},
      {"deadline.clock:3:60000", true},
      {"scan.chunk:2:1,deadline.clock:2:60000", true},
  };

  ScanEngineOptions opt;
  opt.num_threads = 4;
  opt.min_shard_bytes = 1024;
  opt.stuck_shard_seconds = 0;  // stalls here are chaos, not bugs
  const ScanEngine lazy_engine(&lazy, opt);
  const ScanEngine starved_engine(&starved, opt);

  Rng rng(42);
  const int iters = StressIters();
  for (int it = 0; it < iters; ++it) {
    for (const Chaos& chaos : kChaos) {
      ASSERT_TRUE(injector.ArmFromSpec(chaos.spec).ok()) << chaos.spec;
      // Random budget pressure rides along on some rounds: the ladder may
      // shed DFA caches mid-scan without changing alerts.
      const bool pressured = rng.NextIndex(2) == 0;
      if (pressured) {
        res::ResourceBudget::Process().SetLimit(100);
        res::ResourceBudget::Process().Charge(95, "chaos");
      }
      for (const ScanEngine* engine : {&lazy_engine, &starved_engine}) {
        res::ScanControl control;
        control.check_interval_bytes = 2048;
        if (chaos.can_trip_deadline) {
          control.deadline = res::Deadline::AfterMillis(60000);
        }
        std::vector<StreamResult> results;
        const Status batch = engine->ScanBatch(streams, control, &results);
        ASSERT_EQ(results.size(), streams.size()) << chaos.spec;
        if (batch.ok()) {
          for (size_t i = 0; i < results.size(); ++i) {
            ASSERT_EQ(results[i].alerts, batch_expected[i])
                << chaos.spec << " iter " << it << " stream " << i;
          }
        } else {
          ASSERT_TRUE(batch.code() == StatusCode::kDeadlineExceeded ||
                      batch.code() == StatusCode::kCancelled)
              << chaos.spec << ": " << batch;
          for (size_t i = 0; i < results.size(); ++i) {
            for (const Alert& a : results[i].alerts) {
              ASSERT_LT(a.end, streams[i].size()) << chaos.spec;
            }
          }
        }
        StreamResult sharded;
        const Status stream_status =
            engine->ScanStream(big_stream, control, &sharded);
        if (stream_status.ok()) {
          ASSERT_EQ(sharded.alerts, stream_expected)
              << chaos.spec << " iter " << it;
        } else {
          ASSERT_TRUE(stream_status.code() ==
                          StatusCode::kDeadlineExceeded ||
                      stream_status.code() == StatusCode::kCancelled)
              << chaos.spec << ": " << stream_status;
          for (const Alert& a : sharded.alerts) {
            ASSERT_LT(a.end, big_stream.size()) << chaos.spec;
          }
        }
      }
      if (pressured) res::ResourceBudget::Process().ResetForTest();
      injector.DisarmAll();
    }
  }

  // Chaos over: the disarmed engines reproduce the oracle exactly.
  EXPECT_GT(injector.injected(), 0u);
  const std::vector<StreamResult> calm = lazy_engine.ScanBatch(streams);
  for (size_t i = 0; i < calm.size(); ++i) {
    EXPECT_EQ(calm[i].alerts, batch_expected[i]) << "post-chaos stream " << i;
  }
  EXPECT_EQ(lazy_engine.ScanStream(big_stream).alerts, stream_expected);
}

}  // namespace
}  // namespace cfgtag::nids
