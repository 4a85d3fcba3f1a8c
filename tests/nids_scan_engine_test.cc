// ScanEngine: the parallel paths must be byte-identical to the sequential
// ContextFilter::Scan — ScanBatch per stream, ScanStream across resync
// shard boundaries — and deterministic across repeated runs.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "grammar/grammar_parser.h"
#include "nids/context_filter.h"
#include "nids/scan_engine.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "regex/char_class.h"
#include "tagger/lazy_dfa.h"

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

grammar::Grammar Protocol() {
  auto g = grammar::ParseGrammar(kProtocol);
  EXPECT_TRUE(g.ok()) << g.status();
  return std::move(g).value();
}

std::vector<Rule> WebRules() {
  return {
      {"TRAVERSAL", "../", "PATH", 3},
      {"PASSWD", "/etc/passwd", "PATH", 3},
      {"GLOBAL", "forbidden", "", 1},
  };
}

ContextFilter ResyncFilter() {
  hwgen::HwOptions opt;
  opt.tagger.arm_mode = tagger::ArmMode::kResync;
  auto filter = ContextFilter::Create(Protocol(), WebRules(), opt);
  EXPECT_TRUE(filter.ok()) << filter.status();
  return std::move(filter).value();
}

// Multi-message traffic with attacks in paths, decoys in headers, and the
// odd context-free hit.
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

TEST(ScanEngineTest, BatchMatchesSequentialPerStream) {
  const ContextFilter filter = ResyncFilter();
  std::vector<std::string> storage;
  for (uint64_t s = 0; s < 8; ++s) storage.push_back(Traffic(20, s));
  storage.push_back("");  // empty stream rides along
  std::vector<std::string_view> streams(storage.begin(), storage.end());

  ScanEngineOptions opt;
  opt.num_threads = 4;
  const ScanEngine engine(&filter, opt);
  EXPECT_EQ(engine.num_threads(), 4);
  const auto results = engine.ScanBatch(streams);
  ASSERT_EQ(results.size(), streams.size());
  for (size_t i = 0; i < streams.size(); ++i) {
    ScanStats stats;
    EXPECT_EQ(results[i].alerts, filter.Scan(streams[i], &stats))
        << "stream " << i;
    EXPECT_EQ(results[i].stats.bytes, streams[i].size());
    EXPECT_EQ(results[i].stats.alerts, results[i].alerts.size());
  }
}

TEST(ScanEngineTest, EmptyBatch) {
  const ContextFilter filter = ResyncFilter();
  const ScanEngine engine(&filter);
  EXPECT_TRUE(engine.ScanBatch({}).empty());
}

TEST(ScanEngineTest, ShardedStreamMatchesSequential) {
  const ContextFilter filter = ResyncFilter();
  const std::string stream = Traffic(400, 42);
  ScanStats seq_stats;
  const auto sequential = filter.Scan(stream, &seq_stats);
  ASSERT_FALSE(sequential.empty());

  ScanEngineOptions opt;
  opt.num_threads = 4;
  opt.min_shard_bytes = 512;  // force many shards on a small stream
  const ScanEngine engine(&filter, opt);
  const StreamResult result = engine.ScanStream(stream);
  EXPECT_EQ(result.alerts, sequential);
  // Per-shard stats sum back to whole-stream figures — including tokens
  // and spans, which catch dropped tags near shard boundaries that the
  // alert comparison alone can miss (a cut mid-message loses the tail
  // tags of that message even when no alert pattern sits there).
  EXPECT_EQ(result.stats.bytes, stream.size());
  EXPECT_EQ(result.stats.alerts, sequential.size());
  EXPECT_EQ(result.stats.tokens, seq_stats.tokens);
  EXPECT_EQ(result.stats.spans_scanned, seq_stats.spans_scanned);
}

TEST(ScanEngineTest, ShardCutsOnlyAtRecordBoundaries) {
  // Regression: sharding used to cut at ANY tagger delimiter, including
  // the spaces inside a message. A fresh tagger at such a cut has only
  // the start tokens armed — the follow-set arms of the in-flight message
  // are lost, and every remaining token of that message goes untagged.
  // Tiny shards make almost every cut land mid-message unless the planner
  // restricts itself to the record separator.
  const ContextFilter filter = ResyncFilter();
  std::string stream;
  for (int i = 0; i < 64; ++i) {
    // Decoy in the LAST token of each message: if the cut drops tail
    // tags, the span handed to the matcher changes and alerts shift.
    stream += "REQ /a/../b HDR pre-/etc/passwd-";
    stream += std::to_string(i);
    stream += " END\n";
  }
  ScanStats seq_stats;
  const auto sequential = filter.Scan(stream, &seq_stats);

  ScanEngineOptions opt;
  opt.num_threads = 4;
  opt.min_shard_bytes = 16;
  opt.max_shards = 16;
  const ScanEngine engine(&filter, opt);
  const StreamResult result = engine.ScanStream(stream);
  EXPECT_EQ(result.alerts, sequential);
  EXPECT_EQ(result.stats.tokens, seq_stats.tokens);
  EXPECT_EQ(result.stats.spans_scanned, seq_stats.spans_scanned);
}

TEST(ScanEngineTest, NonDelimiterRecordSeparatorFallsBack) {
  // 'Q' appears in message bodies ("REQ"), so cutting on it would split
  // tokens; the engine must notice 'Q' is not a tagger delimiter and
  // refuse to shard rather than produce different alerts.
  const ContextFilter filter = ResyncFilter();
  const std::string stream = Traffic(100, 3);
  ScanEngineOptions opt;
  opt.num_threads = 4;
  opt.min_shard_bytes = 32;
  opt.record_delimiters = regex::CharClass::Of('Q');
  const ScanEngine engine(&filter, opt);
  EXPECT_EQ(engine.ScanStream(stream).alerts, filter.Scan(stream));
}

TEST(ScanEngineTest, ShardedStreamIsDeterministic) {
  const ContextFilter filter = ResyncFilter();
  const std::string stream = Traffic(200, 7);
  ScanEngineOptions opt;
  opt.num_threads = 4;
  opt.min_shard_bytes = 256;
  const ScanEngine engine(&filter, opt);
  const auto first = engine.ScanStream(stream).alerts;
  for (int run = 0; run < 3; ++run) {
    EXPECT_EQ(engine.ScanStream(stream).alerts, first) << "run " << run;
  }
}

TEST(ScanEngineTest, NonResyncFilterFallsBackToSequential) {
  // Anchored mode has no delimiter-boundary guarantee, so ScanStream must
  // not shard — it still has to return the sequential result.
  auto filter = ContextFilter::Create(Protocol(), WebRules());
  ASSERT_TRUE(filter.ok()) << filter.status();
  const std::string msg = "REQ /a/../../etc/passwd HDR curl END";
  ScanEngineOptions opt;
  opt.num_threads = 4;
  opt.min_shard_bytes = 1;
  const ScanEngine engine(&*filter, opt);
  EXPECT_EQ(engine.ScanStream(msg).alerts, filter->Scan(msg));
}

TEST(ScanEngineTest, SmallStreamsAndEmptyStream) {
  const ContextFilter filter = ResyncFilter();
  const ScanEngine engine(&filter);
  EXPECT_TRUE(engine.ScanStream("").alerts.empty());
  const std::string one = "REQ /x/../y HDR ua END\n";
  EXPECT_EQ(engine.ScanStream(one).alerts, filter.Scan(one));
}

// With the slow bound forced to "everything is slow" (any positive elapsed
// time crosses 0.0... but the option requires > 0 to arm, so use a
// denormal-small bound), each worker unit flight-records a kSlowShard
// event carrying its correlation id, and the NIDS alerts raised inside
// that unit carry the same id — a dump ties alert to shard.
TEST(ScanEngineTest, SlowShardEventsCarryTheShardsCorrelationId) {
  obs::FlightRecorder& rec = obs::FlightRecorder::Default();
  const uint64_t recorded_before = rec.total_recorded();

  const ContextFilter filter = ResyncFilter();
  ScanEngineOptions opt;
  opt.num_threads = 2;
  opt.slow_shard_seconds = 1e-12;  // everything is "slow"
  const ScanEngine engine(&filter, opt);
  const std::string attack = "REQ /a/../../etc/passwd HDR curl END\n";
  std::vector<std::string_view> streams{attack, attack};
  engine.ScanBatch(streams);

  std::vector<obs::Event> slow;
  std::vector<obs::Event> alerts;
  for (const obs::Event& e : rec.Snapshot()) {
    if (e.seq <= recorded_before) continue;
    if (e.kind == obs::EventKind::kSlowShard) slow.push_back(e);
    if (e.kind == obs::EventKind::kNidsAlert) alerts.push_back(e);
  }
  ASSERT_EQ(slow.size(), 2u);  // one per stream unit
  EXPECT_NE(slow[0].correlation_id, 0u);
  EXPECT_NE(slow[1].correlation_id, 0u);
  EXPECT_NE(slow[0].correlation_id, slow[1].correlation_id);
  ASSERT_FALSE(alerts.empty());
  for (const obs::Event& a : alerts) {
    EXPECT_TRUE(a.correlation_id == slow[0].correlation_id ||
                a.correlation_id == slow[1].correlation_id)
        << "alert correlation id " << a.correlation_id
        << " matches neither shard";
  }
}

TEST(ScanEngineTest, SlowShardDetectionIsOffByBoundZero) {
  obs::FlightRecorder& rec = obs::FlightRecorder::Default();
  const uint64_t recorded_before = rec.total_recorded();
  const ContextFilter filter = ResyncFilter();
  ScanEngineOptions opt;
  opt.slow_shard_seconds = 0.0;
  const ScanEngine engine(&filter, opt);
  engine.ScanBatch({Traffic(5, 1)});
  for (const obs::Event& e : rec.Snapshot()) {
    if (e.seq <= recorded_before) continue;
    EXPECT_NE(e.kind, obs::EventKind::kSlowShard);
  }
}

std::vector<std::string> ShortFlows(size_t n) {
  std::vector<std::string> flows;
  for (size_t i = 0; i < n; ++i) flows.push_back(Traffic(1, i));
  return flows;
}

// Engine workers hold one pooled session each for their whole share of a
// run, so once a warm-up batch has built both, the next batch creates and
// drops none — however the two workers' scans interleave.
TEST(ScanEngineTest, BatchKeepsItsSessionsWithoutChurn) {
  obs::FlightRecorder& rec = obs::FlightRecorder::Default();
  const ContextFilter filter = ResyncFilter();
  ScanEngineOptions opt;
  opt.num_threads = 2;
  const ScanEngine engine(&filter, opt);
  const std::vector<std::string> flows = ShortFlows(2000);
  const std::vector<std::string_view> streams(flows.begin(), flows.end());
  engine.ScanBatch(streams);

  const tagger::LazyDfaSessionPool& pool =
      filter.tagger().lazy_model()->session_pool();
  const uint64_t created = pool.sessions_created();
  const uint64_t dropped = pool.sessions_dropped();
  const uint64_t recorded_before = rec.total_recorded();
  engine.ScanBatch(streams);
  EXPECT_EQ(pool.sessions_created(), created);
  EXPECT_EQ(pool.sessions_dropped(), dropped);
  for (const obs::Event& e : rec.Snapshot()) {
    if (e.seq <= recorded_before) continue;
    EXPECT_NE(e.kind, obs::EventKind::kSessionPoolDrop) << e.detail;
  }
}

// The per-worker tallies reach the registry exactly: a batch moves every
// scan and tag counter by what a sequential Scan loop over the same flows
// moves it, and each per-flow latency histogram and the pool's task
// counter rise by one per flow.
TEST(ScanEngineTest, BatchAccountingEqualsSequentialScans) {
  const ContextFilter filter = ResyncFilter();
  ScanEngineOptions opt;
  opt.num_threads = 2;
  const ScanEngine engine(&filter, opt);
  const std::vector<std::string> flows = ShortFlows(300);
  const std::vector<std::string_view> streams(flows.begin(), flows.end());
  filter.Scan(streams[0]);  // registers the scan and tag metrics

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  const std::vector<std::string> counters{
      "cfgtag_nids_scans_total",         "cfgtag_nids_bytes_total",
      "cfgtag_nids_tokens_total",        "cfgtag_nids_spans_scanned_total",
      "cfgtag_nids_alerts_total",        "cfgtag_tag_calls_total",
      "cfgtag_tag_bytes_total",          "cfgtag_tag_tokens_total",
      "cfgtag_engine_tasks_total"};
  const std::vector<std::string> histograms{
      "cfgtag_nids_scan_seconds", "cfgtag_tag_seconds",
      "cfgtag_engine_task_seconds"};
  const auto snapshot = [&] {
    std::vector<uint64_t> v;
    for (const std::string& c : counters) v.push_back(reg.GetCounter(c)->Value());
    for (const std::string& h : histograms) {
      v.push_back(reg.GetHistogram(h)->TotalCount());
    }
    return v;
  };

  const std::vector<uint64_t> before = snapshot();
  std::vector<std::vector<Alert>> sequential;
  for (std::string_view s : streams) sequential.push_back(filter.Scan(s));
  const std::vector<uint64_t> mid = snapshot();
  const std::vector<StreamResult> batch = engine.ScanBatch(streams);
  const std::vector<uint64_t> after = snapshot();

  ASSERT_EQ(batch.size(), streams.size());
  for (size_t i = 0; i < streams.size(); ++i) {
    EXPECT_EQ(batch[i].alerts, sequential[i]) << "stream " << i;
  }
  const uint64_t n = streams.size();
  EXPECT_GT(mid[1] - before[1], 0u);  // the flows have bytes
  for (size_t i = 0; i + 1 < counters.size(); ++i) {
    EXPECT_EQ(after[i] - mid[i], mid[i] - before[i]) << counters[i];
  }
  const size_t tasks = counters.size() - 1;
  EXPECT_EQ(mid[tasks] - before[tasks], 0u);
  EXPECT_EQ(after[tasks] - mid[tasks], n);
  for (size_t h = 0; h < histograms.size(); ++h) {
    EXPECT_EQ(after[counters.size() + h] - mid[counters.size() + h], n)
        << histograms[h];
  }
}

}  // namespace
}  // namespace cfgtag::nids
