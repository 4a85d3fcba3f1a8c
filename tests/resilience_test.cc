// The service-resilience layer: deadlines and cancellation must stop a
// scan mid-stream with a well-defined partial result, the resource budget
// must walk its degradation ladder in order (and back down with
// hysteresis), the fault injector must fire only when armed, and the
// hardened artifact loader must fail cleanly under injected I/O faults.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "core/resilience/budget.h"
#include "core/resilience/deadline.h"
#include "core/resilience/fault_injector.h"
#include "core/token_tagger.h"
#include "grammar/grammar_parser.h"
#include "nids/context_filter.h"
#include "nids/scan_engine.h"
#include "tagger/artifact/cache.h"

namespace cfgtag {
namespace {

namespace res = core::resilience;

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

core::CompiledTagger ResyncTagger() {
  hwgen::HwOptions opt;
  opt.tagger.arm_mode = tagger::ArmMode::kResync;
  auto t = core::CompiledTagger::Compile(Protocol(), opt);
  EXPECT_TRUE(t.ok()) << t.status();
  return std::move(t).value();
}

std::string Traffic(int messages) {
  std::string out;
  for (int i = 0; i < messages; ++i) {
    out += "REQ /a/../../etc/passwd HDR curl END\n";
  }
  return out;
}

nids::ContextFilter ResyncFilter() {
  hwgen::HwOptions opt;
  opt.tagger.arm_mode = tagger::ArmMode::kResync;
  std::vector<nids::Rule> rules = {
      {"TRAVERSAL", "../", "PATH", 3},
      {"GLOBAL", "forbidden", "", 1},
  };
  auto filter = nids::ContextFilter::Create(Protocol(), rules, opt);
  EXPECT_TRUE(filter.ok()) << filter.status();
  return std::move(filter).value();
}

// The injector and the budget are process-wide; every test starts and ends
// from the pristine state so suites cannot poison each other.
class ResilienceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    res::FaultInjector::Instance().DisarmAll();
    res::ResourceBudget::Process().ResetForTest();
  }
  void TearDown() override {
    res::FaultInjector::Instance().DisarmAll();
    res::ResourceBudget::Process().ResetForTest();
  }
};

// --- Deadline / CancelToken basics ----------------------------------------

TEST_F(ResilienceTest, DefaultControlIsInert) {
  res::ScanControl control;
  EXPECT_TRUE(control.deadline.infinite());
  EXPECT_FALSE(control.cancel.cancelled());
  EXPECT_TRUE(control.Check().ok());
}

TEST_F(ResilienceTest, ExpiredDeadlineTripsCheck) {
  res::ScanControl control;
  control.deadline = res::Deadline::AfterMillis(-1);
  const Status s = control.Check();
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded) << s;
}

TEST_F(ResilienceTest, CancelBeatsDeadline) {
  res::ScanControl control;
  control.deadline = res::Deadline::AfterMillis(-1);
  control.cancel = res::CancelToken();
  control.cancel.Cancel();
  // An explicit cancel wins over a timeout when both hold.
  EXPECT_EQ(control.Check().code(), StatusCode::kCancelled);
}

TEST_F(ResilienceTest, ChildTokenTripsOnParentCancel) {
  res::CancelToken parent;
  const res::CancelToken child = parent.Child();
  EXPECT_FALSE(child.cancelled());
  parent.Cancel();
  EXPECT_TRUE(child.cancelled());
  // ...but not the other way around.
  res::CancelToken parent2;
  const res::CancelToken child2 = parent2.Child();
  child2.Cancel();
  EXPECT_TRUE(child2.cancelled());
  EXPECT_FALSE(parent2.cancelled());
}

TEST_F(ResilienceTest, InertTokenNeverCancels) {
  const res::CancelToken none = res::CancelToken::None();
  none.Cancel();
  EXPECT_FALSE(none.cancelled());
}

// --- Fault injector -------------------------------------------------------

TEST_F(ResilienceTest, DisarmedHooksAreInert) {
  EXPECT_FALSE(res::FaultInjector::ShouldFail("artifact.mmap"));
  EXPECT_EQ(res::FaultInjector::ClockSkew("deadline.clock").count(), 0);
}

TEST_F(ResilienceTest, UnknownSiteIsRejected) {
  auto& fi = res::FaultInjector::Instance();
  EXPECT_FALSE(fi.Arm("no.such.site").ok());
  // A bad entry anywhere in a spec arms nothing at all.
  EXPECT_FALSE(fi.ArmFromSpec("artifact.mmap,no.such.site").ok());
  EXPECT_FALSE(res::FaultInjector::ShouldFail("artifact.mmap"));
}

TEST_F(ResilienceTest, PeriodFiresEveryNth) {
  auto& fi = res::FaultInjector::Instance();
  ASSERT_TRUE(fi.Arm("dfa.intern", /*period=*/3).ok());
  const uint64_t before = fi.injected_at("dfa.intern");
  int fired = 0;
  for (int i = 0; i < 9; ++i) {
    if (res::FaultInjector::ShouldFail("dfa.intern")) ++fired;
  }
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(fi.injected_at("dfa.intern") - before, 3u);
  fi.DisarmAll();
  EXPECT_FALSE(res::FaultInjector::ShouldFail("dfa.intern"));
}

TEST_F(ResilienceTest, SpecParsesPeriodAndArg) {
  auto& fi = res::FaultInjector::Instance();
  ASSERT_TRUE(fi.ArmFromSpec("deadline.clock:1:2000,artifact.open:2").ok());
  EXPECT_GE(res::FaultInjector::ClockSkew("deadline.clock"),
            std::chrono::milliseconds(2000));
  EXPECT_FALSE(res::FaultInjector::ShouldFail("artifact.open"));
  EXPECT_TRUE(res::FaultInjector::ShouldFail("artifact.open"));
}

// --- Controlled tagging ---------------------------------------------------

TEST_F(ResilienceTest, ControlledTagMatchesPlainTagWhenInert) {
  const core::CompiledTagger tagger = ResyncTagger();
  const std::string input = Traffic(200);
  const std::vector<tagger::Tag> plain = tagger.Tag(input);
  std::vector<tagger::Tag> controlled;
  uint64_t consumed = 0;
  const Status s = tagger.TagWithControl(
      input,
      [&](const tagger::Tag& t) {
        controlled.push_back(t);
        return true;
      },
      res::ScanControl{}, nullptr, &consumed);
  ASSERT_TRUE(s.ok()) << s;
  EXPECT_EQ(consumed, input.size());
  ASSERT_EQ(controlled.size(), plain.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(controlled[i].token, plain[i].token);
    EXPECT_EQ(controlled[i].end, plain[i].end);
  }
}

TEST_F(ResilienceTest, DeadlineMidStreamYieldsPartialTags) {
  const core::CompiledTagger tagger = ResyncTagger();
  const std::string input = Traffic(2000);
  // Deterministic expiry without wall-clock waiting: a one-minute deadline
  // plus an armed clock skew that jumps the observed clock two minutes
  // forward on the second check. The first chunk feeds; the second check
  // trips.
  ASSERT_TRUE(res::FaultInjector::Instance()
                  .Arm("deadline.clock", /*period=*/2, /*arg_ms=*/120000)
                  .ok());
  res::ScanControl control;
  control.deadline = res::Deadline::AfterMillis(60000);
  control.check_interval_bytes = 1024;
  std::vector<tagger::Tag> tags;
  std::atomic<uint64_t> progress{0};
  uint64_t consumed = 0;
  const Status s = tagger.TagWithControl(
      input,
      [&](const tagger::Tag& t) {
        tags.push_back(t);
        return true;
      },
      control, &progress, &consumed);
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded) << s;
  EXPECT_GT(consumed, 0u);
  EXPECT_LT(consumed, input.size());
  EXPECT_EQ(progress.load(), consumed);
  // The partial tags describe exactly the consumed prefix.
  EXPECT_FALSE(tags.empty());
  for (const tagger::Tag& t : tags) EXPECT_LT(t.end, consumed);
}

TEST_F(ResilienceTest, CrossThreadCancellationStopsScan) {
  const core::CompiledTagger tagger = ResyncTagger();
  const std::string input = Traffic(2000);
  // Each 1 KiB chunk stalls 5 ms, so the full scan would take seconds;
  // the canceller fires after ~25 ms and must cut it short.
  ASSERT_TRUE(res::FaultInjector::Instance()
                  .Arm("scan.chunk", /*period=*/1, /*arg_ms=*/5)
                  .ok());
  res::ScanControl control;
  control.cancel = res::CancelToken();
  control.check_interval_bytes = 1024;
  std::thread canceller([&control] {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    control.cancel.Cancel();
  });
  std::vector<tagger::Tag> tags;
  uint64_t consumed = 0;
  const Status s = tagger.TagWithControl(
      input,
      [&](const tagger::Tag& t) {
        tags.push_back(t);
        return true;
      },
      control, nullptr, &consumed);
  canceller.join();
  EXPECT_EQ(s.code(), StatusCode::kCancelled) << s;
  EXPECT_GT(consumed, 0u);
  EXPECT_LT(consumed, input.size());
}

// --- Controlled ContextFilter / ScanEngine --------------------------------

TEST_F(ResilienceTest, ControlledFilterScanMatchesFastScan) {
  const nids::ContextFilter filter = ResyncFilter();
  const std::string stream = Traffic(100) + "REQ /ok HDR forbidden END\n";
  const std::vector<nids::Alert> fast = filter.Scan(stream);
  std::vector<nids::Alert> controlled;
  const Status s =
      filter.Scan(stream, res::ScanControl{}, &controlled);
  ASSERT_TRUE(s.ok()) << s;
  EXPECT_EQ(controlled, fast);
}

TEST_F(ResilienceTest, ControlledScanBatchReportsFailingShards) {
  const nids::ContextFilter filter = ResyncFilter();
  const nids::ScanEngine engine(&filter);
  const std::string stream = Traffic(50);
  std::vector<std::string_view> streams(4, stream);
  res::ScanControl control;
  control.cancel = res::CancelToken();
  control.cancel.Cancel();  // cancelled before it starts: every shard trips
  std::vector<nids::StreamResult> results;
  const Status s = engine.ScanBatch(streams, control, &results);
  EXPECT_EQ(s.code(), StatusCode::kCancelled) << s;
  EXPECT_NE(s.ToString().find("ScanBatch"), std::string::npos) << s;
  EXPECT_NE(s.ToString().find("shard"), std::string::npos) << s;
  ASSERT_EQ(results.size(), streams.size());
  for (const nids::StreamResult& r : results) EXPECT_TRUE(r.alerts.empty());
}

TEST_F(ResilienceTest, ControlledScanBatchMatchesUncontrolled) {
  const nids::ContextFilter filter = ResyncFilter();
  const nids::ScanEngine engine(&filter);
  std::vector<std::string> storage;
  for (int i = 1; i <= 6; ++i) storage.push_back(Traffic(10 * i));
  std::vector<std::string_view> streams(storage.begin(), storage.end());
  const std::vector<nids::StreamResult> plain = engine.ScanBatch(streams);
  std::vector<nids::StreamResult> controlled;
  const Status s =
      engine.ScanBatch(streams, res::ScanControl{}, &controlled);
  ASSERT_TRUE(s.ok()) << s;
  ASSERT_EQ(controlled.size(), plain.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(controlled[i].alerts, plain[i].alerts) << "stream " << i;
  }
}

TEST_F(ResilienceTest, WatchdogDeclaresStuckShard) {
  const nids::ContextFilter filter = ResyncFilter();
  nids::ScanEngineOptions opt;
  opt.stuck_shard_seconds = 0.05;
  const nids::ScanEngine engine(&filter, opt);
  // Every shard stalls 500 ms at its start — no byte progress for 10x the
  // stuck threshold, so the watchdog must fire, cancel the siblings, and
  // name the stuck shard instead of blocking on the join.
  ASSERT_TRUE(res::FaultInjector::Instance()
                  .Arm("engine.shard", /*period=*/1, /*arg_ms=*/500)
                  .ok());
  const std::string stream = Traffic(50);
  std::vector<std::string_view> streams(2, stream);
  res::ScanControl control;
  control.check_interval_bytes = 1024;
  std::vector<nids::StreamResult> results;
  const auto t0 = std::chrono::steady_clock::now();
  const Status s = engine.ScanBatch(streams, control, &results);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("stuck"), std::string::npos) << s;
  // The batch still completes promptly once the stall releases.
  EXPECT_LT(elapsed, std::chrono::seconds(30));
}

// --- Resource budget ladder -----------------------------------------------

TEST_F(ResilienceTest, LadderClimbsInOrderAndRecovers) {
  auto& budget = res::ResourceBudget::Process();
  budget.SetLimit(1000);
  EXPECT_EQ(budget.rung(), res::DegradationRung::kNone);

  budget.Charge(850, "test");  // 85%
  EXPECT_EQ(budget.rung(), res::DegradationRung::kShedDfa);
  EXPECT_TRUE(budget.ShouldShedDfa());
  EXPECT_FALSE(budget.ShouldTrimPools());

  budget.Charge(100, "test");  // 95%
  EXPECT_EQ(budget.rung(), res::DegradationRung::kTrimPools);
  EXPECT_TRUE(budget.ShouldShedDfa());
  EXPECT_TRUE(budget.ShouldTrimPools());
  EXPECT_FALSE(budget.ArtifactCacheReadOnly());

  budget.Charge(50, "test");  // 100%
  EXPECT_EQ(budget.rung(), res::DegradationRung::kArtifactReadOnly);
  EXPECT_TRUE(budget.ArtifactCacheReadOnly());

  // Hysteresis: dropping to 92% is not enough to leave kArtifactReadOnly's
  // neighborhood cleanly... 92% is below 95% - 5 = 90%? No: 92% >= 90%
  // keeps kTrimPools pinned once reached. Drop far below every band and
  // the ladder must fully release.
  budget.Release(920);  // 8%
  EXPECT_EQ(budget.rung(), res::DegradationRung::kNone);
  EXPECT_FALSE(budget.ShouldShedDfa());

  budget.Release(80);
  EXPECT_EQ(budget.used(), 0u);
}

TEST_F(ResilienceTest, LadderHoldsUnderHysteresis) {
  auto& budget = res::ResourceBudget::Process();
  budget.SetLimit(1000);
  budget.Charge(860, "test");  // 86% -> kShedDfa
  EXPECT_EQ(budget.rung(), res::DegradationRung::kShedDfa);
  budget.Release(30);  // 83% — above 80% (85 - 5): the rung must hold
  EXPECT_EQ(budget.rung(), res::DegradationRung::kShedDfa);
  budget.Release(50);  // 78% — below the hysteresis band: released
  EXPECT_EQ(budget.rung(), res::DegradationRung::kNone);
}

TEST_F(ResilienceTest, TryChargeDeniesOverLimit) {
  auto& budget = res::ResourceBudget::Process();
  budget.SetLimit(100);
  EXPECT_TRUE(budget.TryCharge(60, "test").ok());
  const Status denied = budget.TryCharge(60, "test");
  EXPECT_EQ(denied.code(), StatusCode::kResourceExhausted) << denied;
  // A denial means the pressure is real: the ladder pins at the top.
  EXPECT_TRUE(budget.ArtifactCacheReadOnly());
  EXPECT_EQ(budget.used(), 60u);  // the denied charge was not recorded
  budget.Release(60);
}

TEST_F(ResilienceTest, UnlimitedBudgetNeverDegrades) {
  auto& budget = res::ResourceBudget::Process();
  budget.Charge(1ull << 40, "test");
  EXPECT_EQ(budget.rung(), res::DegradationRung::kNone);
  EXPECT_TRUE(budget.TryCharge(1ull << 40, "test").ok());
}

TEST_F(ResilienceTest, ScopedChargeReleasesOnDestruction) {
  auto& budget = res::ResourceBudget::Process();
  budget.SetLimit(1000);
  {
    res::ScopedCharge charge("test");
    charge.Add(500);
    EXPECT_EQ(budget.used(), 500u);
    res::ScopedCharge moved = std::move(charge);
    EXPECT_EQ(moved.held(), 500u);
    EXPECT_EQ(charge.held(), 0u);  // NOLINT(bugprone-use-after-move)
  }
  EXPECT_EQ(budget.used(), 0u);
}

TEST_F(ResilienceTest, BudgetPressureShedsLazyDfa) {
  // A tiny budget forces kShedDfa before the lazy DFA interns much; the
  // scan must still produce correct tags via the fused fallback.
  auto& budget = res::ResourceBudget::Process();
  hwgen::HwOptions opt;
  opt.tagger.arm_mode = tagger::ArmMode::kResync;
  auto t = core::CompiledTagger::Compile(Protocol(), opt);
  ASSERT_TRUE(t.ok()) << t.status();
  const std::string input = Traffic(50);
  const std::vector<tagger::Tag> expected = t->Tag(input);

  budget.SetLimit(100);
  budget.Charge(95, "test");  // pin the ladder at kTrimPools
  ASSERT_TRUE(budget.ShouldShedDfa());
  const std::vector<tagger::Tag> shed = t->Tag(input);
  ASSERT_EQ(shed.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(shed[i].token, expected[i].token);
    EXPECT_EQ(shed[i].end, expected[i].end);
  }
  budget.Release(95);
}

// --- Hardened artifact loading --------------------------------------------

class ArtifactFixture : public ResilienceTest {
 protected:
  void SetUp() override {
    ResilienceTest::SetUp();
    path_ = ::testing::TempDir() + "/resilience_artifact.cfgtag";
    hwgen::HwOptions opt;
    opt.tagger.arm_mode = tagger::ArmMode::kResync;
    auto t = core::CompiledTagger::Compile(Protocol(), opt);
    ASSERT_TRUE(t.ok()) << t.status();
    auto bytes = t->Serialize();
    ASSERT_TRUE(bytes.ok()) << bytes.status();
    ASSERT_TRUE(tagger::artifact::AtomicWriteFile(path_, *bytes).ok());
  }
  void TearDown() override {
    std::remove(path_.c_str());
    ResilienceTest::TearDown();
  }
  std::string path_;
};

TEST_F(ArtifactFixture, CopiedLoadMatchesMappedLoad) {
  auto mapped = core::CompiledTagger::LoadArtifact(path_);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  auto copied = core::CompiledTagger::LoadArtifactCopied(path_);
  ASSERT_TRUE(copied.ok()) << copied.status();
  const std::string input = Traffic(20);
  const std::vector<tagger::Tag> a = mapped->Tag(input);
  const std::vector<tagger::Tag> b = copied->Tag(input);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].token, b[i].token);
    EXPECT_EQ(a[i].end, b[i].end);
  }
}

TEST_F(ArtifactFixture, InjectedIoFaultsFailCleanly) {
  auto& fi = res::FaultInjector::Instance();
  for (const char* site : {"artifact.open", "artifact.fstat"}) {
    ASSERT_TRUE(fi.Arm(site).ok()) << site;
    auto loaded = core::CompiledTagger::LoadArtifact(path_);
    EXPECT_FALSE(loaded.ok()) << "site " << site << " did not fire";
    fi.DisarmAll();
  }
  // An mmap failure is not fatal: the loader degrades to the aligned-copy
  // read path and the load still succeeds — but the fault must have fired.
  ASSERT_TRUE(fi.Arm("artifact.mmap").ok());
  const uint64_t before = fi.injected_at("artifact.mmap");
  EXPECT_TRUE(core::CompiledTagger::LoadArtifact(path_).ok());
  EXPECT_GT(fi.injected_at("artifact.mmap"), before);
  fi.DisarmAll();
  // The read()-based loader has its own fault site.
  ASSERT_TRUE(fi.Arm("artifact.read").ok());
  EXPECT_FALSE(core::CompiledTagger::LoadArtifactCopied(path_).ok());
  fi.DisarmAll();
  // Faults released: both loaders recover.
  EXPECT_TRUE(core::CompiledTagger::LoadArtifact(path_).ok());
  EXPECT_TRUE(core::CompiledTagger::LoadArtifactCopied(path_).ok());
}

TEST_F(ArtifactFixture, BudgetDenialRefusesLoad) {
  auto& budget = res::ResourceBudget::Process();
  budget.SetLimit(16);  // far below any artifact's size
  const auto loaded = core::CompiledTagger::LoadArtifact(path_);
  EXPECT_EQ(loaded.status().code(), StatusCode::kResourceExhausted)
      << loaded.status();
  budget.ResetForTest();
  EXPECT_TRUE(core::CompiledTagger::LoadArtifact(path_).ok());
}

}  // namespace
}  // namespace cfgtag
