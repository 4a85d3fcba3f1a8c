#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "core/hardware_design.h"
#include "core/token_tagger.h"
#include "grammar/grammar_parser.h"
#include "obs/metrics.h"

namespace cfgtag::obs {
namespace {

TEST(CounterTest, MonotonicIncrement) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(CounterTest, ConcurrentIncrementsAllLand) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&c] {
      for (int j = 0; j < kPerThread; ++j) c.Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.Value(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  g.Set(2.5);
  EXPECT_DOUBLE_EQ(g.Value(), 2.5);
  g.Add(-1.0);
  EXPECT_DOUBLE_EQ(g.Value(), 1.5);
}

TEST(HistogramTest, BucketBoundariesAreLessOrEqual) {
  Histogram h({1.0, 10.0, 100.0});
  h.Observe(0.5);    // <= 1        -> bucket 0
  h.Observe(1.0);    // == bound 1  -> bucket 0 (le semantics)
  h.Observe(1.0001); //             -> bucket 1
  h.Observe(10.0);   // == bound 10 -> bucket 1
  h.Observe(100.0);  //             -> bucket 2
  h.Observe(1e6);    // above all   -> +Inf bucket
  EXPECT_EQ(h.BucketCount(0), 2u);
  EXPECT_EQ(h.BucketCount(1), 2u);
  EXPECT_EQ(h.BucketCount(2), 1u);
  EXPECT_EQ(h.BucketCount(3), 1u);  // +Inf
  EXPECT_EQ(h.TotalCount(), 6u);
  EXPECT_NEAR(h.Sum(), 0.5 + 1.0 + 1.0001 + 10.0 + 100.0 + 1e6, 1e-9);
}

TEST(HistogramTest, NegativeAndZeroObservations) {
  Histogram h({0.0, 1.0});
  h.Observe(-5.0);
  h.Observe(0.0);
  h.Observe(0.5);
  EXPECT_EQ(h.BucketCount(0), 2u);  // -5 and 0 are both <= 0
  EXPECT_EQ(h.BucketCount(1), 1u);
  EXPECT_EQ(h.TotalCount(), 3u);
}

// A tally merged once gives the histogram the same buckets and count as
// one Observe per value, and the same sum up to rounding; Merge empties
// the tally, so a second merge adds nothing.
TEST(HistogramTest, MergedTallyMatchesDirectObservations) {
  Histogram direct(DefaultLatencyBuckets());
  Histogram merged(DefaultLatencyBuckets());
  HistogramTally tally(&merged);
  std::vector<double> values{-1.0, 0.0, 1e-6, 2.5e-6, 3e-6, 1e-3, 10.0, 1e3};
  for (int i = 0; i < 1000; ++i) values.push_back(1e-7 * (i * i % 977 + 1));
  for (double v : values) {
    direct.Observe(v);
    tally.Observe(v);
  }
  EXPECT_EQ(merged.TotalCount(), 0u);  // nothing lands before the merge
  tally.Merge();
  tally.Merge();
  ASSERT_EQ(merged.bounds().size(), direct.bounds().size());
  for (size_t i = 0; i <= direct.bounds().size(); ++i) {
    EXPECT_EQ(merged.BucketCount(i), direct.BucketCount(i)) << "bucket " << i;
  }
  EXPECT_EQ(merged.TotalCount(), direct.TotalCount());
  EXPECT_NEAR(merged.Sum(), direct.Sum(), 1e-12 * std::abs(direct.Sum()));
}

TEST(RegistryTest, StablePointersAndIdempotentLookup) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("x_total");
  Counter* b = reg.GetCounter("x_total");
  EXPECT_EQ(a, b);
  a->Increment();
  EXPECT_EQ(b->Value(), 1u);
}

TEST(RegistryTest, ExpositionFormat) {
  MetricsRegistry reg;
  reg.GetCounter("cfgtag_demo_total", "A demo counter")->Increment(3);
  reg.GetGauge("cfgtag_demo_gauge")->Set(1.5);
  Histogram* h = reg.GetHistogram("cfgtag_demo_seconds", "Latency",
                                  std::vector<double>{0.1, 1.0});
  h->Observe(0.05);
  h->Observe(0.5);
  h->Observe(5.0);

  const std::string text = reg.ExpositionText();
  EXPECT_NE(text.find("# HELP cfgtag_demo_total A demo counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE cfgtag_demo_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("cfgtag_demo_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE cfgtag_demo_gauge gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("cfgtag_demo_gauge 1.5\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE cfgtag_demo_seconds histogram\n"),
            std::string::npos);
  // Bucket counts are cumulative: 1, 2, 3.
  EXPECT_NE(text.find("cfgtag_demo_seconds_bucket{le=\"0.1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("cfgtag_demo_seconds_bucket{le=\"1\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("cfgtag_demo_seconds_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("cfgtag_demo_seconds_count 3\n"), std::string::npos);
  EXPECT_NE(text.find("cfgtag_demo_seconds_sum"), std::string::npos);
}

TEST(RegistryTest, LabelledHistogramExposition) {
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram(
      "cfgtag_stage_seconds{stage=\"hwgen\"}", "",
      std::vector<double>{1.0});
  h->Observe(0.5);
  const std::string text = reg.ExpositionText();
  // The le label merges with the metric's own labels.
  EXPECT_NE(
      text.find("cfgtag_stage_seconds_bucket{stage=\"hwgen\",le=\"1\"} 1\n"),
      std::string::npos);
  EXPECT_NE(text.find("cfgtag_stage_seconds_sum{stage=\"hwgen\"}"),
            std::string::npos);
  EXPECT_NE(text.find("cfgtag_stage_seconds_count{stage=\"hwgen\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE cfgtag_stage_seconds histogram\n"),
            std::string::npos);
}

TEST(RegistryTest, ExpositionEscapesLabelValues) {
  MetricsRegistry reg;
  // Label values carried inline in metric names may contain the three
  // characters the exposition format requires escaping: backslash, double
  // quote, newline.
  reg.GetCounter("cfgtag_path_total{path=\"C:\\temp\"}")->Increment();
  reg.GetGauge("cfgtag_name_gauge{name=\"say \"hi\"\"}")->Set(1);
  reg.GetCounter("cfgtag_nl_total{text=\"a\nb\"}")->Increment(2);

  const std::string text = reg.ExpositionText();
  EXPECT_NE(text.find("cfgtag_path_total{path=\"C:\\\\temp\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("cfgtag_name_gauge{name=\"say \\\"hi\\\"\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("cfgtag_nl_total{text=\"a\\nb\"} 2\n"),
            std::string::npos);
  // No raw newline survives inside any sample line's label block.
  for (size_t pos = text.find('{'); pos != std::string::npos;
       pos = text.find('{', pos + 1)) {
    const size_t close = text.find('}', pos);
    ASSERT_NE(close, std::string::npos);
    EXPECT_EQ(text.substr(pos, close - pos).find('\n'), std::string::npos);
  }
}

TEST(RegistryTest, ExpositionEscapesLabelsInHistogramSeries) {
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("cfgtag_h_seconds{dir=\"a\\b\"}", "",
                                  std::vector<double>{1.0});
  h->Observe(0.5);
  const std::string text = reg.ExpositionText();
  EXPECT_NE(text.find("cfgtag_h_seconds_bucket{dir=\"a\\\\b\",le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("cfgtag_h_seconds_sum{dir=\"a\\\\b\"}"),
            std::string::npos);
}

TEST(RegistryTest, ExpositionEscapesHelpText) {
  MetricsRegistry reg;
  reg.GetCounter("cfgtag_help_total", "line one\nwith a \\ backslash")
      ->Increment();
  const std::string text = reg.ExpositionText();
  EXPECT_NE(
      text.find(
          "# HELP cfgtag_help_total line one\\nwith a \\\\ backslash\n"),
      std::string::npos);
}

TEST(RegistryTest, JsonExport) {
  MetricsRegistry reg;
  reg.GetCounter("a_total")->Increment(7);
  reg.GetGauge("b")->Set(2.0);
  reg.GetHistogram("c_seconds", "", std::vector<double>{1.0})->Observe(0.5);
  const std::string json = reg.ToJson();
  EXPECT_NE(json.find("\"a_total\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"b\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"c_seconds\": {\"count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

TEST(RegistryTest, EmptyRegistryExportsCleanly) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.ExpositionText(), "");
  EXPECT_NE(reg.ToJson().find("\"counters\": {}"), std::string::npos);
}

// End-to-end: compiling a grammar populates the default registry with the
// compile-stage metrics every later perf PR will diff; the netlist gauges
// and the hwgen stage follow once a hardware call generates the netlist.
TEST(InstrumentationTest, CompilePopulatesDefaultRegistry) {
  auto grammar = grammar::ParseGrammar(R"grm(
%%
greeting: "hello" | "bye";
%%
)grm");
  ASSERT_TRUE(grammar.ok()) << grammar.status();
  const uint64_t before =
      MetricsRegistry::Default().GetCounter("cfgtag_compile_total")->Value();
  auto tagger = core::CompiledTagger::Compile(std::move(grammar).value());
  ASSERT_TRUE(tagger.ok()) << tagger.status();
  EXPECT_EQ(
      MetricsRegistry::Default().GetCounter("cfgtag_compile_total")->Value(),
      before + 1);

  const uint64_t bytes_before =
      MetricsRegistry::Default().GetCounter("cfgtag_tag_bytes_total")->Value();
  (void)tagger->Tag("hello bye");
  EXPECT_EQ(MetricsRegistry::Default()
                .GetCounter("cfgtag_tag_bytes_total")
                ->Value(),
            bytes_before + 9);

  auto design = core::HardwareDesign::Create(tagger->grammar());
  ASSERT_TRUE(design.ok()) << design.status();
  EXPECT_GT(
      MetricsRegistry::Default().GetGauge("cfgtag_compile_gates")->Value(),
      0.0);
  const std::string text = MetricsRegistry::Default().ExpositionText();
  EXPECT_NE(text.find("cfgtag_compile_stage_seconds_bucket{stage=\"hwgen\""),
            std::string::npos);
  EXPECT_NE(text.find("cfgtag_compile_seconds_count"), std::string::npos);
}

}  // namespace
}  // namespace cfgtag::obs
