#include "obs/metrics.h"

#include <cassert>
#include <cstdio>
#include <set>

namespace cfgtag::obs {

namespace {

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

// Splits "base{labels}" into its parts; labels comes back empty when the
// name carries none.
void SplitName(const std::string& name, std::string* base,
               std::string* labels) {
  const size_t brace = name.find('{');
  if (brace == std::string::npos) {
    *base = name;
    labels->clear();
    return;
  }
  *base = name.substr(0, brace);
  // Keep the label body without the surrounding braces.
  size_t end = name.rfind('}');
  if (end == std::string::npos || end <= brace) end = name.size();
  *labels = name.substr(brace + 1, end - brace - 1);
}

// Prometheus text-format escaping for a HELP line: backslash and newline
// only (the spec leaves everything else literal).
std::string EscapeHelp(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

// Escapes the label *values* inside a `key="value",key2="value2"` body per
// the text-format spec: backslash -> \\, quote -> \", newline -> \n.
// Values arrive raw (callers build names by splicing strings between `="`
// and `"`), so a quote inside a value is only treated as the closing quote
// when the body ends or a ',' follows — the one ambiguous case, `",` as
// literal value content, is misread, which is the price of carrying labels
// inline in the metric name.
std::string EscapeLabelBody(const std::string& body) {
  std::string out;
  out.reserve(body.size() + 8);
  bool in_value = false;
  for (size_t i = 0; i < body.size(); ++i) {
    const char c = body[i];
    if (!in_value) {
      out += c;
      if (c == '"') in_value = true;
      continue;
    }
    if (c == '"') {
      if (i + 1 == body.size() || body[i + 1] == ',') {
        out += '"';
        in_value = false;
      } else {
        out += "\\\"";
      }
    } else if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

void AddToSum(std::atomic<double>& sum, double delta) {
  double cur = sum.load(std::memory_order_relaxed);
  while (!sum.compare_exchange_weak(cur, cur + delta,
                                    std::memory_order_relaxed)) {
  }
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  for (size_t i = 1; i < bounds_.size(); ++i) {
    assert(bounds_[i - 1] < bounds_[i] && "bucket bounds must increase");
  }
}

size_t Histogram::BucketIndex(double value) const {
  size_t lo = 0, hi = bounds_.size();
  while (lo < hi) {  // first bound with value <= bound
    const size_t mid = (lo + hi) / 2;
    if (value <= bounds_[mid]) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

void Histogram::Observe(double value) {
  buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AddToSum(sum_, value);
}

void HistogramTally::Merge() {
  if (count_ == 0) return;
  // Stops after the last non-empty bucket: a latency tally's counts sit
  // in its first few buckets.
  for (size_t i = 0, left = count_; left != 0; ++i) {
    if (buckets_[i] == 0) continue;
    target_->buckets_[i].fetch_add(buckets_[i], std::memory_order_relaxed);
    left -= buckets_[i];
    buckets_[i] = 0;
  }
  target_->count_.fetch_add(count_, std::memory_order_relaxed);
  AddToSum(target_->sum_, sum_);
  count_ = 0;
  sum_ = 0.0;
}

const std::vector<double>& DefaultLatencyBuckets() {
  static const std::vector<double>* const kBuckets = new std::vector<double>{
      1e-6,   2.5e-6, 5e-6,   1e-5,   2.5e-5, 5e-5,   1e-4,   2.5e-4,
      5e-4,   1e-3,   2.5e-3, 5e-3,   1e-2,   2.5e-2, 5e-2,   1e-1,
      2.5e-1, 5e-1,   1.0,    2.5,    5.0,    10.0};
  return *kBuckets;
}

const std::vector<double>& DefaultSizeBuckets() {
  static const std::vector<double>* const kBuckets = new std::vector<double>{
      64,      256,     1024,    4096,     16384,    65536,
      262144,  1048576, 4194304, 16777216};
  return *kBuckets;
}

const std::vector<double>& DefaultCountBuckets() {
  static const std::vector<double>* const kBuckets = new std::vector<double>{
      1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096};
  return *kBuckets;
}

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  assert(gauges_.find(name) == gauges_.end() &&
         histograms_.find(name) == histograms_.end() &&
         "metric registered with a different kind");
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(name, std::make_unique<Counter>()).first;
    if (!help.empty()) help_.emplace(name, std::string(help));
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  assert(counters_.find(name) == counters_.end() &&
         histograms_.find(name) == histograms_.end() &&
         "metric registered with a different kind");
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(name, std::make_unique<Gauge>()).first;
    if (!help.empty()) help_.emplace(name, std::string(help));
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         std::string_view help,
                                         const std::vector<double>& bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  assert(counters_.find(name) == counters_.end() &&
         gauges_.find(name) == gauges_.end() &&
         "metric registered with a different kind");
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(name, std::make_unique<Histogram>(bounds)).first;
    if (!help.empty()) help_.emplace(name, std::string(help));
  }
  return it->second.get();
}

std::string MetricsRegistry::ExpositionText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  std::set<std::string> headered;

  auto emit_header = [&](const std::string& name, const std::string& base,
                         const char* type) {
    if (!headered.insert(base).second) return;
    auto help = help_.find(name);
    if (help != help_.end()) {
      out += "# HELP " + base + " " + EscapeHelp(help->second) + "\n";
    }
    out += "# TYPE " + base + " " + type + "\n";
  };
  auto series_name = [](const std::string& base, const std::string& labels) {
    return labels.empty() ? base
                          : base + "{" + EscapeLabelBody(labels) + "}";
  };

  std::string base, labels;
  for (const auto& [name, counter] : counters_) {
    SplitName(name, &base, &labels);
    emit_header(name, base, "counter");
    out += series_name(base, labels) + " " +
           std::to_string(counter->Value()) + "\n";
  }
  for (const auto& [name, gauge] : gauges_) {
    SplitName(name, &base, &labels);
    emit_header(name, base, "gauge");
    out += series_name(base, labels) + " " + FormatDouble(gauge->Value()) +
           "\n";
  }
  for (const auto& [name, hist] : histograms_) {
    SplitName(name, &base, &labels);
    emit_header(name, base, "histogram");
    if (!labels.empty()) labels = EscapeLabelBody(labels);
    const std::string prefix = labels.empty() ? "" : labels + ",";
    uint64_t cumulative = 0;
    for (size_t i = 0; i < hist->bounds().size(); ++i) {
      cumulative += hist->BucketCount(i);
      out += base + "_bucket{" + prefix + "le=\"" +
             FormatDouble(hist->bounds()[i]) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    cumulative += hist->BucketCount(hist->bounds().size());
    out += base + "_bucket{" + prefix + "le=\"+Inf\"} " +
           std::to_string(cumulative) + "\n";
    const std::string suffix = labels.empty() ? "" : "{" + labels + "}";
    out += base + "_sum" + suffix + " " + FormatDouble(hist->Sum()) + "\n";
    out += base + "_count" + suffix + " " +
           std::to_string(hist->TotalCount()) + "\n";
  }
  return out;
}

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + JsonEscape(name) +
           "\": " + std::to_string(counter->Value());
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + JsonEscape(name) +
           "\": " + FormatDouble(gauge->Value());
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, hist] : histograms_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + JsonEscape(name) + "\": {\"count\": " +
           std::to_string(hist->TotalCount()) +
           ", \"sum\": " + FormatDouble(hist->Sum()) + ", \"buckets\": [";
    uint64_t cumulative = 0;
    for (size_t i = 0; i <= hist->bounds().size(); ++i) {
      cumulative += hist->BucketCount(i);
      if (i > 0) out += ", ";
      out += "{\"le\": ";
      out += i < hist->bounds().size()
                 ? FormatDouble(hist->bounds()[i])
                 : std::string("\"+Inf\"");
      out += ", \"count\": " + std::to_string(cumulative) + "}";
    }
    out += "]}";
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

void MetricsRegistry::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
  help_.clear();
}

MetricsRegistry& MetricsRegistry::Default() {
  static MetricsRegistry* const kRegistry = new MetricsRegistry();
  return *kRegistry;
}

}  // namespace cfgtag::obs
