#include "obs/attribution.h"

#include <algorithm>

#include "obs/metrics.h"

namespace cfgtag::obs {

namespace {

std::string JsonEscape(std::string_view s) {
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

// Resolves the labeled registry mirror for a row. Called once per row
// (the handle is cached in the Row afterwards): session releases merge
// every token every time, and rebuilding the labeled name plus the
// registry lookup per token per release is measurable on short streams.
Counter* ResolveCounter(const char* family, const char* label,
                        std::string_view key, const char* help) {
  std::string name = family;
  name += '{';
  name += label;
  name += "=\"";
  name += key;
  name += "\"}";
  return MetricsRegistry::Default().GetCounter(name, help);
}

void AppendRows(std::string* out, const char* key,
                const std::vector<AttributionTable::Row>& rows) {
  *out += "  \"";
  *out += key;
  *out += "\": [";
  for (size_t i = 0; i < rows.size(); ++i) {
    *out += i == 0 ? "\n" : ",\n";
    *out += "    {\"name\": \"" + JsonEscape(rows[i].name) +
            "\", \"hits\": " + std::to_string(rows[i].hits) + "}";
  }
  *out += rows.empty() ? "]" : "\n  ]";
}

}  // namespace

std::atomic<bool> AttributionTable::enabled_{false};

void AttributionTable::AddToken(std::string_view name, uint64_t matches) {
  if (matches == 0) return;
  Counter* hits_counter;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tokens_.find(name);
    if (it == tokens_.end()) {
      it = tokens_.emplace(std::string(name), Row{std::string(name), 0})
               .first;
      it->second.hits_counter = ResolveCounter(
          "cfgtag_attr_token_matches_total", "token", name,
          "Tag emissions attributed per token (attribution on)");
    }
    it->second.hits += matches;
    hits_counter = it->second.hits_counter;
  }
  hits_counter->Increment(matches);
}

void AttributionTable::AddRule(std::string_view id, uint64_t alerts) {
  if (alerts == 0) return;
  Counter* hits_counter;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = rules_.find(id);
    if (it == rules_.end()) {
      it = rules_.emplace(std::string(id), Row{std::string(id), 0}).first;
      it->second.hits_counter = ResolveCounter(
          "cfgtag_attr_rule_alerts_total", "rule", id,
          "NIDS alerts attributed per rule (attribution on)");
    }
    it->second.hits += alerts;
    hits_counter = it->second.hits_counter;
  }
  hits_counter->Increment(alerts);
}

void AttributionTable::AddService(std::string_view name, uint64_t messages) {
  if (messages == 0) return;
  Counter* hits_counter;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = services_.find(name);
    if (it == services_.end()) {
      it = services_.emplace(std::string(name), Row{std::string(name), 0})
               .first;
      it->second.hits_counter = ResolveCounter(
          "cfgtag_attr_service_routed_total", "service", name,
          "XML-RPC messages attributed per routed service");
    }
    it->second.hits += messages;
    hits_counter = it->second.hits_counter;
  }
  hits_counter->Increment(messages);
}

void AttributionTable::AddDfaCache(uint64_t hits, uint64_t misses) {
  if (hits == 0 && misses == 0) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    dfa_hits_ += hits;
    dfa_misses_ += misses;
  }
  MetricsRegistry& reg = MetricsRegistry::Default();
  if (hits != 0) {
    reg.GetCounter("cfgtag_dfa_cache_hits_total",
                   "Lazy-DFA cached-transition hits (attribution on)")
        ->Increment(hits);
  }
  if (misses != 0) {
    reg.GetCounter("cfgtag_dfa_cache_misses_total",
                   "Lazy-DFA transition builds (attribution on)")
        ->Increment(misses);
  }
}

namespace {

std::vector<AttributionTable::Row> Ranked(
    const std::map<std::string, AttributionTable::Row, std::less<>>& rows) {
  std::vector<AttributionTable::Row> out;
  out.reserve(rows.size());
  for (const auto& [name, row] : rows) out.push_back(row);
  std::sort(out.begin(), out.end(),
            [](const AttributionTable::Row& a,
               const AttributionTable::Row& b) {
              if (a.hits != b.hits) return a.hits > b.hits;
              return a.name < b.name;
            });
  return out;
}

}  // namespace

std::vector<AttributionTable::Row> AttributionTable::RankedTokens() const {
  std::lock_guard<std::mutex> lock(mu_);
  return Ranked(tokens_);
}

std::vector<AttributionTable::Row> AttributionTable::RankedRules() const {
  std::lock_guard<std::mutex> lock(mu_);
  return Ranked(rules_);
}

std::vector<AttributionTable::Row> AttributionTable::RankedServices() const {
  std::lock_guard<std::mutex> lock(mu_);
  return Ranked(services_);
}

uint64_t AttributionTable::dfa_cache_hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dfa_hits_;
}

uint64_t AttributionTable::dfa_cache_misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dfa_misses_;
}

std::string AttributionTable::ToJson() const {
  const std::vector<Row> tokens = RankedTokens();
  const std::vector<Row> rules = RankedRules();
  const std::vector<Row> services = RankedServices();
  uint64_t hits, misses;
  {
    std::lock_guard<std::mutex> lock(mu_);
    hits = dfa_hits_;
    misses = dfa_misses_;
  }
  std::string out = "{\n";
  out += std::string("  \"enabled\": ") + (enabled() ? "true" : "false") +
         ",\n";
  AppendRows(&out, "tokens", tokens);
  out += ",\n";
  AppendRows(&out, "rules", rules);
  out += ",\n";
  AppendRows(&out, "services", services);
  out += ",\n  \"dfa_cache\": {\"hits\": " + std::to_string(hits) +
         ", \"misses\": " + std::to_string(misses) + "}\n}\n";
  return out;
}

void AttributionTable::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  tokens_.clear();
  rules_.clear();
  services_.clear();
  dfa_hits_ = 0;
  dfa_misses_ = 0;
}

AttributionTable& AttributionTable::Default() {
  static AttributionTable* const kTable = new AttributionTable();
  return *kTable;
}

}  // namespace cfgtag::obs
