#include "nids/context_filter.h"

#include <algorithm>

#include "obs/attribution.h"
#include "obs/events.h"
#include "obs/metrics.h"

namespace cfgtag::nids {

namespace {

// The registry is the system of record for scan accounting; the ScanStats
// out-parameter is a per-call delta of the same counters.
struct ScanMetrics {
  obs::Counter* scans;
  obs::Counter* bytes;
  obs::Counter* tokens;
  obs::Counter* spans;
  obs::Counter* alerts;
  obs::Histogram* latency;

  static const ScanMetrics& Get() {
    static const ScanMetrics* const kMetrics = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
      auto* m = new ScanMetrics;
      m->scans = reg.GetCounter("cfgtag_nids_scans_total",
                                "ContextFilter::Scan invocations");
      m->bytes = reg.GetCounter("cfgtag_nids_bytes_total",
                                "Stream bytes scanned by ContextFilter");
      m->tokens = reg.GetCounter("cfgtag_nids_tokens_total",
                                 "Tags seen while scanning");
      m->spans = reg.GetCounter(
          "cfgtag_nids_spans_scanned_total",
          "Context spans handed to the pattern matcher");
      m->alerts = reg.GetCounter("cfgtag_nids_alerts_total",
                                 "Alerts raised by ContextFilter");
      m->latency = reg.GetHistogram("cfgtag_nids_scan_seconds",
                                    "Per-message Scan() wall time");
      return m;
    }();
    return *kMetrics;
  }
};

}  // namespace

ScanSlot::ScanSlot(const ContextFilter& filter)
    : tag_(filter.tagger()), seconds_(ScanMetrics::Get().latency) {}

ScanSlot::~ScanSlot() {
  if (scans_ != 0) {
    const ScanMetrics& metrics = ScanMetrics::Get();
    metrics.scans->Increment(scans_);
    metrics.bytes->Increment(totals_.bytes);
    metrics.tokens->Increment(totals_.tokens);
    metrics.spans->Increment(totals_.spans_scanned);
    metrics.alerts->Increment(totals_.alerts);
  }
  seconds_.Merge();
}

StatusOr<ContextFilter> ContextFilter::Create(grammar::Grammar grammar,
                                              std::vector<Rule> rules,
                                              const hwgen::HwOptions& options) {
  if (rules.empty()) {
    return InvalidArgumentError("a filter needs at least one rule");
  }
  std::vector<std::string> bound_patterns, free_patterns;
  std::vector<size_t> bound_rules, free_rules;
  std::vector<int32_t> bound_tokens;
  for (size_t i = 0; i < rules.size(); ++i) {
    const Rule& r = rules[i];
    if (r.pattern.empty()) {
      return InvalidArgumentError("rule '" + r.id + "' has an empty pattern");
    }
    if (r.context_token.empty()) {
      free_patterns.push_back(r.pattern);
      free_rules.push_back(i);
      continue;
    }
    const int32_t t = grammar.FindToken(r.context_token);
    if (t < 0) {
      return NotFoundError("rule '" + r.id + "' binds to token '" +
                           r.context_token +
                           "' which the grammar does not define");
    }
    bound_patterns.push_back(r.pattern);
    bound_rules.push_back(i);
    bound_tokens.push_back(t);
  }
  // Flatten the binding into the forms Scan() reads per tag: a gate byte
  // per token and a (token, bound pattern) bitmap, so the hot loop does no
  // std::find over rule index vectors.
  const size_t num_tokens = grammar.NumTokens();
  std::vector<uint8_t> token_has_rules(num_tokens, 0);
  std::vector<uint8_t> bound_bitmap(num_tokens * bound_rules.size(), 0);
  for (size_t p = 0; p < bound_tokens.size(); ++p) {
    token_has_rules[bound_tokens[p]] = 1;
    bound_bitmap[bound_tokens[p] * bound_rules.size() + p] = 1;
  }
  CFGTAG_ASSIGN_OR_RETURN(
      auto bound_matcher,
      tagger::NaiveMatcher::Create(std::move(bound_patterns)));
  CFGTAG_ASSIGN_OR_RETURN(
      auto free_matcher,
      tagger::NaiveMatcher::Create(std::move(free_patterns)));

  CFGTAG_ASSIGN_OR_RETURN(
      auto tagger, core::CompiledTagger::Compile(std::move(grammar), options));
  return ContextFilter(
      std::move(rules), std::move(tagger),
      RuleSet{std::move(bound_matcher), std::move(bound_rules)},
      RuleSet{std::move(free_matcher), std::move(free_rules)},
      std::move(bound_bitmap), std::move(token_has_rules));
}

std::vector<Alert> ContextFilter::Scan(std::string_view stream,
                                       ScanStats* stats) const {
  std::vector<Alert> alerts;
  (void)Scan(stream, core::resilience::ScanControl::InertOneChunk(), &alerts,
             stats);
  return alerts;
}

Status ContextFilter::Scan(std::string_view stream,
                           const core::resilience::ScanControl& control,
                           std::vector<Alert>* alerts, ScanStats* stats,
                           std::atomic<uint64_t>* progress,
                           ScanSlot* slot, obs::Lap* lap) const {
  if (slot == nullptr) {
    ScanSlot one_call(*this);
    return Scan(stream, control, alerts, stats, progress, &one_call, lap);
  }
  // One clock chain: the scan's start reading also starts the tagging's
  // timer.
  obs::ScopedTimer timer(&slot->seconds_, lap);
  obs::Lap tag_lap;
  tag_lap.start = timer.start();
  alerts->clear();
  ScanStats local;
  // Context spans from the tag stream, matched as the tags arrive: a
  // target token's span is (previous tag end, its own tag end]. When
  // consecutive tags share an end offset (two tokens detected at the same
  // byte), they share the same span — advancing past the shared offset
  // would silently drop the later tags' spans.
  uint64_t prev_end = 0;
  uint64_t prev_begin = 0;
  bool any_tag = false;
  uint64_t consumed = 0;
  const Status status = tagger_.TagWithControl(
      stream,
      [&](const tagger::Tag& tag) {
        local.tokens++;
        const uint64_t begin = !any_tag              ? 0
                               : tag.end == prev_end ? prev_begin
                                                     : prev_end + 1;
        // Tags arrive with nondecreasing ends, so begin <= tag.end always
        // holds; a trailing open-class token can report an end inside the
        // flush padding, which substr's count clamp absorbs.
        if (tag.token >= 0 &&
            static_cast<size_t>(tag.token) < token_has_rules_.size() &&
            token_has_rules_[tag.token] && begin < stream.size()) {
          local.spans_scanned++;
          const std::string_view ctx =
              stream.substr(begin, tag.end - begin + 1);
          const uint8_t* bound =
              bound_bitmap_.data() +
              static_cast<size_t>(tag.token) * bound_.rules.size();
          // Spans are short (tens of bytes): stepping every byte beats a
          // skip kernel call per return to the root.
          bound_.matcher.ScanWith(ctx, [&](int32_t pattern, uint64_t end) {
            if (bound[pattern]) {
              alerts->push_back(Alert{bound_.rules[pattern], begin + end});
            }
            return true;
          });
        }
        prev_begin = begin;
        prev_end = tag.end;
        any_tag = true;
        return true;
      },
      control, progress, &consumed, &tag_lap, &slot->tag_);
  // On a trip the scan stopped at `consumed`: account only those bytes
  // and run the context-free rules over exactly that prefix, so the
  // partial result is precisely "the alerts for stream[0, consumed)".
  local.bytes = consumed;
  ScanWhole(free_, stream.substr(0, consumed), alerts);

  std::stable_sort(
      alerts->begin(), alerts->end(),
      [](const Alert& a, const Alert& b) { return a.end < b.end; });
  local.alerts = alerts->size();
  if (!alerts->empty()) {
    // Flight-record every alert (rare; correlation id inherited from the
    // enclosing ScanEngine shard, if any) and fold per-rule counts into
    // the attribution table when the switch is on.
    for (const Alert& a : *alerts) {
      const Rule& rule = rules_[a.rule_index];
      obs::RecordEvent(obs::EventKind::kNidsAlert,
                       static_cast<int64_t>(a.end), rule.severity, rule.id);
    }
    if (obs::AttributionTable::enabled()) {
      std::vector<uint64_t> per_rule(rules_.size(), 0);
      for (const Alert& a : *alerts) ++per_rule[a.rule_index];
      for (size_t i = 0; i < per_rule.size(); ++i) {
        if (per_rule[i] != 0) {
          obs::AttributionTable::Default().AddRule(rules_[i].id, per_rule[i]);
        }
      }
    }
  }
  ++slot->scans_;
  slot->totals_ += local;
  if (stats != nullptr) *stats = local;
  return status;
}

void ContextFilter::ScanWhole(const RuleSet& set, std::string_view stream,
                              std::vector<Alert>* alerts) {
  set.matcher.SkipScanWith(stream, [&](int32_t pattern, uint64_t end) {
    alerts->push_back(Alert{set.rules[pattern], end});
    return true;
  });
}

std::vector<Alert> ContextFilter::ScanContextFree(
    std::string_view stream) const {
  std::vector<Alert> alerts;
  ScanWhole(free_, stream, &alerts);
  return alerts;
}

std::vector<Alert> ContextFilter::ScanUngated(std::string_view stream) const {
  std::vector<Alert> bound, free;
  ScanWhole(bound_, stream, &bound);
  ScanWhole(free_, stream, &free);
  std::vector<Alert> alerts(bound.size() + free.size());
  std::merge(bound.begin(), bound.end(), free.begin(), free.end(),
             alerts.begin(),
             [](const Alert& a, const Alert& b) { return a.end < b.end; });
  return alerts;
}

}  // namespace cfgtag::nids
