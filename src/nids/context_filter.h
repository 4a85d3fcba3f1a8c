#ifndef CFGTAG_NIDS_CONTEXT_FILTER_H_
#define CFGTAG_NIDS_CONTEXT_FILTER_H_

#include <string>
#include <string_view>
#include <vector>

#include <atomic>

#include "common/status.h"
#include "core/resilience/deadline.h"
#include "core/token_tagger.h"
#include "obs/metrics.h"
#include "tagger/naive_matcher.h"

namespace cfgtag::nids {

// A detection signature bound to a grammatical context — the paper's §1/§3.5
// thesis turned into an engine: "by performing high-level analysis of
// content, the accuracy of network traffic analyzers can be improved".
struct Rule {
  std::string id;        // e.g. "TRAVERSAL-001"
  std::string pattern;   // raw byte pattern, matched as a substring
  // Name of the token whose spans the pattern applies to, e.g. "PATH".
  // Empty = context-free (matches anywhere — a naive Snort-style rule).
  std::string context_token;
  int severity = 1;      // 1 (info) .. 3 (critical)
};

struct Alert {
  size_t rule_index = 0;   // into rules()
  uint64_t end = 0;        // stream offset of the pattern's last byte

  friend bool operator==(const Alert& a, const Alert& b) {
    return a.rule_index == b.rule_index && a.end == b.end;
  }
};

// Per-call snapshot of one Scan(). The cumulative system of record is the
// default obs::MetricsRegistry (cfgtag_nids_* counters), which Scan()
// advances by exactly these deltas — this struct exists for callers that
// want the numbers for a single message without diffing the registry.
struct ScanStats {
  uint64_t bytes = 0;
  uint64_t tokens = 0;        // tags seen
  uint64_t spans_scanned = 0; // context spans handed to the matcher
  uint64_t alerts = 0;

  ScanStats& operator+=(const ScanStats& o) {
    bytes += o.bytes;
    tokens += o.tokens;
    spans_scanned += o.spans_scanned;
    alerts += o.alerts;
    return *this;
  }
};

class ContextFilter;

// Per-thread scratch for a run of ContextFilter::Scan calls (an engine
// worker's share of a batch): a core::TagSlot of the filter's tagger,
// whose session is held across the scans, and a plain tally of the
// cfgtag_nids_* registry writes. Destruction returns the session and
// folds both tallies into the registry. One thread uses a slot at a time,
// and the filter must outlive it.
class ScanSlot {
 public:
  explicit ScanSlot(const ContextFilter& filter);
  ~ScanSlot();
  ScanSlot(const ScanSlot&) = delete;
  ScanSlot& operator=(const ScanSlot&) = delete;

 private:
  friend class ContextFilter;

  core::TagSlot tag_;
  uint64_t scans_ = 0;
  ScanStats totals_;
  obs::HistogramTally seconds_;
};

// Streams bytes through the grammar tagger and applies each rule only
// inside the byte spans of its context token. Span recovery uses the tag
// stream: a context token's span ends at its tag offset and starts right
// after the previous tag in stream order (leading delimiter bytes are part
// of the span but cannot match, since patterns contain none). Tags that
// share an end offset — two tokens detected at the same byte — share the
// same span.
//
// The pattern matcher is an Aho–Corasick automaton compiled once at
// Create() time; Scan() streams tags out of a pooled LazyDfaSession and
// matches each span as its tag arrives, so no tag vector is materialized.
// Scan() is const and thread-safe: the scan engine calls it concurrently
// from many workers against one filter, each worker with its own ScanSlot.
class ContextFilter {
 public:
  static StatusOr<ContextFilter> Create(grammar::Grammar grammar,
                                        std::vector<Rule> rules,
                                        const hwgen::HwOptions& options = {});

  // Scans one message/stream; alerts are reported in stream order. The
  // controlled Scan() below under ScanControl::InertOneChunk().
  std::vector<Alert> Scan(std::string_view stream,
                          ScanStats* stats = nullptr) const;

  // Controlled scan, the one filter scan path: identical alerts to the
  // uncontrolled Scan() when the control never trips; on
  // kDeadlineExceeded / kCancelled, *alerts holds every alert for the
  // consumed prefix (context-bound alerts from the tags seen so far, plus
  // the context-free rules run over exactly that prefix), still in stream
  // order — a partial result with a precise meaning, not a truncated
  // one. `progress` is advanced past every fed chunk (the scan engine
  // watchdog's heartbeat). With a `slot` (of this filter), the scan runs
  // on the slot's held session and adds to its tallies; without one it
  // runs on a one-call slot.
  Status Scan(std::string_view stream,
              const core::resilience::ScanControl& control,
              std::vector<Alert>* alerts, ScanStats* stats = nullptr,
              std::atomic<uint64_t>* progress = nullptr,
              ScanSlot* slot = nullptr) const;

  // Only the context-free rules (empty context_token), applied over the
  // whole stream — the same set Scan()'s global pass raises, without the
  // tagger running.
  std::vector<Alert> ScanContextFree(std::string_view stream) const;

  // Every rule applied context-free over the whole stream, bound ones
  // included (the naive baseline of the paper's introduction) — for
  // measuring what the context gating suppresses.
  std::vector<Alert> ScanUngated(std::string_view stream) const;

  const std::vector<Rule>& rules() const { return rules_; }
  const core::CompiledTagger& tagger() const { return tagger_; }

 private:
  ContextFilter(std::vector<Rule> rules, core::CompiledTagger tagger,
                tagger::NaiveMatcher matcher,
                std::vector<std::vector<size_t>> rules_by_token,
                std::vector<uint8_t> bound_bitmap,
                std::vector<uint8_t> token_has_rules,
                std::vector<uint8_t> is_global,
                std::vector<size_t> global_rules)
      : rules_(std::move(rules)),
        tagger_(std::move(tagger)),
        matcher_(std::move(matcher)),
        rules_by_token_(std::move(rules_by_token)),
        bound_bitmap_(std::move(bound_bitmap)),
        token_has_rules_(std::move(token_has_rules)),
        is_global_(std::move(is_global)),
        global_rules_(std::move(global_rules)) {}

  std::vector<Rule> rules_;
  core::CompiledTagger tagger_;
  // One pattern per rule, in rule order (Aho–Corasick, built at Create).
  tagger::NaiveMatcher matcher_;
  // rules_by_token_[token_id] = indices of rules bound to that token.
  std::vector<std::vector<size_t>> rules_by_token_;
  // Everything below is precomputed at Create() so Scan() does no rule
  // table walking: bound_bitmap_[token * rules_.size() + rule] = 1 iff
  // `rule` is bound to `token`; token_has_rules_[token] gates the span
  // scan; is_global_/global_rules_ are the context-free rule set.
  std::vector<uint8_t> bound_bitmap_;
  std::vector<uint8_t> token_has_rules_;
  std::vector<uint8_t> is_global_;
  std::vector<size_t> global_rules_;
};

}  // namespace cfgtag::nids

#endif  // CFGTAG_NIDS_CONTEXT_FILTER_H_
