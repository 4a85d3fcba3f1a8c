#include "core/resilience/deadline.h"

#include "obs/events.h"
#include "obs/metrics.h"

namespace cfgtag::core::resilience {

namespace {

obs::Counter* DeadlineCounter() {
  static obs::Counter* const kCounter =
      obs::MetricsRegistry::Default().GetCounter(
          "cfgtag_deadline_exceeded_total",
          "Controlled scans aborted because their deadline expired");
  return kCounter;
}

obs::Counter* CancelledCounter() {
  static obs::Counter* const kCounter =
      obs::MetricsRegistry::Default().GetCounter(
          "cfgtag_scan_cancelled_total",
          "Controlled scans aborted by an observed CancelToken");
  return kCounter;
}

}  // namespace

const ScanControl& ScanControl::InertOneChunk() {
  static const ScanControl kControl{Deadline::Infinite(), CancelToken::None(),
                                    0};
  return kControl;
}

Status ScanControl::Check() const {
  if (cancel.cancelled()) {
    return CancelledError("scan cancelled");
  }
  if (deadline.expired()) {
    return DeadlineExceededError("scan deadline exceeded");
  }
  return Status::Ok();
}

void CountControlTrip(const Status& status, uint64_t consumed_bytes,
                      uint64_t total_bytes, const char* where) {
  switch (status.code()) {
    case StatusCode::kDeadlineExceeded:
      DeadlineCounter()->Increment();
      obs::RecordEvent(obs::EventKind::kDeadlineExceeded,
                       static_cast<int64_t>(consumed_bytes),
                       static_cast<int64_t>(total_bytes), where);
      break;
    case StatusCode::kCancelled:
      CancelledCounter()->Increment();
      obs::RecordEvent(obs::EventKind::kScanCancelled,
                       static_cast<int64_t>(consumed_bytes),
                       static_cast<int64_t>(total_bytes), where);
      break;
    default:
      break;
  }
}

}  // namespace cfgtag::core::resilience
