// Copyright (c) PROCLUS reproduction authors.
// Bounded, deterministic retry for transient I/O failures.
//
// Production storage fails transiently; a scan-based algorithm that dies on
// the first short read cannot honor the paper's "sequential passes over
// disk-resident data" cost model at scale. RetryPolicy bounds the attempts
// and spaces them with a *deterministic* exponential backoff — no wall-clock
// randomness, no jitter — so a retried run draws nothing from any Rng and
// remains bit-identical to an unretried one. Retry never changes results,
// only whether the run survives.

#ifndef PROCLUS_COMMON_RETRY_H_
#define PROCLUS_COMMON_RETRY_H_

#include <chrono>
#include <cstdint>

#include "common/cancel.h"
#include "common/status.h"

namespace proclus {

/// Retry schedule for transient failures: up to `max_attempts` tries, with
/// attempt r (1-based) followed by a sleep of backoff_base * 2^(r-1),
/// capped at backoff_cap. The default base of zero makes retries immediate
/// (and tests fast); callers talking to real remote storage can set a base.
struct RetryPolicy {
  /// Total attempts, including the first (1 = no retry).
  size_t max_attempts = 4;
  /// Sleep before the first retry; doubles each further retry.
  std::chrono::microseconds backoff_base{0};
  /// Upper bound on a single backoff sleep.
  std::chrono::microseconds backoff_cap{100000};

  /// The (deterministic) sleep that follows failed attempt `attempt`
  /// (1-based). Zero when backoff_base is zero.
  std::chrono::microseconds BackoffFor(size_t attempt) const {
    if (backoff_base.count() <= 0 || attempt == 0) {
      return std::chrono::microseconds{0};
    }
    // Shift saturates well before overflow: cap at 62 doublings.
    const unsigned shift = attempt - 1 > 62 ? 62 : static_cast<unsigned>(attempt - 1);
    const int64_t factor = int64_t{1} << shift;
    if (backoff_base.count() > backoff_cap.count() / factor) return backoff_cap;
    const std::chrono::microseconds delay{backoff_base.count() * factor};
    return delay < backoff_cap ? delay : backoff_cap;
  }
};

/// True for statuses that model transient transport failures worth retrying:
/// kIOError (read/seek failure, short read) and kDataLoss (an integrity
/// check caught in-flight corruption; a re-read may succeed). Structural
/// errors — kCorruption (malformed header/format), kInvalidArgument,
/// kOutOfRange, etc. — are deterministic and never retried. kCancelled and
/// kDeadlineExceeded are likewise non-transient by design: they are the
/// caller's own request to stop, and retrying past an explicit stop or an
/// expired budget would defeat the time-bounded execution contract
/// (common/cancel.h, DESIGN.md §13).
inline bool IsTransient(const Status& status) {
  return status.code() == StatusCode::kIOError ||
         status.code() == StatusCode::kDataLoss;
}

/// Sleeps for the backoff that follows failed attempt `attempt` (1-based),
/// truncated to the context's remaining deadline budget and woken
/// immediately by token cancellation. Returns the context's status after
/// waking (always OK under an inactive context; no-op under the default
/// zero-base policy). A non-OK return means the caller should abandon the
/// retry loop and propagate it instead of re-issuing the operation.
inline Status SleepBackoff(const RetryPolicy& policy, size_t attempt,
                           const CancelContext& ctx = {}) {
  const auto delay = policy.BackoffFor(attempt);
  if (delay.count() <= 0) return ctx.Check();
  return InterruptibleSleep(delay, ctx);
}

}  // namespace proclus

#endif  // PROCLUS_COMMON_RETRY_H_
