// Unit tests for the time-bounded execution substrate (common/cancel.h):
//
//  * Deadline: default-infinite, After() saturation, expiry, remaining(),
//    and the Earlier() combinator.
//  * CancelToken: idempotent Cancel(), lock-free polling, and
//    WaitUntilCancelled woken immediately by a concurrent Cancel().
//  * CancelContext: inactive default, Check() precedence (cancellation
//    outranks deadline expiry), WithDeadlineCapped nesting.
//  * InterruptibleSleep / HangUntilCancelled: truncated by the deadline,
//    woken by the token, never oversleeping a cancelled context.
//  * Integration with common/retry.h: kCancelled/kDeadlineExceeded are
//    non-transient, and FetchWithRetry abandons its loop (including
//    mid-backoff) when the context fires.

#include "common/cancel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <span>
#include <thread>

#include "common/retry.h"
#include "common/status.h"
#include "data/engine.h"

namespace proclus {
namespace {

using std::chrono::hours;
using std::chrono::microseconds;
using std::chrono::milliseconds;
using std::chrono::steady_clock;

TEST(DeadlineTest, DefaultIsInfinite) {
  Deadline d;
  EXPECT_TRUE(d.infinite());
  EXPECT_FALSE(d.expired());
  EXPECT_EQ(d.remaining(), std::chrono::nanoseconds::max());
}

TEST(DeadlineTest, AfterNonPositiveBudgetIsAlreadyExpired) {
  EXPECT_TRUE(Deadline::After(std::chrono::nanoseconds{0}).expired());
  EXPECT_TRUE(Deadline::After(std::chrono::nanoseconds{-5}).expired());
  EXPECT_EQ(Deadline::After(std::chrono::nanoseconds{0}).remaining().count(),
            0);
}

TEST(DeadlineTest, AfterHugeBudgetSaturatesToInfinite) {
  // >= ~1 year saturates so the clock addition cannot overflow.
  EXPECT_TRUE(Deadline::After(hours(24 * 365)).infinite());
  EXPECT_TRUE(Deadline::After(hours(24 * 365 * 100)).infinite());
  EXPECT_FALSE(Deadline::After(hours(24 * 364)).infinite());
}

TEST(DeadlineTest, FiniteDeadlineReportsRemainingBudget) {
  Deadline d = Deadline::After(hours(1));
  EXPECT_FALSE(d.infinite());
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining(), milliseconds(0));
  EXPECT_LE(d.remaining(), hours(1));
}

TEST(DeadlineTest, AtAPastPointIsExpired) {
  Deadline d = Deadline::At(steady_clock::now() - milliseconds(1));
  EXPECT_TRUE(d.expired());
  EXPECT_EQ(d.remaining().count(), 0);
}

TEST(DeadlineTest, EarlierPrefersTheFiniteAndTheSooner) {
  Deadline infinite;
  Deadline soon = Deadline::After(milliseconds(1));
  Deadline late = Deadline::After(hours(1));
  EXPECT_FALSE(Deadline::Earlier(infinite, soon).infinite());
  EXPECT_FALSE(Deadline::Earlier(soon, infinite).infinite());
  EXPECT_TRUE(Deadline::Earlier(infinite, infinite).infinite());
  EXPECT_LE(Deadline::Earlier(soon, late).remaining(), milliseconds(1));
  EXPECT_LE(Deadline::Earlier(late, soon).remaining(), milliseconds(1));
}

TEST(CancelTokenTest, StartsLiveAndCancelIsStickyAndIdempotent) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  token.Cancel();
  EXPECT_TRUE(token.cancelled());
  token.Cancel();  // Idempotent; a token is single-use by design.
  EXPECT_TRUE(token.cancelled());
}

TEST(CancelTokenTest, WaitReturnsImmediatelyWhenAlreadyCancelled) {
  CancelToken token;
  token.Cancel();
  // An infinite deadline would hang forever if the pre-cancelled flag
  // were not honored before waiting.
  EXPECT_TRUE(token.WaitUntilCancelled(Deadline()));
}

TEST(CancelTokenTest, WaitTimesOutAtTheDeadlineWithoutCancellation) {
  CancelToken token;
  EXPECT_FALSE(token.WaitUntilCancelled(Deadline::After(milliseconds(5))));
  EXPECT_FALSE(token.cancelled());
}

TEST(CancelTokenTest, CancelFromAnotherThreadWakesTheWaiter) {
  CancelToken token;
  std::thread canceller([&token] {
    std::this_thread::sleep_for(milliseconds(10));
    token.Cancel();
  });
  // An hour-long deadline: only the cross-thread wake-up can make this
  // return promptly (the suite's CTest TIMEOUT bounds the failure mode).
  EXPECT_TRUE(token.WaitUntilCancelled(Deadline::After(hours(1))));
  canceller.join();
}

TEST(CancelContextTest, DefaultIsInactiveAndAlwaysOk) {
  CancelContext ctx;
  EXPECT_FALSE(ctx.active());
  EXPECT_TRUE(ctx.Check().ok());
}

TEST(CancelContextTest, TokenOrFiniteDeadlineActivates) {
  CancelToken token;
  CancelContext with_token;
  with_token.token = &token;
  EXPECT_TRUE(with_token.active());
  EXPECT_TRUE(with_token.Check().ok());

  CancelContext with_deadline;
  with_deadline.deadline = Deadline::After(hours(1));
  EXPECT_TRUE(with_deadline.active());
  EXPECT_TRUE(with_deadline.Check().ok());
}

TEST(CancelContextTest, CheckReportsCancellation) {
  CancelToken token;
  CancelContext ctx;
  ctx.token = &token;
  token.Cancel();
  EXPECT_EQ(ctx.Check().code(), StatusCode::kCancelled);
}

TEST(CancelContextTest, CheckReportsDeadlineExpiry) {
  CancelContext ctx;
  ctx.deadline = Deadline::After(std::chrono::nanoseconds{0});
  EXPECT_EQ(ctx.Check().code(), StatusCode::kDeadlineExceeded);
}

TEST(CancelContextTest, CancellationOutranksDeadlineExpiry) {
  CancelToken token;
  token.Cancel();
  CancelContext ctx;
  ctx.token = &token;
  ctx.deadline = Deadline::After(std::chrono::nanoseconds{0});
  // Both fired; the explicit request is the more actionable signal.
  EXPECT_EQ(ctx.Check().code(), StatusCode::kCancelled);
}

TEST(CancelContextTest, WithDeadlineCappedTightensButNeverLoosens) {
  CancelToken token;
  CancelContext ctx;
  ctx.token = &token;
  ctx.deadline = Deadline::After(milliseconds(1));

  // A later cap leaves the tighter own deadline in force.
  CancelContext still_tight = ctx.WithDeadlineCapped(Deadline::After(hours(1)));
  EXPECT_LE(still_tight.deadline.remaining(), milliseconds(1));
  // An earlier cap takes over; the token travels along.
  CancelContext capped =
      CancelContext{&token, Deadline()}.WithDeadlineCapped(
          Deadline::After(milliseconds(2)));
  EXPECT_FALSE(capped.deadline.infinite());
  EXPECT_EQ(capped.token, &token);
}

TEST(InterruptibleSleepTest, FullSleepUnderLiveContextIsOk) {
  CancelToken token;
  CancelContext ctx;
  ctx.token = &token;
  EXPECT_TRUE(InterruptibleSleep(microseconds(100), ctx).ok());
  // Inactive context: plain bounded sleep, still OK.
  EXPECT_TRUE(InterruptibleSleep(microseconds(100), CancelContext{}).ok());
  // Non-positive duration is a pure check.
  EXPECT_TRUE(InterruptibleSleep(microseconds(0), CancelContext{}).ok());
}

TEST(InterruptibleSleepTest, TruncatedByTheDeadlineBudget) {
  CancelContext ctx;
  ctx.deadline = Deadline::After(milliseconds(2));
  const auto start = steady_clock::now();
  Status status = InterruptibleSleep(hours(1), ctx);
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  // Generous bound: the hour-long request must have been cut to the
  // ~2ms budget, not served in full.
  EXPECT_LT(steady_clock::now() - start, std::chrono::seconds(30));
}

TEST(InterruptibleSleepTest, WokenImmediatelyByCancel) {
  CancelToken token;
  CancelContext ctx;
  ctx.token = &token;
  std::thread canceller([&token] {
    std::this_thread::sleep_for(milliseconds(10));
    token.Cancel();
  });
  const auto start = steady_clock::now();
  Status status = InterruptibleSleep(hours(1), ctx);
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  EXPECT_LT(steady_clock::now() - start, std::chrono::seconds(30));
  canceller.join();
}

TEST(HangUntilCancelledTest, ReturnsTheContextStatusOnceItFires) {
  CancelToken token;
  token.Cancel();
  CancelContext cancelled;
  cancelled.token = &token;
  EXPECT_EQ(HangUntilCancelled(cancelled).code(), StatusCode::kCancelled);

  // Token-less hang: reclaimed by the deadline via the polling fallback.
  CancelContext dead;
  dead.deadline = Deadline::After(milliseconds(2));
  EXPECT_EQ(HangUntilCancelled(dead).code(),
            StatusCode::kDeadlineExceeded);
}

TEST(HangUntilCancelledTest, ParkedHangIsWokenByConcurrentCancel) {
  CancelToken token;
  CancelContext ctx;
  ctx.token = &token;
  std::thread canceller([&token] {
    std::this_thread::sleep_for(milliseconds(10));
    token.Cancel();
  });
  EXPECT_EQ(HangUntilCancelled(ctx).code(), StatusCode::kCancelled);
  canceller.join();
}

TEST(CancelStatusTest, CodesHaveNamesAndFactories) {
  EXPECT_EQ(StatusCodeName(StatusCode::kCancelled), "Cancelled");
  EXPECT_EQ(StatusCodeName(StatusCode::kDeadlineExceeded),
            "DeadlineExceeded");
  EXPECT_EQ(Status::Cancelled("x").code(), StatusCode::kCancelled);
  EXPECT_EQ(Status::DeadlineExceeded("x").code(),
            StatusCode::kDeadlineExceeded);
}

TEST(CancelRetryTest, CancellationCodesAreNotTransient) {
  // Retrying past an explicit stop request or an expired budget would
  // defeat the time-bounded execution contract.
  EXPECT_FALSE(IsTransient(Status::Cancelled("stop")));
  EXPECT_FALSE(IsTransient(Status::DeadlineExceeded("late")));
  EXPECT_TRUE(IsTransient(Status::IOError("flaky")));
}

// A one-point source whose every Fetch fails transiently. Each attempt
// is counted and, when a token is given, cancels it.
class FailingFetchSource final : public PointSource {
 public:
  explicit FailingFetchSource(CancelToken* cancel_on_fetch = nullptr)
      : cancel_on_fetch_(cancel_on_fetch) {}

  size_t size() const override { return 1; }
  size_t dims() const override { return 1; }
  Result<Matrix> Fetch(std::span<const size_t>) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    if (cancel_on_fetch_ != nullptr) cancel_on_fetch_->Cancel();
    return Status::IOError("transient");
  }
  size_t calls() const { return calls_.load(std::memory_order_relaxed); }

 protected:
  Status ScanBlocks(const ScanSpec&, const BlockVisitor&) const override {
    return Status::IOError("transient");
  }

 private:
  CancelToken* cancel_on_fetch_;
  // order: relaxed — a counter read after the fetch returned.
  mutable std::atomic<size_t> calls_{0};
};

TEST(CancelRetryTest, FetchWithRetryStopsRetryingOnceCancelled) {
  CancelToken token;
  CancelContext ctx;
  ctx.token = &token;
  RetryPolicy policy;
  policy.max_attempts = 4;
  FailingFetchSource source(&token);
  RunStats stats;
  const size_t index[1] = {0};
  auto fetched = FetchWithRetry(source, index, policy, &stats, ctx);
  // The transient failure would normally be retried; the context the
  // first attempt cancelled abandons the loop instead.
  EXPECT_EQ(fetched.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(source.calls(), 1u);
  EXPECT_EQ(stats.retries, 1u);  // The re-issue was counted, then abandoned.
}

TEST(CancelRetryTest, BackoffSleepIsInterruptible) {
  CancelToken token;
  CancelContext ctx;
  ctx.token = &token;
  RetryPolicy policy;
  policy.max_attempts = 3;
  // An hour-long backoff: only the cross-thread wake-up lets this test
  // finish within its timeout.
  policy.backoff_base = std::chrono::duration_cast<microseconds>(hours(1));
  policy.backoff_cap = policy.backoff_base;

  std::thread canceller([&token] {
    std::this_thread::sleep_for(milliseconds(10));
    token.Cancel();
  });
  const auto start = steady_clock::now();
  FailingFetchSource source;
  const size_t index[1] = {0};
  auto fetched = FetchWithRetry(source, index, policy, nullptr, ctx);
  EXPECT_EQ(fetched.status().code(), StatusCode::kCancelled);
  EXPECT_LT(steady_clock::now() - start, std::chrono::minutes(5));
  canceller.join();
}

TEST(CancelRetryTest, SleepBackoffPropagatesTheContextVerdict) {
  RetryPolicy policy;  // Zero base: no sleep, pure check.
  EXPECT_TRUE(SleepBackoff(policy, 1).ok());

  CancelToken token;
  token.Cancel();
  CancelContext ctx;
  ctx.token = &token;
  EXPECT_EQ(SleepBackoff(policy, 1, ctx).code(), StatusCode::kCancelled);
}

}  // namespace
}  // namespace proclus
