// FaultInjectingPointSource: a deterministic fault-injection decorator for
// any PointSource.
//
// Production storage fails: reads error transiently, return short, or hand
// back corrupted bytes; latency spikes. This decorator injects exactly those
// faults from a reproducible, seeded schedule so the resilience layer
// (the executor's per-block retry, hedging, checkpoint/resume) can be
// *proved* harmless — a run that survives injected faults must be
// bit-identical to a fault-free run, because the schedule draws from its
// own SplitMix64 stream keyed by (plan.seed, operation index) and never
// touches any algorithm Rng.
//
// Fault model per operation (one Scan or Fetch call). A Scan reads one
// block, so one scan operation is one block read:
//  * transient failure  — the operation returns IOError, its block
//    withheld;
//  * short read         — the first half of the block's rows is handed
//    over, then the scan returns IOError: exercises the executor's rule
//    that only a whole block is consumed;
//  * detected corruption — the operation returns DataLoss with row/offset
//    detail, its block withheld, modeling in-flight corruption caught by
//    an integrity check (a re-read may succeed, so it is retryable;
//    corrupted bytes are never delivered — persistent on-disk corruption
//    is DiskSource's own checksum verification, tested separately);
//  * latency spike      — the operation sleeps plan.delay first
//    (interruptible by the scan's CancelContext);
//  * stall spike        — a Scan operation sleeps plan.stall before
//    reading, modeling slow (not failing) storage. The sleep is
//    interruptible, so a soft per-read deadline (the executor's stall
//    watchdog) or an external Cancel() reclaims the thread and the scan
//    returns kDeadlineExceeded/kCancelled;
//  * permanent hang     — a Scan operation blocks forever, cooperatively:
//    it parks on the scan's CancelContext and returns its status once
//    cancelled or past deadline. A hang under an inactive context never
//    returns (pair hang_rate with a token/deadline or a CTest TIMEOUT).
//
// `max_consecutive` caps how many faults in a row the schedule may inject
// into one read — the Scan calls for one first_row, or the Fetch calls —
// hangs included, so any retry policy with max_attempts > max_consecutive
// is guaranteed to make progress, however many reads run concurrently.
// `kill_after_ops` turns every operation from that index on into a
// permanent failure — a deterministic "crash" for checkpoint/resume
// tests. InMemory() returns nullptr: injected operations behave like
// storage reads, so the executor gives them the storage thread budget.

#ifndef PROCLUS_DATA_FAULT_SOURCE_H_
#define PROCLUS_DATA_FAULT_SOURCE_H_

#include <chrono>
#include <cstdint>
#include <map>

#include "common/cancel.h"
#include "common/sync.h"
#include "data/point_source.h"

namespace proclus {

/// Reproducible fault schedule. Rates are per-operation probabilities and
/// partition the unit interval: an operation suffers at most one fault.
struct FaultPlan {
  /// Seeds the schedule; same seed + same operation sequence = same faults.
  uint64_t seed = 1;
  /// P(transient failure) per operation.
  double fail_rate = 0.0;
  /// P(detected per-block corruption -> DataLoss) per operation.
  double corrupt_rate = 0.0;
  /// P(short read: truncated block + IOError) per Scan operation.
  double short_read_rate = 0.0;
  /// Upper bound on consecutively injected faults into one read (one
  /// first_row for Scan, every Fetch alike); the next attempt after a run
  /// of this length is always allowed to succeed.
  size_t max_consecutive = 2;
  /// Sleep injected on a latency-spike operation.
  std::chrono::microseconds delay{0};
  /// P(latency spike) per operation (independent of the fault draw).
  double delay_rate = 0.0;
  /// When non-zero: every operation with index >= kill_after_ops fails
  /// permanently (simulated crash; exceeds any retry budget).
  uint64_t kill_after_ops = 0;
  /// Stall served on a stalled Scan operation (slow, not failing,
  /// storage; interruptible — see the fault model above).
  std::chrono::microseconds stall{0};
  /// P(stall spike) per Scan operation (independent of the fault draw;
  /// drawn after the delay draw so enabling stalls never changes an
  /// existing fail/corrupt/delay schedule).
  double stall_rate = 0.0;
  /// P(permanent cooperative hang) per Scan operation (counts toward
  /// max_consecutive so hung retries eventually pass).
  double hang_rate = 0.0;
};

/// Snapshot of the injector's cumulative counters.
struct FaultCounters {
  /// Operations (Scan or Fetch calls) that consulted the schedule.
  uint64_t operations = 0;
  /// Injected faults, by operation type.
  uint64_t injected_scan_faults = 0;
  uint64_t injected_fetch_faults = 0;
  /// Of the injected faults: how many were corruption / short reads.
  uint64_t injected_corruptions = 0;
  uint64_t injected_short_reads = 0;
  /// Latency spikes served.
  uint64_t delays = 0;
  /// Stall spikes served (Scan operations only).
  uint64_t stalls = 0;
  /// Permanent hangs entered (Scan operations only).
  uint64_t hangs = 0;
  /// Injected faults that a later clean operation proved absorbed — i.e.
  /// the caller retried past them.
  uint64_t absorbed = 0;
};

/// Decorator injecting FaultPlan faults into an inner PointSource.
/// Thread-compatible like any PointSource; with concurrent callers the
/// schedule is still seeded and valid, but the assignment of operation
/// indices to callers follows the arrival interleaving.
class FaultInjectingPointSource final : public PointSource {
 public:
  /// Wraps `inner`, which must outlive this source.
  FaultInjectingPointSource(const PointSource& inner, const FaultPlan& plan)
      : inner_(&inner), plan_(plan) {}

  size_t size() const override { return inner_->size(); }
  size_t dims() const override { return inner_->dims(); }
  Result<Matrix> Fetch(std::span<const size_t> indices) const override;
  /// Always null: the decorated source behaves like storage.
  const Dataset* InMemory() const override { return nullptr; }

  const FaultPlan& plan() const { return plan_; }

  /// Cumulative injection counters.
  FaultCounters fault_counters() const { return counters_.Snapshot(); }

 protected:
  Status ScanBlocks(const ScanSpec& spec,
                    const BlockVisitor& visit) const override;

 private:
  enum class FaultKind { kNone, kFail, kCorrupt, kShortRead };
  struct Decision {
    FaultKind kind = FaultKind::kNone;
    bool delayed = false;
    bool stalled = false;   // Scan only
    bool hung = false;      // Scan only
  };

  /// Deterministic schedule lookup for operation `op`.
  Decision Decide(uint64_t op) const;
  /// Applies max_consecutive to the raw decision for `read` (a scan's
  /// first_row, or kFetchRead), extending that read's fault run, and
  /// serves the latency spike (interruptible under `ctx`; an interrupted
  /// delay just ends early — the caller's next cancellation check unwinds
  /// the operation).
  Decision Admit(uint64_t op, uint64_t read, const CancelContext& ctx) const;
  /// Ends `read`'s fault run after a clean operation completed.
  void NoteClean(uint64_t read) const;

  // The fault-run key every Fetch shares.
  static constexpr uint64_t kFetchRead = ~uint64_t{0};

  const PointSource* inner_;
  FaultPlan plan_;

  // Relaxed-atomic cells behind the FaultCounters snapshot: independent
  // statistics bumped from concurrent Scan/Fetch calls, read through the
  // single Snapshot() accessor. Ordering discipline lives inside
  // GuardedCounter (relaxed). `ops` doubles as the operation-index ticket
  // (FetchAdd draw per Scan/Fetch call).
  struct FaultCounterCells {
    GuardedCounter ops;
    GuardedCounter scan_faults;
    GuardedCounter fetch_faults;
    GuardedCounter corruptions;
    GuardedCounter short_reads;
    GuardedCounter delays;
    GuardedCounter stalls;
    GuardedCounter hangs;
    GuardedCounter absorbed;

    FaultCounters Snapshot() const {
      FaultCounters out;
      out.operations = ops.Load();
      out.injected_scan_faults = scan_faults.Load();
      out.injected_fetch_faults = fetch_faults.Load();
      out.injected_corruptions = corruptions.Load();
      out.injected_short_reads = short_reads.Load();
      out.delays = delays.Load();
      out.stalls = stalls.Load();
      out.hangs = hangs.Load();
      out.absorbed = absorbed.Load();
      return out;
    }
  };

  mutable FaultCounterCells counters_;
  // Length of each read's current injected-fault run (schedule state, not
  // a statistic); reads without a run have no entry.
  mutable Mutex mu_;
  mutable std::map<uint64_t, uint64_t> runs_ PROCLUS_GUARDED_BY(mu_);
};

}  // namespace proclus

#endif  // PROCLUS_DATA_FAULT_SOURCE_H_
