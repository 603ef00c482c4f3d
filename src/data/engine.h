// Scan executor: one physical scan over a PointSource feeding N logical
// consumers.
//
// PROCLUS-style database algorithms are built from full scans that compute
// either per-point outputs (labels) or small aggregates (k x d statistics).
// Expressing each such computation as a ScanConsumer — per-block partial
// state plus a deterministic block-ordered merge — lets the executor drive
// several of them over ONE pass through the data, which is the difference
// between re-reading a disk-resident dataset four times per iteration and
// reading it once or twice.
//
// Determinism contract (inherited from common/parallel.h and preserved for
// every consumer the executor runs):
//  * ConsumeBlock is invoked exactly once per block; concurrently for
//    distinct blocks when the source is in memory and num_threads > 1,
//    sequentially in block order otherwise. A consumer must only touch
//    state owned by that block (keyed by block_index) or per-point state
//    at disjoint row ranges (keyed by first_row).
//  * Merge runs sequentially after all blocks, and must combine partials
//    in ascending block order. Floating-point addition is not associative,
//    so this ordering — never the thread schedule — defines the result:
//    outputs are bit-identical for every thread count, including 1.
//  * When several consumers share a scan, each block is offered to them in
//    list order within the same visit; consumers never observe each
//    other's partials, so a fused run is bit-identical to running the
//    same consumers over separate scans.
//  * Sharded scans (ShardedScanExecutor below) lift the same invariant one
//    level: shards are scanned concurrently, but every block keeps the
//    block index it would have in the unsharded scan, so the one global
//    Merge in ascending block order yields bits independent of the shard
//    count too. Shard-level fault retry re-delivers a failed shard's
//    blocks into live consumers, which the re-delivery contract on
//    ConsumeBlock (see ScanConsumer) makes invisible.
//
// Concurrency & ownership (the full ownership map is DESIGN.md §10): the
// executor itself holds no locks. Its safety argument is pure ownership
// partitioning — during the parallel region each worker touches only
// per-block consumer state keyed by its block index (or disjoint per-row
// ranges), Prepare/Merge/Reset and every RunStats/IoCounters write happen
// on the calling thread strictly before or after that region, and the
// retry path (Reset + re-Prepare + re-issue) runs entirely on the calling
// thread between attempts. The only cross-thread cells are the
// PointSource IoCounters (relaxed GuardedCounters, see
// data/point_source.h). The locking that does exist lives one layer down
// in the ThreadPool, whose discipline is compile-checked via the
// annotations in common/sync.h under the `tsa` preset.

#ifndef PROCLUS_DATA_ENGINE_H_
#define PROCLUS_DATA_ENGINE_H_

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <span>

#include "common/cancel.h"
#include "common/matrix.h"
#include "common/parallel.h"
#include "common/retry.h"
#include "common/run_stats.h"
#include "common/status.h"
#include "data/point_source.h"

namespace proclus {

/// Shape of the scan a consumer is about to receive.
struct ScanGeometry {
  /// Total rows in the source (N).
  size_t rows = 0;
  /// Dimensionality of each row (d).
  size_t dims = 0;
  /// Rows per block; every block except possibly the last has exactly
  /// this many rows.
  size_t block_rows = 0;
  /// Number of blocks covering the source.
  size_t num_blocks = 0;
  /// Serial number of the scan attempt, unique within the process and
  /// never 0: every consumer of one attempt sees the same value, and a
  /// re-issued attempt (rollback retry) sees a new one. Lets state that
  /// outlives a scan (core/consumers.h's MedoidDistanceCache) tell one
  /// attempt from the next.
  uint64_t attempt = 0;
};

/// One logical computation over a scan: allocates per-block partial state
/// in Prepare, accumulates into it block by block, and combines the
/// partials in block order in Merge. Consumers are reusable: Prepare is
/// called at the start of every scan and must reset any carried state
/// (implementations keep their buffers allocated across scans to avoid
/// per-iteration churn).
class ScanConsumer {
 public:
  virtual ~ScanConsumer() = default;

  /// Called once before any block is delivered.
  virtual Status Prepare(const ScanGeometry& geometry) = 0;

  /// Delivers one block of `rows` points starting at row `first_row`
  /// (`data` holds rows x dims doubles, row-major). May be called
  /// concurrently for distinct blocks; see the contract above.
  ///
  /// Re-delivery contract: after a transient shard failure the sharded
  /// executor delivers the failed shard's blocks again — same indices,
  /// same bytes, possibly after a truncated partial delivery — without an
  /// intervening Reset/Prepare. ConsumeBlock must therefore leave its
  /// block's partial (and any per-row state it writes) as if only the
  /// final delivery had happened: initialize-then-fill per call, or make
  /// only idempotent row-keyed / min-max updates. Every consumer in this
  /// repository already satisfies this (it is what their no-op Reset()
  /// overrides document).
  virtual void ConsumeBlock(size_t block_index, size_t first_row,
                            std::span<const double> data, size_t rows) = 0;

  /// Called sequentially after the last block; combines partials in
  /// ascending block order into the consumer's outputs.
  virtual Status Merge() = 0;

  /// Rollback contract: called by the executor when a scan attempt failed
  /// after delivering some blocks, before Prepare() is called again for
  /// the retry. After Reset() + Prepare(), the consumer must behave as if
  /// the failed attempt never happened — no partial state from discarded
  /// blocks may survive into the re-issued scan. The default is a no-op,
  /// which is correct for consumers whose Prepare() fully re-initializes
  /// every partial that Merge() reads.
  virtual void Reset() {}

  /// Point-to-point distance evaluations performed during the last scan
  /// (computed analytically so no cross-thread counting is needed).
  virtual uint64_t distance_evals() const { return 0; }

  /// Batched-kernel counters for the last scan (see distance/batch.h),
  /// summed over the consumer's per-block scratches. Consumers that use
  /// no batch kernels keep the all-zero default.
  struct KernelStats {
    uint64_t batches = 0;
    uint64_t rows_scored = 0;
    uint64_t tile_hits = 0;

    /// Adds the counters of one per-block KernelScratch (templated so
    /// this layer needs no dependency on distance/batch.h).
    template <typename Scratch>
    void Accumulate(const Scratch& scratch) {
      batches += scratch.batches;
      rows_scored += scratch.rows_scored;
      tile_hits += scratch.tile_hits;
    }
  };
  virtual KernelStats kernel_stats() const { return {}; }
};

/// Execution options for a scan (shared by the pass wrappers as
/// PassOptions).
struct ScanOptions {
  /// Worker threads for in-memory sources (1 = sequential). Results are
  /// independent of this value.
  size_t num_threads = 1;
  /// Rows per block (and per disk read).
  size_t block_rows = kDefaultBlockRows;
  /// Optional sink for data-movement counters; every Run adds the scan,
  /// rows, bytes, and distance evaluations it performed.
  RunStats* stats = nullptr;
  /// Retry schedule for transient scan failures (IOError/DataLoss). A
  /// failed attempt Resets every consumer and re-issues the whole scan;
  /// results are bit-identical whether or not any retry happened. Retry
  /// backoff sleeps are interruptible under `cancel`.
  RetryPolicy retry{};
  /// Cooperative cancellation token and/or absolute deadline for the
  /// whole scan (DESIGN.md §13). Checked once per block (one relaxed
  /// load, plus one steady-clock read when the deadline is finite), so a
  /// Cancel() unwinds within one block's work. Cancellation never changes
  /// results: a run either completes with bits identical to an
  /// uncancelled run or returns kCancelled/kDeadlineExceeded.
  CancelContext cancel{};
  /// Soft per-shard deadline for the sharded executor's stall watchdog
  /// (0 = disabled). A shard scan exceeding this budget is cancelled and
  /// hedged: re-issued against the same shard, whose re-delivered blocks
  /// the ConsumeBlock re-delivery contract absorbs — so hedging preserves
  /// bit-identity. Ignored by non-sharded scans.
  std::chrono::microseconds shard_soft_deadline{0};
  /// Hedged re-scans allowed per shard before the final attempt runs
  /// without the soft cap (so a merely-slow shard still terminates).
  size_t max_hedges_per_shard = 1;
};

/// Drives N consumers over one physical scan of a source.
class ScanExecutor {
 public:
  explicit ScanExecutor(const ScanOptions& options) : options_(options) {}

  /// Runs one scan: Prepare on every consumer, one ConsumeBlock per block
  /// per consumer, then Merge on every consumer in list order. Requires
  /// at least one consumer. A ShardedSource whose shard boundaries align
  /// with block_rows is delegated to the ShardedScanExecutor (per-shard
  /// parallel scan, per-shard retry) — the results are bit-identical
  /// either way, so callers need not know whether their source is
  /// sharded.
  Status Run(const PointSource& source,
             std::span<ScanConsumer* const> consumers) const;
  Status Run(const PointSource& source,
             std::initializer_list<ScanConsumer*> consumers) const {
    return Run(source,
               std::span<ScanConsumer* const>(consumers.begin(),
                                              consumers.size()));
  }

  const ScanOptions& options() const { return options_; }

 private:
  ScanOptions options_;
};

/// Drives N consumers over the shards of a ShardedSource.
///
/// Shards are scanned concurrently (up to options.num_threads shard scans
/// in flight on the persistent ThreadPool; 1 = sequential in shard
/// order), every block keeps the global block index it would have in the
/// unsharded scan, and the one Merge per consumer runs afterwards on the
/// calling thread in ascending block order. Because the merge order is a
/// property of the block geometry — not of shards or threads — the
/// result is bit-identical to ScanExecutor::Run over the unsharded
/// snapshot for ANY shard count and thread count.
///
/// Failure domains are per shard: a transiently failed shard scan is
/// re-issued alone under options.retry (its re-delivered blocks are
/// absorbed by the ConsumeBlock re-delivery contract; no other shard's
/// partials are touched), and per-shard scan/row/byte/retry counters are
/// recorded into RunStats::shard_io. A permanent shard failure fails the
/// whole scan after every in-flight shard completes.
///
/// Stall watchdog (options.shard_soft_deadline > 0): each shard attempt
/// that still has hedges left runs under the caller's context capped to
/// the soft deadline. A stalled attempt wakes at the cap (every injected
/// or retry sleep is interruptible), returns kDeadlineExceeded, and — if
/// the caller's own context is still live — the same worker re-scans just
/// that shard (a hedged attempt, counted in RunStats::hedged_scans and
/// ShardIo::hedges). Duplicate blocks are absorbed by the re-delivery
/// contract and a completed attempt delivers exactly the shard's blocks,
/// so the first attempt to complete defines the (identical) bits; once
/// hedges are exhausted the final attempt runs without the soft cap.
///
/// Requires shard boundaries aligned to options.block_rows
/// (ShardedSource::AlignedTo); unaligned sets fall back to the glued
/// sequential scan with wholesale retry, which is still bit-identical.
class ShardedScanExecutor {
 public:
  explicit ShardedScanExecutor(const ScanOptions& options)
      : options_(options) {}

  /// Runs one logical whole-set scan across the shards.
  Status Run(const ShardedSource& source,
             std::span<ScanConsumer* const> consumers) const;

  const ScanOptions& options() const { return options_; }

 private:
  ScanOptions options_;
};

/// Fetch with bounded retry of transient failures: re-issues
/// source.Fetch(indices) under `policy` while the status is transient
/// (IOError/DataLoss). Each re-issue is counted into stats->retries when
/// `stats` is non-null. Results are bit-identical to a first-try success.
/// Backoff sleeps are interruptible under `cancel`, and each attempt is
/// preceded by a cancellation check.
Result<Matrix> FetchWithRetry(const PointSource& source,
                              std::span<const size_t> indices,
                              const RetryPolicy& policy,
                              RunStats* stats = nullptr,
                              const CancelContext& cancel = {});

}  // namespace proclus

#endif  // PROCLUS_DATA_ENGINE_H_
