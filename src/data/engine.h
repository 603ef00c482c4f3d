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
// One read loop serves every source. ScanExecutor::Run spreads the scan's
// blocks over pool workers (ParallelBlocks); each worker gets its block's
// bytes with one Scan of the source, which reads just that block — a
// zero-copy view in memory, a read plus checksum verify into the worker's
// own buffer on disk, a row-range route on a shard set — and runs every
// consumer on them before it takes its next block.
//
// Determinism contract (inherited from common/parallel.h and preserved for
// every consumer the executor runs):
//  * ConsumeBlock is invoked exactly once per block, with the whole block,
//    possibly concurrently for distinct blocks. A consumer must only touch
//    state owned by that block (keyed by block_index) or per-point state
//    at disjoint row ranges (keyed by first_row).
//  * Merge runs sequentially after all blocks, and must combine partials
//    in ascending block order. Floating-point addition is not associative,
//    so this ordering — never the thread schedule, the shard layout or a
//    retried read — defines the result: outputs are bit-identical for
//    every thread count, including 1, and every shard count.
//  * When several consumers share a scan, each block is offered to them in
//    list order within the same visit; consumers never observe each
//    other's partials, so a fused run is bit-identical to running the
//    same consumers over separate scans.
//
// Failure and cancellation are per block. A source delivers a block only
// after reading and verifying all of it, and consumers run only on a
// delivery that is exactly the block asked for, so a failed or short read
// is retried for that block alone and no consumer state is ever rolled
// back. A scan that still fails, or is cancelled, returns its Status
// without running any Merge.
//
// Concurrency & ownership (the full ownership map is DESIGN.md §10): the
// executor's parallel region touches only per-block state — consumer
// partials keyed by block index (or disjoint per-row ranges) and the
// executor's own per-block tallies. Prepare/Merge and every RunStats write
// happen on the calling thread strictly before or after that region. The
// cross-thread cells are the PointSource IoCounters (relaxed
// GuardedCounters, see data/point_source.h) and the region's first-error
// slot and stop flag. The locking that does exist lives one layer down in
// the ThreadPool, whose discipline is compile-checked via the annotations
// in common/sync.h under the `tsa` preset.

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
  /// Serial number of the scan, unique within the process and never 0:
  /// every consumer of one scan sees the same value. Lets state that
  /// outlives a scan (core/consumers.h's MedoidDistanceCache) tell one
  /// scan from the next.
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

  /// Delivers one whole, verified block of `rows` points starting at row
  /// `first_row` (`data` holds rows x dims doubles, row-major). Called
  /// exactly once per block of a scan, possibly concurrently for distinct
  /// blocks; see the contract above.
  virtual void ConsumeBlock(size_t block_index, size_t first_row,
                            std::span<const double> data, size_t rows) = 0;

  /// Called sequentially after the last block; combines partials in
  /// ascending block order into the consumer's outputs.
  virtual Status Merge() = 0;

  /// Never called by the executor: a failed read is retried for its block
  /// alone, and consumers never see a partial block, so there is nothing
  /// to roll back. Kept as a no-op for subclasses outside src/ that still
  /// override it.
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

/// Execution options for a scan (also ClassifyOptions::pass).
struct ScanOptions {
  /// Thread budget T. A source whose blocks are memory views (InMemory()
  /// non-null) is scanned by T workers; a source read from storage by 2T,
  /// so that while one worker waits on its read another consumes its
  /// block — the budget of the former one-producer-thread-per-scan design
  /// — capped at the thread pool's size (but never below T).
  /// 0 is treated as 1. Results are independent of this value.
  size_t num_threads = 1;
  /// Rows per block (and per disk read).
  size_t block_rows = kDefaultBlockRows;
  /// Optional sink for data-movement counters; every Run adds the scan,
  /// rows, bytes, and distance evaluations it performed.
  RunStats* stats = nullptr;
  /// Retry schedule for transient read failures (IOError/DataLoss). A
  /// failed block read is re-issued for that block alone; consumers only
  /// ever see whole, verified blocks, so results are bit-identical whether
  /// or not any retry happened. Backoff sleeps are interruptible under
  /// `cancel`.
  RetryPolicy retry{};
  /// Cooperative cancellation token and/or absolute deadline for the
  /// whole scan (DESIGN.md §13). Checked once per block read (one relaxed
  /// load, plus one steady-clock read when the deadline is finite), so a
  /// Cancel() unwinds within one block's work per worker. Cancellation
  /// never changes results: a run either completes with bits identical to
  /// an uncancelled run or returns kCancelled/kDeadlineExceeded.
  CancelContext cancel{};
  /// Soft deadline of one block read attempt, the stall watchdog (0 =
  /// disabled). An attempt that exceeds it is cancelled and hedged:
  /// re-issued for the same block. A block is consumed only once, from
  /// whichever attempt delivers it whole, so hedging preserves
  /// bit-identity. Named for the shard sets whose stragglers it targets;
  /// it applies to every source.
  std::chrono::microseconds shard_soft_deadline{0};
  /// Hedged re-reads allowed per block read before the final attempt runs
  /// without the soft cap (so a merely slow read still completes).
  size_t max_hedges_per_shard = 1;
};

/// Drives N consumers over one physical scan of a source.
class ScanExecutor {
 public:
  explicit ScanExecutor(const ScanOptions& options) : options_(options) {}

  /// Runs one scan: Prepare on every consumer, one ConsumeBlock per block
  /// per consumer, then Merge on every consumer in list order. Requires
  /// at least one consumer. For a shard set (PointSource::Sharded()) the
  /// per-shard counters land in RunStats::shard_io.
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
