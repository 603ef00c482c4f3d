// Data-movement observability for scan-based algorithms.
//
// PROCLUS is a database algorithm: its cost model is "how many times do we
// read the data", not "how many FLOPs". RunStats makes that cost model
// measurable — every ScanExecutor::Run records what it moved, and the
// algorithm layers attribute scans and wall time to their phases — so a
// claim like "the fused engine halves the scans per iteration" is a counter
// comparison, not an estimate.

#ifndef PROCLUS_COMMON_RUN_STATS_H_
#define PROCLUS_COMMON_RUN_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace proclus {

/// Counters describing the data movement and phase timing of one run.
/// Filled by ScanExecutor (totals) and by the algorithm driver (per-phase
/// attribution); plain data, safe to copy.
struct RunStats {
  // ----- Totals over the whole run (recorded by ScanExecutor) -----
  /// Physical scans over the full point set.
  uint64_t scans_issued = 0;
  /// Rows delivered to consumers, summed over scans (n per scan).
  uint64_t rows_visited = 0;
  /// Bytes physically read from backing storage. Zero for in-memory
  /// sources whose blocks are zero-copy views.
  uint64_t bytes_read = 0;
  /// Point-to-point distance evaluations performed by scan consumers.
  uint64_t distance_evals = 0;

  // ----- Batched-kernel counters (recorded by ScanExecutor) -----
  /// Batch-kernel invocations (one reference point scored against one
  /// block of rows; see distance/batch.h).
  uint64_t kernel_batches = 0;
  /// (row, reference) pairs scored by batch kernels. kernel_rows divided
  /// by wall time is the row throughput of the kernel layer.
  uint64_t kernel_rows = 0;
  /// Batch-kernel invocations that reused a cached column tile instead of
  /// re-gathering it from the row-major block.
  uint64_t tile_reuse_hits = 0;
  /// Locality-scan medoid distance columns served from the cross-scan
  /// cache (fused engine only). Each hit skips one full n-row distance
  /// computation. Only medoids whose locality row missed the row memo
  /// below look up a column at all.
  uint64_t locality_cache_hits = 0;
  /// Locality-scan medoid distance columns that had to be computed.
  uint64_t locality_cache_misses = 0;
  /// Assignment-scan (medoid slot, dimension set) distance columns served
  /// from the same cross-scan cache (fused engine only): k lookups per
  /// assignment scan. Each hit skips one n-row segmental distance column.
  uint64_t assign_column_hits = 0;
  /// Assignment-scan distance columns that had to be scored.
  uint64_t assign_column_misses = 0;
  /// Locality statistics rows (one medoid's d averages for one delta)
  /// served from the cross-scan row memo (fused engine only). Each hit
  /// skips that row's whole n-row accumulation.
  uint64_t locality_row_hits = 0;
  /// Locality statistics rows the scans had to accumulate. Counted once
  /// per distinct (medoid slot, delta) per scan, however many
  /// speculative variants share it.
  uint64_t locality_row_misses = 0;

  // ----- Resilience counters (recorded by ScanExecutor / retry helpers) -----
  /// Operations (block reads or fetches) re-issued after a transient
  /// failure.
  uint64_t retries = 0;
  /// Block read attempts that ended in a failure (whether or not
  /// retried).
  uint64_t failed_scans = 0;
  /// Rows read but never merged: the part of a block a short read handed
  /// over (never consumed), plus the blocks a scan consumed before it
  /// failed or was cancelled (no Merge ran).
  uint64_t wasted_rows = 0;

  // ----- Time-bounded execution counters (DESIGN.md §13) -----
  /// Cooperative cancellation checkpoints passed by executor-driven scans
  /// (one per block read attempt plus one per scan entry; only counted
  /// while a CancelContext is active).
  uint64_t cancel_checks = 0;
  /// Scans aborted by cancellation or deadline expiry.
  uint64_t cancelled_scans = 0;
  /// Block reads re-issued by the executor's stall watchdog after an
  /// attempt exceeded the soft per-read deadline (hedged re-reads).
  uint64_t hedged_scans = 0;
  /// Deadline expiries observed by executor-driven operations (soft
  /// per-read watchdog deadlines included).
  uint64_t deadline_misses = 0;

  // ----- Scan attribution per phase (recorded by the driver) -----
  /// Scans issued by the initialization phase (0 for PROCLUS: the phase
  /// only fetches the sample by position).
  uint64_t init_scans = 0;
  /// One locality-statistics bootstrap scan per hill-climbing restart:
  /// later iterations get their locality statistics from the previous
  /// iteration's evaluation scan.
  uint64_t bootstrap_scans = 0;
  /// Scans issued by steady-state hill-climbing iterations. The per-
  /// iteration scan budget is iterative_scans / iterations: 2, where the
  /// paper's passes read the data 4 times.
  uint64_t iterative_scans = 0;
  /// Scans issued by the refinement phase.
  uint64_t refine_scans = 0;

  // ----- Wall time per phase (recorded by the driver) -----
  double init_seconds = 0.0;
  double iterative_seconds = 0.0;
  double refine_seconds = 0.0;
  double total_seconds = 0.0;

  // ----- Per-shard attribution (recorded by ScanExecutor) -----
  /// One shard's share of the scans of a ShardedSource, filled once per
  /// block read: reads, rows and bytes from the shard's own counters,
  /// retries and hedges for the shard holding the block's first row.
  /// Empty unless the run scanned a ShardedSource.
  struct ShardIo {
    /// Completed reads of this shard (one per block it holds, per scan;
    /// a block spanning shards is a read of each).
    uint64_t scans = 0;
    /// Rows this shard delivered in completed reads.
    uint64_t rows = 0;
    /// Bytes physically read from this shard's backing storage.
    uint64_t bytes = 0;
    /// Block read re-issues after transient failures.
    uint64_t retries = 0;
    /// Hedged block re-reads (soft-deadline watchdog re-issues).
    uint64_t hedges = 0;

    void Merge(const ShardIo& other) {
      scans += other.scans;
      rows += other.rows;
      bytes += other.bytes;
      retries += other.retries;
      hedges += other.hedges;
    }
  };
  /// Indexed by shard; shorter runs merge element-wise (shard identity is
  /// positional, which matches the fixed shard order of a manifest).
  std::vector<ShardIo> shard_io;

  /// Adds every counter of `other` into this (for aggregating runs).
  void Merge(const RunStats& other) {
    scans_issued += other.scans_issued;
    rows_visited += other.rows_visited;
    bytes_read += other.bytes_read;
    distance_evals += other.distance_evals;
    kernel_batches += other.kernel_batches;
    kernel_rows += other.kernel_rows;
    tile_reuse_hits += other.tile_reuse_hits;
    locality_cache_hits += other.locality_cache_hits;
    locality_cache_misses += other.locality_cache_misses;
    assign_column_hits += other.assign_column_hits;
    assign_column_misses += other.assign_column_misses;
    locality_row_hits += other.locality_row_hits;
    locality_row_misses += other.locality_row_misses;
    retries += other.retries;
    failed_scans += other.failed_scans;
    wasted_rows += other.wasted_rows;
    cancel_checks += other.cancel_checks;
    cancelled_scans += other.cancelled_scans;
    hedged_scans += other.hedged_scans;
    deadline_misses += other.deadline_misses;
    init_scans += other.init_scans;
    bootstrap_scans += other.bootstrap_scans;
    iterative_scans += other.iterative_scans;
    refine_scans += other.refine_scans;
    init_seconds += other.init_seconds;
    iterative_seconds += other.iterative_seconds;
    refine_seconds += other.refine_seconds;
    total_seconds += other.total_seconds;
    if (shard_io.size() < other.shard_io.size())
      shard_io.resize(other.shard_io.size());
    for (size_t s = 0; s < other.shard_io.size(); ++s)
      shard_io[s].Merge(other.shard_io[s]);
  }
};

}  // namespace proclus

#endif  // PROCLUS_COMMON_RUN_STATS_H_
