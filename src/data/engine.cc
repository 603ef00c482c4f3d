#include "data/engine.h"

#include <algorithm>
#include <atomic>
#include <utility>
#include <vector>

#include "common/sync.h"
#include "common/thread_pool.h"
#include "data/sharded_source.h"

namespace proclus {

namespace {

// True for the two time-bounded-execution codes: a scan that stopped
// because someone asked it to, not because storage failed. Kept out of
// failed_scans so fault accounting stays truthful.
bool IsCancelCode(const Status& status) {
  return status.code() == StatusCode::kCancelled ||
         status.code() == StatusCode::kDeadlineExceeded;
}

// Next ScanGeometry::attempt; never 0.
uint64_t NextScanAttempt() {
  // order: relaxed — a unique ticket; nothing is published through it.
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

Status ScanExecutor::Run(const PointSource& source,
                         std::span<ScanConsumer* const> consumers) const {
  if (options_.block_rows == 0)
    return Status::InvalidArgument("block_rows must be > 0");
  if (consumers.empty())
    return Status::InvalidArgument("no consumers");

  // Shard sets with block-aligned boundaries take the per-shard path
  // (concurrent shard scans, per-shard retry, per-shard counters);
  // unaligned sets keep the glued sequential Scan below. Either way the
  // bits match the unsharded run.
  if (const ShardedSource* sharded = source.Sharded();
      sharded != nullptr && sharded->AlignedTo(options_.block_rows)) {
    return ShardedScanExecutor(options_).Run(*sharded, consumers);
  }

  // Pre-check before any consumer is prepared: an already-cancelled or
  // already-expired context costs no work at all.
  if (options_.cancel.active()) {
    if (options_.stats != nullptr) options_.stats->cancel_checks += 1;
    PROCLUS_RETURN_IF_ERROR(options_.cancel.Check());
  }

  ScanGeometry geometry;
  geometry.rows = source.size();
  geometry.dims = source.dims();
  geometry.block_rows = options_.block_rows;
  geometry.num_blocks = BlockCount(geometry.rows, geometry.block_rows);
  geometry.attempt = NextScanAttempt();
  for (ScanConsumer* consumer : consumers)
    PROCLUS_RETURN_IF_ERROR(consumer->Prepare(geometry));

  const IoCounters before = source.io();
  const Dataset* memory = source.InMemory();
  if (memory == nullptr || options_.num_threads <= 1) {
    // A scan can fail mid-pass (transient I/O error, detected corruption,
    // short read) after blocks were already delivered. Every consumer is
    // rolled back (Reset + re-Prepare) and the whole scan re-issued under
    // the retry policy, so a survived fault changes counters but never
    // results.
    const size_t max_attempts =
        options_.retry.max_attempts == 0 ? 1 : options_.retry.max_attempts;
    ScanSpec spec;
    spec.block_rows = options_.block_rows;
    spec.cancel = options_.cancel;
    for (size_t attempt = 1;; ++attempt) {
      uint64_t delivered_rows = 0;
      uint64_t delivered_blocks = 0;
      Status status = source.Scan(
          spec,
          [&](size_t first, std::span<const double> data, size_t rows) {
            const size_t block = first / options_.block_rows;
            delivered_rows += rows;
            delivered_blocks += 1;
            for (ScanConsumer* consumer : consumers)
              consumer->ConsumeBlock(block, first, data, rows);
          });
      // One check per delivered block plus the pre-delivery check inside
      // Scan(); only counted while the context is live.
      if (options_.stats != nullptr && options_.cancel.active())
        options_.stats->cancel_checks += delivered_blocks + 1;
      if (status.ok()) break;
      if (IsCancelCode(status)) {
        if (options_.stats != nullptr) {
          options_.stats->cancelled_scans += 1;
          if (status.code() == StatusCode::kDeadlineExceeded)
            options_.stats->deadline_misses += 1;
          options_.stats->wasted_rows += delivered_rows;
        }
        return status;
      }
      const bool retryable =
          IsTransient(status) && attempt < max_attempts;
      if (options_.stats != nullptr) {
        options_.stats->failed_scans += 1;
        options_.stats->wasted_rows += delivered_rows;
        if (retryable) options_.stats->retries += 1;
      }
      if (!retryable) return status;
      for (ScanConsumer* consumer : consumers) consumer->Reset();
      geometry.attempt = NextScanAttempt();
      for (ScanConsumer* consumer : consumers)
        PROCLUS_RETURN_IF_ERROR(consumer->Prepare(geometry));
      PROCLUS_RETURN_IF_ERROR(
          SleepBackoff(options_.retry, attempt, options_.cancel));
    }
  } else {
    // Parallel region: workers share nothing but the read-only source
    // view and per-block consumer state at distinct block indices (the
    // ownership contract in engine.h / DESIGN.md §10). Everything the
    // executor itself mutates — stats, the RecordScan below, Merge —
    // happens on this thread outside the region.
    const size_t d = memory->dims();
    const std::vector<double>& data = memory->matrix().data();
    const bool active = options_.cancel.active();
    // order: relaxed — advisory stop flag; a worker observing it late
    // only consumes one extra (already-owned) block, which is harmless:
    // the run is failing anyway and delivered partials are discarded.
    std::atomic<bool> stop{false};
    // order: relaxed — pure statistics, read after the pool handshake.
    std::atomic<uint64_t> checks{0};
    // order: relaxed — statistic (rows consumed before a stop), read
    // after the pool handshake.
    std::atomic<uint64_t> consumed_rows{0};
    // First failure wins; workers race to it under the mutex.
    struct FirstError {
      Mutex mu;
      Status status PROCLUS_GUARDED_BY(mu) = Status::OK();
    } fail;
    ParallelBlocks(geometry.rows, options_.block_rows, options_.num_threads,
                   [&](size_t block, size_t first, size_t count) {
                     if (active) {
                       if (stop.load(std::memory_order_relaxed)) return;
                       checks.fetch_add(1, std::memory_order_relaxed);
                       Status status = options_.cancel.Check();
                       if (!status.ok()) {
                         {
                           MutexLock lock(fail.mu);
                           if (fail.status.ok())
                             fail.status = std::move(status);
                         }
                         stop.store(true, std::memory_order_relaxed);
                         return;
                       }
                     }
                     std::span<const double> view(data.data() + first * d,
                                                  count * d);
                     for (ScanConsumer* consumer : consumers)
                       consumer->ConsumeBlock(block, first, view, count);
                     if (active)
                       consumed_rows.fetch_add(count,
                                               std::memory_order_relaxed);
                   });
    // Workers' writes are published by the pool's completion handshake;
    // the lock below is for the annotation discipline, not for ordering.
    Status cancelled;
    {
      MutexLock lock(fail.mu);
      cancelled = fail.status;
    }
    if (options_.stats != nullptr && active)
      options_.stats->cancel_checks += checks.load(std::memory_order_relaxed);
    if (!cancelled.ok()) {
      // Record what was actually visited before the stop took hold.
      source.RecordScan(consumed_rows.load(std::memory_order_relaxed),
                        /*bytes=*/0);
      if (options_.stats != nullptr) {
        options_.stats->cancelled_scans += 1;
        if (cancelled.code() == StatusCode::kDeadlineExceeded)
          options_.stats->deadline_misses += 1;
        options_.stats->wasted_rows +=
            consumed_rows.load(std::memory_order_relaxed);
      }
      return cancelled;
    }
    // The zero-copy parallel path bypasses Scan(); keep the source's
    // counters truthful anyway.
    source.RecordScan(geometry.rows, /*bytes=*/0);
  }

  for (ScanConsumer* consumer : consumers)
    PROCLUS_RETURN_IF_ERROR(consumer->Merge());

  if (options_.stats != nullptr) {
    options_.stats->scans_issued += 1;
    options_.stats->rows_visited += geometry.rows;
    options_.stats->bytes_read += source.io().bytes_read - before.bytes_read;
    for (ScanConsumer* consumer : consumers) {
      options_.stats->distance_evals += consumer->distance_evals();
      const ScanConsumer::KernelStats kernel = consumer->kernel_stats();
      options_.stats->kernel_batches += kernel.batches;
      options_.stats->kernel_rows += kernel.rows_scored;
      options_.stats->tile_reuse_hits += kernel.tile_hits;
    }
  }
  return Status::OK();
}

Status ShardedScanExecutor::Run(const ShardedSource& source,
                                std::span<ScanConsumer* const> consumers)
    const {
  if (options_.block_rows == 0)
    return Status::InvalidArgument("block_rows must be > 0");
  if (consumers.empty())
    return Status::InvalidArgument("no consumers");
  // Unaligned shard boundaries would put one scan block in two shards;
  // the glued sequential path handles that geometry bit-identically.
  // (ScanExecutor::Run cannot re-delegate here: its delegation requires
  // AlignedTo, which just failed.)
  if (!source.AlignedTo(options_.block_rows))
    return ScanExecutor(options_).Run(source, consumers);

  if (options_.cancel.active()) {
    if (options_.stats != nullptr) options_.stats->cancel_checks += 1;
    PROCLUS_RETURN_IF_ERROR(options_.cancel.Check());
  }

  ScanGeometry geometry;
  geometry.rows = source.size();
  geometry.dims = source.dims();
  geometry.block_rows = options_.block_rows;
  geometry.num_blocks = BlockCount(geometry.rows, geometry.block_rows);
  geometry.attempt = NextScanAttempt();
  for (ScanConsumer* consumer : consumers)
    PROCLUS_RETURN_IF_ERROR(consumer->Prepare(geometry));

  // Everything a shard scan mutates lives in its own outcome slot; the
  // aggregation below runs on the calling thread after the parallel
  // region (same ownership-partitioning argument as ScanExecutor::Run,
  // one level up: workers share only per-block consumer state at
  // distinct global block indices).
  struct ShardOutcome {
    Status status = Status::OK();
    RunStats::ShardIo io;
    uint64_t failed_scans = 0;
    uint64_t wasted_rows = 0;
    uint64_t cancel_checks = 0;
    uint64_t deadline_misses = 0;
    bool cancelled = false;
  };
  const size_t num_shards = source.num_shards();
  std::vector<ShardOutcome> outcomes(num_shards);

  auto scan_shard = [&](size_t s) {
    ShardOutcome& outcome = outcomes[s];
    const PointSource& shard = source.shard(s);
    const size_t offset = source.shard_offset(s);
    const size_t max_attempts =
        options_.retry.max_attempts == 0 ? 1 : options_.retry.max_attempts;
    const bool watchdog = options_.shard_soft_deadline.count() > 0;
    size_t hedges_left = options_.max_hedges_per_shard;
    size_t attempt = 1;
    for (;;) {
      // Stall watchdog: while hedges remain, the attempt runs under the
      // caller's context capped to the soft per-shard deadline, so a
      // stalled or hung storage operation wakes at the cap instead of
      // holding the worker. The final attempt drops the cap — a shard
      // that is merely slow must still complete.
      const bool soft = watchdog && hedges_left > 0;
      ScanSpec spec;
      spec.block_rows = options_.block_rows;
      spec.cancel =
          soft ? options_.cancel.WithDeadlineCapped(
                     Deadline::After(options_.shard_soft_deadline))
               : options_.cancel;
      const uint64_t bytes_before = shard.io().bytes_read;
      uint64_t delivered_rows = 0;
      uint64_t delivered_blocks = 0;
      Status status = shard.Scan(
          spec,
          [&](size_t first, std::span<const double> data, size_t rows) {
            // Aligned boundaries make the global index the index this
            // block has in the unsharded scan — the whole determinism
            // argument in one line.
            const size_t global_first = offset + first;
            delivered_rows += rows;
            delivered_blocks += 1;
            const size_t block = global_first / options_.block_rows;
            for (ScanConsumer* consumer : consumers)
              consumer->ConsumeBlock(block, global_first, data, rows);
          });
      outcome.io.bytes += shard.io().bytes_read - bytes_before;
      if (spec.cancel.active())
        outcome.cancel_checks += delivered_blocks + 1;
      if (status.ok()) {
        outcome.io.scans += 1;
        outcome.io.rows += delivered_rows;
        break;
      }
      if (IsCancelCode(status)) {
        const Status parent = options_.cancel.Check();
        if (status.code() == StatusCode::kDeadlineExceeded && soft &&
            parent.ok()) {
          // The watchdog fired, not the caller: hedge. The re-scan
          // re-delivers this shard's blocks (same indices, same bytes),
          // which the ConsumeBlock re-delivery contract absorbs, and a
          // completed attempt — whichever one — delivers exactly the
          // shard's blocks, so hedging cannot change bits. A completed
          // primary never reaches this branch: first completion wins.
          hedges_left -= 1;
          outcome.io.hedges += 1;
          outcome.deadline_misses += 1;
          outcome.wasted_rows += delivered_rows;
          continue;
        }
        // The caller's own token or deadline ended the shard; report the
        // caller's view when it has one.
        outcome.cancelled = true;
        outcome.status = parent.ok() ? status : parent;
        if (outcome.status.code() == StatusCode::kDeadlineExceeded)
          outcome.deadline_misses += 1;
        outcome.wasted_rows += delivered_rows;
        break;
      }
      outcome.failed_scans += 1;
      outcome.wasted_rows += delivered_rows;
      if (!IsTransient(status) || attempt >= max_attempts) {
        outcome.status = status;
        break;
      }
      // Per-shard retry without consumer rollback: the re-issue delivers
      // the same blocks with the same bytes, which the ConsumeBlock
      // re-delivery contract absorbs; every other shard's blocks are
      // disjoint by construction.
      outcome.io.retries += 1;
      const Status slept =
          SleepBackoff(options_.retry, attempt, options_.cancel);
      if (!slept.ok()) {
        outcome.cancelled = true;
        outcome.status = slept;
        if (slept.code() == StatusCode::kDeadlineExceeded)
          outcome.deadline_misses += 1;
        break;
      }
      attempt += 1;
    }
  };

  const size_t workers =
      std::min(options_.num_threads == 0 ? 1 : options_.num_threads,
               num_shards);
  if (workers <= 1) {
    for (size_t s = 0; s < num_shards; ++s) scan_shard(s);
  } else {
    // order: relaxed — pure shard-index ticket; the claimed slot's writes
    // are published to the caller by ThreadPool::Run's completion
    // handshake, not by this counter.
    std::atomic<size_t> next_shard{0};
    ThreadPool::Global().Run(workers, [&](size_t) {
      for (;;) {
        const size_t s = next_shard.fetch_add(1, std::memory_order_relaxed);
        if (s >= num_shards) break;
        scan_shard(s);
      }
    });
  }

  Status first_error = Status::OK();
  uint64_t bytes_total = 0;
  for (size_t s = 0; s < num_shards; ++s) {
    const ShardOutcome& outcome = outcomes[s];
    bytes_total += outcome.io.bytes;
    if (options_.stats != nullptr) {
      options_.stats->failed_scans += outcome.failed_scans;
      options_.stats->wasted_rows += outcome.wasted_rows;
      options_.stats->retries += outcome.io.retries;
      options_.stats->cancel_checks += outcome.cancel_checks;
      options_.stats->deadline_misses += outcome.deadline_misses;
      options_.stats->hedged_scans += outcome.io.hedges;
      if (outcome.cancelled) options_.stats->cancelled_scans += 1;
    }
    if (first_error.ok() && !outcome.status.ok())
      first_error = outcome.status;
  }
  if (!first_error.ok()) return first_error;

  // One global merge, ascending block order — shard count cannot matter.
  for (ScanConsumer* consumer : consumers)
    PROCLUS_RETURN_IF_ERROR(consumer->Merge());

  // The shards recorded their physical scans into their own counters;
  // record the logical whole-set scan (and its physical bytes) on the
  // shard set itself so its counters stay truthful too.
  source.RecordScan(geometry.rows, bytes_total);

  if (options_.stats != nullptr) {
    options_.stats->scans_issued += 1;
    options_.stats->rows_visited += geometry.rows;
    options_.stats->bytes_read += bytes_total;
    if (options_.stats->shard_io.size() < num_shards)
      options_.stats->shard_io.resize(num_shards);
    for (size_t s = 0; s < num_shards; ++s)
      options_.stats->shard_io[s].Merge(outcomes[s].io);
    for (ScanConsumer* consumer : consumers) {
      options_.stats->distance_evals += consumer->distance_evals();
      const ScanConsumer::KernelStats kernel = consumer->kernel_stats();
      options_.stats->kernel_batches += kernel.batches;
      options_.stats->kernel_rows += kernel.rows_scored;
      options_.stats->tile_reuse_hits += kernel.tile_hits;
    }
  }
  return Status::OK();
}

Result<Matrix> FetchWithRetry(const PointSource& source,
                              std::span<const size_t> indices,
                              const RetryPolicy& policy,
                              RunStats* stats,
                              const CancelContext& cancel) {
  const size_t max_attempts =
      policy.max_attempts == 0 ? 1 : policy.max_attempts;
  for (size_t attempt = 1;; ++attempt) {
    if (cancel.active()) {
      if (stats != nullptr) stats->cancel_checks += 1;
      PROCLUS_RETURN_IF_ERROR(cancel.Check());
    }
    Result<Matrix> result = source.Fetch(indices);
    if (result.ok() || !IsTransient(result.status()) ||
        attempt >= max_attempts) {
      return result;
    }
    if (stats != nullptr) stats->retries += 1;
    PROCLUS_RETURN_IF_ERROR(SleepBackoff(policy, attempt, cancel));
  }
}

}  // namespace proclus
