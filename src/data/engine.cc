#include "data/engine.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
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

// What the reads of one block cost, written only by the worker that owns
// the block and folded into RunStats on the calling thread afterwards.
struct BlockTally {
  uint64_t bytes = 0;
  uint64_t wasted_rows = 0;  // Delivered, but not the whole block.
  uint32_t checks = 0;
  uint32_t failed = 0;
  uint32_t retries = 0;
  uint32_t hedges = 0;
  bool consumed = false;
};

}  // namespace

Status ScanExecutor::Run(const PointSource& source,
                         std::span<ScanConsumer* const> consumers) const {
  if (options_.block_rows == 0)
    return Status::InvalidArgument("block_rows must be > 0");
  if (consumers.empty())
    return Status::InvalidArgument("no consumers");
  RunStats* const stats = options_.stats;
  const CancelContext& cancel = options_.cancel;

  // Pre-check before any consumer is prepared: an already-cancelled or
  // already-expired context costs no work at all.
  if (cancel.active()) {
    if (stats != nullptr) stats->cancel_checks += 1;
    PROCLUS_RETURN_IF_ERROR(cancel.Check());
  }

  ScanGeometry geometry;
  geometry.rows = source.size();
  geometry.dims = source.dims();
  geometry.block_rows = options_.block_rows;
  geometry.num_blocks = BlockCount(geometry.rows, geometry.block_rows);
  geometry.attempt = NextScanAttempt();
  for (ScanConsumer* consumer : consumers)
    PROCLUS_RETURN_IF_ERROR(consumer->Prepare(geometry));

  const ShardedSource* sharded = source.Sharded();
  std::vector<IoCounters> shard_before;
  if (sharded != nullptr) {
    for (size_t s = 0; s < sharded->num_shards(); ++s)
      shard_before.push_back(sharded->shard(s).io());
  }

  // Parallel region: each worker reads its own blocks and runs every
  // consumer on them. Workers share the read-only source, per-block
  // consumer state and tallies at distinct block indices, the stop flag
  // and the first-error slot (the ownership contract in engine.h /
  // DESIGN.md §10).
  std::vector<BlockTally> tallies(geometry.num_blocks);
  // order: relaxed — advisory stop flag; a worker observing it late only
  // reads one more (already-owned) block of a scan that is failing anyway.
  std::atomic<bool> stop{false};
  struct FirstError {
    Mutex mu;
    Status status PROCLUS_GUARDED_BY(mu) = Status::OK();
  } fail;
  const size_t max_attempts =
      options_.retry.max_attempts == 0 ? 1 : options_.retry.max_attempts;
  const bool watchdog = options_.shard_soft_deadline.count() > 0;

  auto read_block = [&](size_t block, size_t first, size_t count) {
    if (stop.load(std::memory_order_relaxed)) return;
    BlockTally& tally = tallies[block];
    ScanSpec spec;
    spec.first_row = first;
    spec.end_row = first + count;
    size_t hedges_left = options_.max_hedges_per_shard;
    Status status;
    for (size_t attempt = 1;;) {
      // Stall watchdog: while hedges remain, the attempt runs under the
      // caller's context capped to the soft deadline, so a stalled or hung
      // read wakes at the cap. The final attempt drops the cap: a read
      // that is merely slow must still complete.
      const bool soft = watchdog && hedges_left > 0;
      spec.cancel = soft ? cancel.WithDeadlineCapped(Deadline::After(
                               options_.shard_soft_deadline))
                         : cancel;
      if (cancel.active()) tally.checks += 1;
      size_t stray_rows = 0;
      const uint64_t bytes_before = ThreadScanBytesRead();
      status = source.Scan(
          spec, [&](size_t row, std::span<const double> data, size_t rows) {
            // Consumers see only the whole block, and only once.
            if (row != first || rows != count || tally.consumed) {
              stray_rows += rows;
              return;
            }
            tally.consumed = true;
            for (ScanConsumer* consumer : consumers)
              consumer->ConsumeBlock(block, first, data, rows);
          });
      tally.bytes += ThreadScanBytesRead() - bytes_before;
      tally.wasted_rows += stray_rows;
      // A read that fails after its whole block was consumed cannot be
      // re-issued without consuming the block twice: it fails the scan.
      if (tally.consumed) break;
      if (status.ok()) {
        status = Status::IOError(
            "short read of block " + std::to_string(block) + ": rows [" +
            std::to_string(first) + ", " + std::to_string(first + count) +
            ") asked, " + std::to_string(stray_rows) + " delivered");
      }
      if (IsCancelCode(status)) {
        const Status parent = cancel.Check();
        if (status.code() == StatusCode::kDeadlineExceeded && soft &&
            parent.ok()) {
          // The watchdog fired, not the caller: hedge.
          hedges_left -= 1;
          tally.hedges += 1;
          continue;
        }
        // Report the caller's view when it has one.
        if (!parent.ok()) status = parent;
        break;
      }
      tally.failed += 1;
      if (!IsTransient(status) || attempt >= max_attempts) break;
      tally.retries += 1;
      status = SleepBackoff(options_.retry, attempt, cancel);
      if (!status.ok()) break;
      attempt += 1;
    }
    if (status.ok()) return;
    {
      MutexLock lock(fail.mu);
      if (fail.status.ok()) fail.status = std::move(status);
    }
    stop.store(true, std::memory_order_relaxed);
  };
  // Storage reads get 2T workers, but no more than the pool has threads
  // (the host's cores unless configured otherwise): ParallelBlocks maps
  // blocks to workers statically, so workers beyond what runs at once
  // would finish in a second, half-idle wave.
  const size_t threads =
      std::clamp<size_t>(options_.num_threads, 1, SIZE_MAX / 2);
  size_t workers = threads;
  if (source.InMemory() == nullptr) {
    workers = std::max(
        threads, std::min(2 * threads, ThreadPool::Global().num_threads()));
  }
  ParallelBlocks(geometry.rows, options_.block_rows, workers, read_block);

  // Workers' writes are published by the pool's completion handshake;
  // the lock below is for the annotation discipline, not for ordering.
  Status failure;
  {
    MutexLock lock(fail.mu);
    failure = fail.status;
  }
  uint64_t bytes = 0;
  uint64_t consumed_rows = 0;
  if (stats != nullptr) {
    for (size_t b = 0; b < tallies.size(); ++b) {
      const BlockTally& tally = tallies[b];
      bytes += tally.bytes;
      if (tally.consumed)
        consumed_rows += std::min(geometry.block_rows,
                                  geometry.rows - b * geometry.block_rows);
      stats->wasted_rows += tally.wasted_rows;
      stats->cancel_checks += tally.checks;
      stats->failed_scans += tally.failed;
      stats->retries += tally.retries;
      stats->hedged_scans += tally.hedges;
      stats->deadline_misses += tally.hedges;
    }
  }
  if (!failure.ok()) {
    if (stats != nullptr) {
      // Every block consumed by a scan that merges nothing was wasted.
      stats->wasted_rows += consumed_rows;
      if (IsCancelCode(failure)) {
        stats->cancelled_scans += 1;
        if (failure.code() == StatusCode::kDeadlineExceeded)
          stats->deadline_misses += 1;
      }
    }
    return failure;
  }

  for (ScanConsumer* consumer : consumers)
    PROCLUS_RETURN_IF_ERROR(consumer->Merge());

  if (stats != nullptr) {
    stats->scans_issued += 1;
    stats->rows_visited += geometry.rows;
    stats->bytes_read += bytes;
    for (ScanConsumer* consumer : consumers) {
      stats->distance_evals += consumer->distance_evals();
      const ScanConsumer::KernelStats kernel = consumer->kernel_stats();
      stats->kernel_batches += kernel.batches;
      stats->kernel_rows += kernel.rows_scored;
      stats->tile_reuse_hits += kernel.tile_hits;
    }
    if (sharded != nullptr) {
      // Reads, rows and bytes from each shard's own counters; retries and
      // hedges go to the shard holding the block's first row.
      const size_t num_shards = sharded->num_shards();
      if (stats->shard_io.size() < num_shards)
        stats->shard_io.resize(num_shards);
      for (size_t s = 0; s < num_shards; ++s) {
        const IoCounters after = sharded->shard(s).io();
        RunStats::ShardIo& io = stats->shard_io[s];
        io.scans += after.scans - shard_before[s].scans;
        io.rows += after.rows_scanned - shard_before[s].rows_scanned;
        io.bytes += after.bytes_read - shard_before[s].bytes_read;
      }
      for (size_t b = 0; b < tallies.size(); ++b) {
        RunStats::ShardIo& io =
            stats->shard_io[sharded->ShardOf(b * geometry.block_rows)];
        io.retries += tallies[b].retries;
        io.hedges += tallies[b].hedges;
      }
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
