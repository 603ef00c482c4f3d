// Time-bounded execution tests (DESIGN.md §13) at the scan-engine and
// driver level:
//
//  * A pre-cancelled or pre-expired context stops a scan before any
//    consumer work; a mid-scan Cancel() stops it within one block, with
//    the interruption recorded in cancel_checks / cancelled_scans /
//    deadline_misses — and kept OUT of the fault counters (failed_scans,
//    retries): a requested stop is not a storage failure.
//  * Consumers remain reusable after a cancelled scan: the next clean run
//    is bit-identical to a never-cancelled reference.
//  * The executor's stall watchdog: a block read stalled (or hung) past
//    the soft per-read deadline is hedged — re-issued for that block
//    alone — and the surviving run is bit-identical to the fault-free run,
//    with hedged_scans / ShardIo::hedges recording the recovery.
//  * Cancel-to-checkpoint: a PROCLUS fit cancelled mid-run leaves a
//    checkpoint behind (forced at the loop top, or the last periodic one
//    when the cancel lands mid-scan) from which a clean resume reproduces
//    the uninterrupted result bit-for-bit.
//  * The k-means baseline (RunKMeans) honors its CancelContext.

#include "common/cancel.h"

#include <gtest/gtest.h>

#include "test_temp.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/kmeans.h"
#include "common/rng.h"
#include "core/consumers.h"
#include "core/model_io.h"
#include "core/proclus.h"
#include "data/binary_io.h"
#include "data/engine.h"
#include "data/fault_source.h"
#include "data/sharded_source.h"
#include "gen/synthetic.h"

namespace proclus {
namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;

Dataset RandomDataset(size_t n, size_t d, uint64_t seed = 5) {
  Rng rng(seed);
  Matrix m(n, d);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < d; ++j) m(i, j) = rng.Uniform(-100, 100);
  return Dataset(std::move(m));
}

uint64_t ObjectiveBits(double objective) {
  uint64_t bits = 0;
  std::memcpy(&bits, &objective, sizeof(bits));
  return bits;
}

void ExpectSameResult(const ProjectedClustering& a,
                      const ProjectedClustering& b) {
  EXPECT_EQ(ObjectiveBits(a.objective), ObjectiveBits(b.objective));
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.medoids, b.medoids);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.improvements, b.improvements);
  ASSERT_EQ(a.dimensions.size(), b.dimensions.size());
  for (size_t i = 0; i < a.dimensions.size(); ++i)
    EXPECT_EQ(a.dimensions[i], b.dimensions[i]);
}

// Minimal consumer: per-block sums merged in block order (the same shape
// as the consumers of the real passes). Prepare fully re-initializes the
// partials.
class SumConsumer final : public ScanConsumer {
 public:
  Status Prepare(const ScanGeometry& geometry) override {
    partials_.assign(geometry.num_blocks, 0.0);
    rows_seen_.assign(geometry.num_blocks, 0);
    return Status::OK();
  }
  void ConsumeBlock(size_t block_index, size_t /*first_row*/,
                    std::span<const double> data, size_t rows) override {
    double sum = 0.0;
    for (double v : data) sum += v;
    partials_[block_index] = sum;
    rows_seen_[block_index] = rows;
  }
  Status Merge() override {
    total_ = 0.0;
    rows_ = 0;
    for (double v : partials_) total_ += v;
    for (size_t r : rows_seen_) rows_ += r;
    return Status::OK();
  }
  double total() const { return total_; }
  size_t rows() const { return rows_; }

 private:
  std::vector<double> partials_;
  std::vector<size_t> rows_seen_;
  double total_ = 0.0;
  size_t rows_ = 0;
};

// Decorator that fires `token->Cancel()` right after the Nth block has
// been delivered (cumulative across scans), and records how many blocks
// had been delivered once the cancel took effect. Because every source
// checks the context before delivering each block, each other worker of
// the scan in flight delivers at most the one block it had already
// checked by then. InMemory() stays null, so the executor treats the
// decorator like storage and scans it with 2T workers.
class CancelAfterBlocksSource final : public PointSource {
 public:
  CancelAfterBlocksSource(const PointSource& inner, CancelToken* token,
                          size_t cancel_after_blocks)
      : inner_(&inner), token_(token), cancel_after_(cancel_after_blocks) {}

  size_t size() const override { return inner_->size(); }
  size_t dims() const override { return inner_->dims(); }
  Result<Matrix> Fetch(std::span<const size_t> indices) const override {
    return inner_->Fetch(indices);
  }

  size_t delivered_blocks() const {
    return delivered_.load(std::memory_order_relaxed);
  }
  size_t delivered_when_cancelled() const {
    return delivered_when_cancelled_.load(std::memory_order_relaxed);
  }

 protected:
  Status ScanBlocks(const ScanSpec& spec,
                    const BlockVisitor& visit) const override {
    return inner_->Scan(
        spec, [&](size_t first, std::span<const double> data, size_t rows) {
          visit(first, data, rows);
          if (delivered_.fetch_add(1, std::memory_order_relaxed) + 1 ==
              cancel_after_) {
            token_->Cancel();
            delivered_when_cancelled_.store(
                delivered_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
          }
        });
  }

 private:
  const PointSource* inner_;
  CancelToken* token_;
  size_t cancel_after_;
  // order: relaxed — counters; the token carries the cancellation, and
  // the test reads them after the scan's pool handshake.
  mutable std::atomic<size_t> delivered_{0};
  mutable std::atomic<size_t> delivered_when_cancelled_{0};
};

// Decorator that fires `token->Cancel()` after the Nth *completed* scan.
// The executor reads one block per Scan call and runs its scans one after
// another, so the (N x reads_per_scan)-th completed call ends the Nth
// whole scan. In the fused climb the evaluation scan is the last
// cancel-checked operation of an iteration body, so cancelling at a scan
// completion is observed by the next loop-top check — the deterministic
// trigger for the cancel-to-checkpoint force save.
class CancelAfterScansSource final : public PointSource {
 public:
  CancelAfterScansSource(const PointSource& inner, CancelToken* token,
                         size_t cancel_after_scans, size_t reads_per_scan)
      : inner_(&inner),
        token_(token),
        cancel_after_(cancel_after_scans * reads_per_scan) {}

  size_t size() const override { return inner_->size(); }
  size_t dims() const override { return inner_->dims(); }
  Result<Matrix> Fetch(std::span<const size_t> indices) const override {
    return inner_->Fetch(indices);
  }

 protected:
  Status ScanBlocks(const ScanSpec& spec,
                    const BlockVisitor& visit) const override {
    Status status = inner_->Scan(spec, visit);
    if (status.ok() &&
        completed_.fetch_add(1, std::memory_order_relaxed) + 1 ==
            cancel_after_)
      token_->Cancel();
    return status;
  }

 private:
  const PointSource* inner_;
  CancelToken* token_;
  size_t cancel_after_;
  // order: relaxed — a counter; the token carries the cancellation.
  mutable std::atomic<size_t> completed_{0};
};

// A shard set whose shards are fault-injection decorators over memory
// slices, with an independent plan per shard. The raw decorator pointers
// alias sources owned by the struct, valid for its lifetime.
struct FaultyShardSet {
  std::vector<std::unique_ptr<PointSource>> slices;
  std::vector<const FaultInjectingPointSource*> decorators;
  std::unique_ptr<ShardedSource> sharded;
};

FaultyShardSet MakeFaultyShards(const Dataset& dataset,
                                const std::vector<size_t>& shard_rows,
                                const std::vector<FaultPlan>& plans) {
  FaultyShardSet set;
  std::vector<std::unique_ptr<PointSource>> decorated;
  size_t first = 0;
  for (size_t s = 0; s < shard_rows.size(); ++s) {
    set.slices.push_back(
        std::make_unique<MemorySource>(dataset, first, shard_rows[s]));
    first += shard_rows[s];
    auto decorator = std::make_unique<FaultInjectingPointSource>(
        *set.slices.back(), plans[s]);
    set.decorators.push_back(decorator.get());
    decorated.push_back(std::move(decorator));
  }
  EXPECT_EQ(first, dataset.size());
  auto sharded = ShardedSource::Create(std::move(decorated));
  EXPECT_TRUE(sharded.ok()) << sharded.status().ToString();
  set.sharded =
      std::make_unique<ShardedSource>(std::move(sharded).value());
  return set;
}

// ---------------------------------------------------------------------
// Scan-level cancellation and deadlines.
// ---------------------------------------------------------------------

TEST(ScanCancelTest, PreCancelledContextStopsBeforeAnyWork) {
  Dataset ds = RandomDataset(1024, 4);
  MemorySource memory(ds);
  const std::string path = TestTempPath("precancel.bin");
  ASSERT_TRUE(WriteBinaryFile(ds, path).ok());
  auto disk = DiskSource::Open(path);
  ASSERT_TRUE(disk.ok());
  auto sharded = ShardedSource::FromDataset(ds, 4, 128);
  ASSERT_TRUE(sharded.ok());

  const PointSource* sources[] = {&memory, &*disk, &*sharded};
  const char* names[] = {"memory", "disk", "sharded"};
  for (size_t s = 0; s < 3; ++s) {
    SCOPED_TRACE(names[s]);
    CancelToken token;
    token.Cancel();
    RunStats stats;
    ScanOptions options;
    options.block_rows = 128;
    options.stats = &stats;
    options.cancel.token = &token;
    SumConsumer consumer;
    Status status = ScanExecutor(options).Run(*sources[s], {&consumer});
    EXPECT_EQ(status.code(), StatusCode::kCancelled);
    // The run-level pre-check caught it: one check, no scan attempt, no
    // consumer work, nothing recorded as a fault.
    EXPECT_EQ(stats.cancel_checks, 1u);
    EXPECT_EQ(stats.cancelled_scans, 0u);
    EXPECT_EQ(stats.scans_issued, 0u);
    EXPECT_EQ(stats.failed_scans, 0u);
    EXPECT_EQ(sources[s]->io().rows_scanned, 0u);
  }
}

TEST(ScanCancelTest, MidScanCancelStopsWithinOneBlock) {
  Dataset ds = RandomDataset(2048, 4, 7);
  MemorySource memory(ds);
  const std::string path = TestTempPath("midscan_cancel.bin");
  ASSERT_TRUE(WriteBinaryFile(ds, path).ok());
  auto disk = DiskSource::Open(path);
  ASSERT_TRUE(disk.ok());
  auto sharded = ShardedSource::FromDataset(ds, 4, 128);
  ASSERT_TRUE(sharded.ok());

  const PointSource* sources[] = {&memory, &*disk, &*sharded};
  const char* names[] = {"memory", "disk", "sharded/glued"};
  constexpr size_t kBlockRows = 128;  // 2048 rows -> 16 blocks per scan.
  constexpr size_t kCancelAfter = 5;
  for (size_t s = 0; s < 3; ++s) {
    SCOPED_TRACE(names[s]);
    CancelToken token;
    CancelAfterBlocksSource cancelling(*sources[s], &token, kCancelAfter);
    RunStats stats;
    ScanOptions options;
    options.block_rows = kBlockRows;
    options.stats = &stats;
    options.cancel.token = &token;
    options.retry.max_attempts = 4;  // Must NOT retry a requested stop.
    SumConsumer consumer;
    Status status = ScanExecutor(options).Run(cancelling, {&consumer});
    EXPECT_EQ(status.code(), StatusCode::kCancelled);
    // Every source checks the context before each block, so once the
    // cancel has taken effect each of the scan's two workers (2T at
    // num_threads = 1) stops within one block: the other worker delivers
    // at most the one block it had already checked.
    EXPECT_GE(cancelling.delivered_when_cancelled(), kCancelAfter);
    EXPECT_LE(cancelling.delivered_blocks(),
              cancelling.delivered_when_cancelled() + 1);
    EXPECT_EQ(stats.cancelled_scans, 1u);
    EXPECT_EQ(stats.wasted_rows, cancelling.delivered_blocks() * kBlockRows);
    EXPECT_GT(stats.cancel_checks, 1u);
    // A requested stop is not a fault: nothing failed, nothing retried.
    EXPECT_EQ(stats.failed_scans, 0u);
    EXPECT_EQ(stats.retries, 0u);
    EXPECT_EQ(stats.scans_issued, 0u);
    EXPECT_EQ(stats.deadline_misses, 0u);
  }
}

TEST(ScanCancelTest, ExpiredDeadlineIsDeadlineExceeded) {
  Dataset ds = RandomDataset(512, 4);
  MemorySource memory(ds);
  RunStats stats;
  ScanOptions options;
  options.block_rows = 128;
  options.stats = &stats;
  options.cancel.deadline = Deadline::After(std::chrono::nanoseconds{0});
  SumConsumer consumer;
  Status status = ScanExecutor(options).Run(memory, {&consumer});
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(stats.cancel_checks, 1u);
  EXPECT_EQ(stats.scans_issued, 0u);
}

TEST(ScanCancelTest, DeadlineExpiringMidStallIsRecorded) {
  // A stall far longer than the budget: the injected (interruptible)
  // sleep wakes at the deadline and the scan unwinds with the expiry
  // recorded — deterministic because stall >> deadline.
  Dataset ds = RandomDataset(512, 4);
  MemorySource memory(ds);
  FaultPlan plan;
  plan.stall_rate = 1.0;
  plan.stall = microseconds(30000000);  // 30s; the deadline cuts it off.
  FaultInjectingPointSource stalling(memory, plan);

  RunStats stats;
  ScanOptions options;
  options.block_rows = 128;
  options.stats = &stats;
  // Generous budget: the pre-scan setup must comfortably fit inside it
  // (also under sanitizers), so the expiry deterministically lands in
  // the injected stall.
  options.cancel.deadline = Deadline::After(milliseconds(100));
  SumConsumer consumer;
  Status status = ScanExecutor(options).Run(stalling, {&consumer});
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(stats.cancelled_scans, 1u);
  EXPECT_EQ(stats.deadline_misses, 1u);
  EXPECT_EQ(stats.failed_scans, 0u);
  // One injector operation is one block read: each of the two workers
  // (2T at num_threads = 1) stalls in its first read, then the deadline
  // ends the scan.
  EXPECT_GE(stalling.fault_counters().stalls, 1u);
  EXPECT_LE(stalling.fault_counters().stalls, 2u);
}

TEST(ScanCancelTest, HangReclaimedByRunDeadline) {
  // A permanently hung scan operation under a finite run deadline: the
  // cooperative hang parks until the deadline and the run returns
  // kDeadlineExceeded instead of blocking forever.
  Dataset ds = RandomDataset(512, 4);
  MemorySource memory(ds);
  FaultPlan plan;
  plan.hang_rate = 1.0;
  plan.max_consecutive = 100;  // Never force progress: the deadline must.
  FaultInjectingPointSource hanging(memory, plan);

  RunStats stats;
  ScanOptions options;
  options.block_rows = 128;
  options.stats = &stats;
  options.cancel.deadline = Deadline::After(milliseconds(50));
  SumConsumer consumer;
  Status status = ScanExecutor(options).Run(hanging, {&consumer});
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(stats.deadline_misses, 1u);
  EXPECT_GE(hanging.fault_counters().hangs, 1u);
}

TEST(ScanCancelTest, ConsumerReusableAfterCancelledScan) {
  Dataset ds = RandomDataset(2048, 4, 11);
  MemorySource memory(ds);

  SumConsumer reference;
  ScanOptions clean;
  clean.block_rows = 128;
  ASSERT_TRUE(ScanExecutor(clean).Run(memory, {&reference}).ok());

  CancelToken token;
  CancelAfterBlocksSource cancelling(memory, &token, 3);
  ScanOptions options;
  options.block_rows = 128;
  options.cancel.token = &token;
  SumConsumer consumer;
  ASSERT_EQ(ScanExecutor(options).Run(cancelling, {&consumer}).code(),
            StatusCode::kCancelled);

  // The same consumer object, re-run clean: Prepare re-initializes every
  // partial, so the interrupted attempt leaves no trace in the bits.
  ASSERT_TRUE(ScanExecutor(clean).Run(memory, {&consumer}).ok());
  EXPECT_EQ(ObjectiveBits(consumer.total()),
            ObjectiveBits(reference.total()));
  EXPECT_EQ(consumer.rows(), reference.rows());
}

// ---------------------------------------------------------------------
// Stall watchdog / hedged shard re-scans.
// ---------------------------------------------------------------------

TEST(StallHedgingTest, StalledShardIsHedgedBitIdentically) {
  Dataset ds = RandomDataset(4096, 6, 29);
  MemorySource whole(ds);
  SumConsumer reference;
  ScanOptions clean;
  clean.block_rows = 256;
  ASSERT_TRUE(ScanExecutor(clean).Run(whole, {&reference}).ok());

  // Shard 1 stalls on every read; the others are clean. The stall (80ms)
  // far exceeds the soft per-read deadline (8ms), so the first attempt of
  // each of shard 1's four block reads trips the watchdog; the hedged
  // final attempt runs without the cap and completes after serving the
  // stall. The cap is generous enough that the clean in-memory shards
  // never trip it, keeping the per-shard hedge counts exact.
  std::vector<FaultPlan> plans(3);
  plans[1].stall_rate = 1.0;
  plans[1].stall = microseconds(80000);
  FaultyShardSet set =
      MakeFaultyShards(ds, {1024, 1024, 2048}, plans);

  RunStats stats;
  ScanOptions options;
  options.block_rows = 256;
  options.stats = &stats;
  options.shard_soft_deadline = microseconds(8000);
  options.max_hedges_per_shard = 1;
  SumConsumer consumer;
  ASSERT_TRUE(ScanExecutor(options).Run(*set.sharded, {&consumer}).ok());

  // Bit-identical to the fault-free unsharded scan, every row exactly
  // once in the merge.
  EXPECT_EQ(ObjectiveBits(consumer.total()),
            ObjectiveBits(reference.total()));
  EXPECT_EQ(consumer.rows(), 4096u);

  // The watchdog demonstrably fired, once per block read of the stalled
  // shard and nowhere else; the hedge is not a fault (nothing failed,
  // nothing retried, run OK).
  EXPECT_EQ(stats.hedged_scans, 4u);
  EXPECT_EQ(stats.deadline_misses, 4u);
  EXPECT_EQ(stats.failed_scans, 0u);
  EXPECT_EQ(stats.cancelled_scans, 0u);
  EXPECT_EQ(stats.retries, 0u);
  ASSERT_EQ(stats.shard_io.size(), 3u);
  EXPECT_EQ(stats.shard_io[0].hedges, 0u);
  EXPECT_EQ(stats.shard_io[1].hedges, 4u);
  EXPECT_EQ(stats.shard_io[2].hedges, 0u);
  EXPECT_GE(set.decorators[1]->fault_counters().stalls, 2u);
}

TEST(StallHedgingTest, HungShardIsReclaimedByTheWatchdog) {
  Dataset ds = RandomDataset(2048, 4, 31);
  MemorySource whole(ds);
  SumConsumer reference;
  ScanOptions clean;
  clean.block_rows = 256;
  ASSERT_TRUE(ScanExecutor(clean).Run(whole, {&reference}).ok());

  // Shard 0 hangs permanently on the first attempt of each of its four
  // block reads; hangs count toward that read's max_consecutive, so each
  // hedged attempt is forced clean — the watchdog turns every unbounded
  // hang into one soft-deadline miss.
  std::vector<FaultPlan> plans(2);
  plans[0].hang_rate = 1.0;
  plans[0].max_consecutive = 1;
  FaultyShardSet set = MakeFaultyShards(ds, {1024, 1024}, plans);

  RunStats stats;
  ScanOptions options;
  options.block_rows = 256;
  options.stats = &stats;
  options.shard_soft_deadline = microseconds(8000);
  options.max_hedges_per_shard = 1;
  SumConsumer consumer;
  ASSERT_TRUE(ScanExecutor(options).Run(*set.sharded, {&consumer}).ok());

  EXPECT_EQ(ObjectiveBits(consumer.total()),
            ObjectiveBits(reference.total()));
  EXPECT_EQ(consumer.rows(), 2048u);
  EXPECT_EQ(stats.hedged_scans, 4u);
  EXPECT_EQ(stats.failed_scans, 0u);
  EXPECT_GE(set.decorators[0]->fault_counters().hangs, 1u);
}

TEST(StallHedgingTest, HedgedAndRetriedShardsCommitUndisturbedColumns) {
  // Cached assignment columns filled through hedged block reads (shard 1
  // stalls) and retried block reads (shard 2 fails each read once) are
  // committed with exactly the bits of an undisturbed scan: each block is
  // consumed once, from the attempt that delivered it whole.
  Dataset ds = RandomDataset(4096, 6, 37);
  MemorySource whole(ds);
  auto medoids = whole.Fetch(std::vector<size_t>{3, 1500, 4000});
  ASSERT_TRUE(medoids.ok());
  const std::vector<DimensionSet> dims = {DimensionSet(6, {0, 2}),
                                          DimensionSet(6, {1, 3, 5}),
                                          DimensionSet(6, {0, 1, 2, 3, 4, 5})};
  const std::vector<size_t> slots = {11, 12, 13};
  auto fill = [&](const PointSource& source, const ScanOptions& options,
                  MedoidDistanceCache* cache, AssignConsumer* consumer) {
    ASSERT_TRUE(consumer
                    ->Bind(&*medoids, &dims, true, true,
                           std::span<const size_t>(slots), cache)
                    .ok());
    ASSERT_TRUE(ScanExecutor(options).Run(source, {consumer}).ok());
  };
  ScanOptions clean;
  clean.block_rows = 256;
  MedoidDistanceCache undisturbed;
  AssignConsumer baseline;
  fill(whole, clean, &undisturbed, &baseline);

  std::vector<FaultPlan> plans(3);
  plans[1].stall_rate = 1.0;
  plans[1].stall = microseconds(80000);
  plans[2].fail_rate = 1.0;
  plans[2].max_consecutive = 1;
  FaultyShardSet set = MakeFaultyShards(ds, {1024, 1024, 2048}, plans);
  RunStats stats;
  ScanOptions options;
  options.num_threads = 3;
  options.block_rows = 256;
  options.stats = &stats;
  options.shard_soft_deadline = microseconds(8000);
  options.max_hedges_per_shard = 1;
  MedoidDistanceCache disturbed;
  AssignConsumer consumer;
  fill(*set.sharded, options, &disturbed, &consumer);
  EXPECT_EQ(stats.hedged_scans, 4u);  // Shard 1's four block reads.
  EXPECT_GT(stats.retries, 0u);

  EXPECT_EQ(consumer.labels(), baseline.labels());
  EXPECT_EQ(consumer.centroids(), baseline.centroids());
  ASSERT_EQ(disturbed.entries.size(), undisturbed.entries.size());
  for (size_t e = 0; e < disturbed.entries.size(); ++e) {
    EXPECT_TRUE(disturbed.entries[e].valid);
    EXPECT_EQ(disturbed.entries[e].dist, undisturbed.entries[e].dist)
        << "slot " << disturbed.entries[e].slot;
  }
}

TEST(StallHedgingTest, ProclusOverStalledShardsMatchesCleanRun) {
  // The integration bar: a full PROCLUS fit whose storage stalls on one
  // shard, under the watchdog, reproduces the clean fit bit-for-bit with
  // hedges actually exercised.
  GeneratorParams gen;
  gen.num_points = 2048;
  gen.space_dims = 8;
  gen.num_clusters = 3;
  gen.cluster_dim_counts = {3, 3, 3};
  gen.seed = 11;
  auto data = GenerateSynthetic(gen);
  ASSERT_TRUE(data.ok());

  ProclusParams params;
  params.num_clusters = 3;
  params.avg_dims = 3.0;
  params.seed = 5;
  params.num_restarts = 1;
  params.max_iterations = 8;
  params.block_rows = 256;

  auto clean_shards = ShardedSource::FromDataset(data->dataset, 2, 256);
  ASSERT_TRUE(clean_shards.ok());
  auto baseline = RunProclusOnSource(*clean_shards, params);
  ASSERT_TRUE(baseline.ok());

  std::vector<FaultPlan> plans(2);
  plans[1].stall_rate = 1.0;
  plans[1].stall = microseconds(20000);
  FaultyShardSet set = MakeFaultyShards(data->dataset, {1024, 1024}, plans);

  ProclusParams hedged = params;
  hedged.shard_soft_deadline = microseconds(4000);
  hedged.max_hedges_per_shard = 1;
  auto survived = RunProclusOnSource(*set.sharded, hedged);
  ASSERT_TRUE(survived.ok()) << survived.status().ToString();

  ExpectSameResult(*survived, *baseline);
  EXPECT_GT(survived->stats.hedged_scans, 0u);
  EXPECT_EQ(survived->stats.failed_scans, 0u);
  EXPECT_EQ(survived->stats.cancelled_scans, 0u);
}

// ---------------------------------------------------------------------
// Driver-level cancellation and cancel-to-checkpoint.
// ---------------------------------------------------------------------

ProclusParams CheckpointBaseParams() {
  ProclusParams params;
  params.num_clusters = 3;
  params.avg_dims = 3.0;
  params.seed = 5;
  params.num_restarts = 2;
  params.block_rows = 256;
  return params;
}

// Block reads per whole scan of CheckpointFixture() at the block size of
// CheckpointBaseParams(): 2000 rows in blocks of 256.
constexpr size_t kCheckpointReadsPerScan = 8;

SyntheticData CheckpointFixture() {
  GeneratorParams gen;
  gen.num_points = 2000;
  gen.space_dims = 8;
  gen.num_clusters = 3;
  gen.cluster_dim_counts = {3, 3, 3};
  gen.seed = 11;
  auto data = GenerateSynthetic(gen);
  EXPECT_TRUE(data.ok());
  return std::move(data).value();
}

TEST(ProclusCancelTest, PreCancelledAndPreExpiredContextsStopTheRun) {
  SyntheticData data = CheckpointFixture();
  MemorySource memory(data.dataset);

  CancelToken token;
  token.Cancel();
  ProclusParams cancelled = CheckpointBaseParams();
  cancelled.cancel.token = &token;
  auto result = RunProclusOnSource(memory, cancelled);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);

  ProclusParams expired = CheckpointBaseParams();
  expired.cancel.deadline = Deadline::After(std::chrono::nanoseconds{0});
  result = RunProclusOnSource(memory, expired);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(ProclusCancelTest, MidRunCancelReportsCancelledNotAFault) {
  SyntheticData data = CheckpointFixture();
  MemorySource memory(data.dataset);
  CancelToken token;
  // 2000 rows / 256 block_rows = 8 blocks per scan; 20 blocks lands the
  // cancellation mid-scan in the second hill-climbing iteration.
  CancelAfterBlocksSource cancelling(memory, &token, 20);
  ProclusParams params = CheckpointBaseParams();
  params.cancel.token = &token;
  params.retry.max_attempts = 4;
  auto result = RunProclusOnSource(cancelling, params);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST(ProclusCancelTest, CancelToCheckpointResumesBitIdentically) {
  SyntheticData data = CheckpointFixture();
  MemorySource memory(data.dataset);
  auto baseline = RunProclusOnSource(memory, CheckpointBaseParams());
  ASSERT_TRUE(baseline.ok());

  // Cancel right after the 5th completed scan — the end of the second
  // fused iteration's evaluation scan — so the next loop-top check sees
  // it and force-saves. every_iterations is set far beyond the run
  // length: the checkpoint can ONLY have come from the forced
  // cancel-to-checkpoint save.
  const std::string ck_path = TestTempPath("cancel_to_ck.pckp");
  std::remove(ck_path.c_str());
  CancelToken token;
  CancelAfterScansSource cancelling(memory, &token, 5,
                                    kCheckpointReadsPerScan);
  ProclusParams params = CheckpointBaseParams();
  params.cancel.token = &token;
  params.checkpoint.path = ck_path;
  params.checkpoint.every_iterations = 100000;
  auto interrupted = RunProclusOnSource(cancelling, params);
  ASSERT_FALSE(interrupted.ok());
  EXPECT_EQ(interrupted.status().code(), StatusCode::kCancelled);
  ASSERT_TRUE(LoadCheckpointFile(ck_path).ok());

  // Resume clean, no cancellation context: the fingerprint excludes the
  // cancel fields (a run may be resumed under a different deadline), and
  // the tail replays bit-identically.
  ProclusParams resume = CheckpointBaseParams();
  resume.checkpoint.path = ck_path;
  resume.checkpoint.every_iterations = 100000;
  auto resumed = RunProclusOnSource(memory, resume);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectSameResult(*resumed, *baseline);
}

TEST(ProclusCancelTest, MidScanCancelFallsBackToPeriodicCheckpoint) {
  SyntheticData data = CheckpointFixture();
  MemorySource memory(data.dataset);
  auto baseline = RunProclusOnSource(memory, CheckpointBaseParams());
  ASSERT_TRUE(baseline.ok());

  // Cancellation lands mid-scan: 60 blocks are the bootstrap scan's 8,
  // three iterations' 48 and half the fourth iteration's assignment
  // scan. A mid-scan cancel saves nothing, so the file holds the last
  // periodic save, taken at the loop top after 2 completed iterations
  // under every_iterations=2 (the top after 3 is not a save point).
  // Resume replays from there to the identical result.
  const std::string ck_path = TestTempPath("periodic_fallback.pckp");
  std::remove(ck_path.c_str());
  CancelToken token;
  CancelAfterBlocksSource cancelling(memory, &token, 60);
  ProclusParams params = CheckpointBaseParams();
  params.cancel.token = &token;
  params.checkpoint.path = ck_path;
  params.checkpoint.every_iterations = 2;
  auto interrupted = RunProclusOnSource(cancelling, params);
  ASSERT_FALSE(interrupted.ok());
  EXPECT_EQ(interrupted.status().code(), StatusCode::kCancelled);
  auto saved = LoadCheckpointFile(ck_path);
  ASSERT_TRUE(saved.ok());
  EXPECT_EQ(saved->restart, 0u);
  EXPECT_EQ(saved->climb.iterations, 2u);

  ProclusParams resume = CheckpointBaseParams();
  resume.checkpoint.path = ck_path;
  resume.checkpoint.every_iterations = 2;
  auto resumed = RunProclusOnSource(memory, resume);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ExpectSameResult(*resumed, *baseline);
}

// ---------------------------------------------------------------------
// Baseline drivers.
// ---------------------------------------------------------------------

TEST(BaselineCancelTest, KMeansHonorsItsCancelContext) {
  Dataset ds = RandomDataset(600, 5, 13);
  CancelToken token;
  token.Cancel();
  KMeansParams params;
  params.num_clusters = 3;
  params.seed = 7;
  params.cancel.token = &token;
  auto cancelled = RunKMeans(ds, params);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);

  KMeansParams expired = params;
  expired.cancel = {};
  expired.cancel.deadline = Deadline::After(std::chrono::nanoseconds{0});
  auto late = RunKMeans(ds, expired);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kDeadlineExceeded);
}

}  // namespace
}  // namespace proclus
