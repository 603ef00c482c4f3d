// Resilience tests for the sharded scan engine:
//
//  * Failure domains are per block read: a transiently failed read of a
//    shard's block is re-issued for that block alone, the block is
//    consumed once, from the read that delivered it whole, and the
//    surviving run is bit-identical to a fault-free one — with the
//    retries recorded in RunStats (globally and per shard in shard_io).
//  * A permanently failed shard fails the whole scan with its own error.
//  * A full PROCLUS fit over fault-injected sharded disk shards matches
//    the clean single-source fit exactly.
//  * Checkpoints are shard-layout-agnostic: a run killed under 4-shard
//    execution resumes bit-identically under 1 shard or 8 shards (the
//    configuration fingerprint covers the algorithm, not the storage
//    layout).

#include "data/sharded_source.h"

#include <gtest/gtest.h>

#include "test_temp.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/consumers.h"
#include "core/model_io.h"
#include "core/proclus.h"
#include "data/binary_io.h"
#include "data/engine.h"
#include "data/fault_source.h"

namespace proclus {
namespace {

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
}

// A shard set whose shards are fault-injection decorators over memory
// slices. `decorators` aliases the shards owned by `sharded` (and the
// slices owned by `slices`), valid for the fixture's lifetime.
struct FaultyShardSet {
  std::vector<std::unique_ptr<PointSource>> slices;
  std::vector<const FaultInjectingPointSource*> decorators;
  std::unique_ptr<ShardedSource> sharded;

  uint64_t TotalInjectedFaults() const {
    uint64_t total = 0;
    for (const auto* decorator : decorators) {
      const FaultCounters counters = decorator->fault_counters();
      total += counters.injected_scan_faults +
               counters.injected_fetch_faults;
    }
    return total;
  }
};

FaultyShardSet MakeFaultyShards(const Dataset& dataset,
                                const std::vector<size_t>& shard_rows,
                                const FaultPlan& base_plan) {
  FaultyShardSet set;
  std::vector<std::unique_ptr<PointSource>> decorated;
  size_t first = 0;
  for (size_t s = 0; s < shard_rows.size(); ++s) {
    set.slices.push_back(
        std::make_unique<MemorySource>(dataset, first, shard_rows[s]));
    first += shard_rows[s];
    FaultPlan plan = base_plan;
    plan.seed = base_plan.seed + s;  // Independent per-shard schedules.
    auto decorator = std::make_unique<FaultInjectingPointSource>(
        *set.slices.back(), plan);
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

TEST(ShardFaultTest, TransientShardFaultsAbsorbedBitIdentically) {
  Dataset ds = RandomDataset(4096, 6, 53);
  MemorySource whole(ds);
  std::vector<size_t> medoid_indices{7, 1500, 3000, 4000};
  Matrix medoids = std::move(whole.Fetch(medoid_indices)).value();
  std::vector<DimensionSet> dims = {
      DimensionSet(6, {0, 2}), DimensionSet(6, {1, 5}),
      DimensionSet(6, {3, 4}), DimensionSet(6, {0, 5})};

  ScanOptions clean_options;
  clean_options.block_rows = 256;
  LocalityStatsConsumer locality_base;
  AssignConsumer assign_base;
  ASSERT_TRUE(locality_base.Bind(&medoids).ok());
  ASSERT_TRUE(assign_base.Bind(&medoids, &dims, true, true).ok());
  ASSERT_TRUE(ScanExecutor(clean_options)
                  .Run(whole, {&locality_base, &assign_base})
                  .ok());

  FaultPlan plan;
  plan.seed = 97;
  plan.fail_rate = 0.35;
  plan.corrupt_rate = 0.15;
  plan.short_read_rate = 0.2;
  plan.max_consecutive = 2;
  FaultyShardSet faulty =
      MakeFaultyShards(ds, {1024, 1024, 1024, 1024}, plan);
  ASSERT_TRUE(faulty.sharded->AlignedTo(256));

  ScanOptions options = clean_options;
  options.num_threads = 4;
  options.retry.max_attempts = 4;
  RunStats stats;
  options.stats = &stats;
  // Several scans so the high-rate schedules inject across shards; every
  // surviving scan must reproduce the clean bits exactly.
  for (int scan = 0; scan < 8; ++scan) {
    LocalityStatsConsumer locality;
    AssignConsumer assign;
    ASSERT_TRUE(locality.Bind(&medoids).ok());
    ASSERT_TRUE(assign.Bind(&medoids, &dims, true, true).ok());
    ASSERT_TRUE(ScanExecutor(options)
                    .Run(*faulty.sharded, {&locality, &assign})
                    .ok())
        << "scan " << scan;
    EXPECT_EQ(locality.stats(), locality_base.stats()) << "scan " << scan;
    EXPECT_EQ(assign.labels(), assign_base.labels()) << "scan " << scan;
    EXPECT_EQ(assign.centroids(), assign_base.centroids());
    EXPECT_EQ(assign.cluster_sizes(), assign_base.cluster_sizes());
  }

  // The schedules fired, the executor retried, and the books agree:
  // global retries are exactly the per-shard retries summed.
  EXPECT_GT(faulty.TotalInjectedFaults(), 0u);
  EXPECT_GT(stats.retries, 0u);
  EXPECT_GT(stats.failed_scans, 0u);
  EXPECT_GT(stats.wasted_rows, 0u);
  ASSERT_EQ(stats.shard_io.size(), 4u);
  uint64_t shard_retries = 0;
  for (const RunStats::ShardIo& io : stats.shard_io) {
    // Every shard completed the reads of its 4 blocks in every scan.
    EXPECT_EQ(io.scans, 8u * 4);
    shard_retries += io.retries;
  }
  EXPECT_EQ(shard_retries, stats.retries);
}

TEST(ShardFaultTest, PermanentShardFailureFailsTheScan) {
  Dataset ds = RandomDataset(1024, 4, 59);
  FaultPlan healthy;  // No faults at all.

  // Shard 2 (one 256-row block) carries a kill switch: its first
  // operation, the first scan's read of its block, succeeds; everything
  // after fails permanently (beyond any retry budget).
  FaultPlan dying = healthy;
  dying.kill_after_ops = 1;
  FaultyShardSet killed = [&] {
    FaultyShardSet set;
    std::vector<std::unique_ptr<PointSource>> decorated;
    for (size_t s = 0; s < 4; ++s) {
      set.slices.push_back(
          std::make_unique<MemorySource>(ds, s * 256, 256));
      auto decorator = std::make_unique<FaultInjectingPointSource>(
          *set.slices.back(), s == 2 ? dying : healthy);
      set.decorators.push_back(decorator.get());
      decorated.push_back(std::move(decorator));
    }
    auto sharded = ShardedSource::Create(std::move(decorated));
    EXPECT_TRUE(sharded.ok());
    set.sharded =
        std::make_unique<ShardedSource>(std::move(sharded).value());
    return set;
  }();

  ScanOptions options;
  options.block_rows = 256;
  options.num_threads = 4;
  options.retry.max_attempts = 3;
  RunStats stats;
  options.stats = &stats;
  class CountConsumer : public ScanConsumer {
   public:
    Status Prepare(const ScanGeometry&) override { return Status::OK(); }
    void ConsumeBlock(size_t, size_t, std::span<const double>,
                      size_t) override {}
    Status Merge() override { return Status::OK(); }
  } consumer;

  // First scan: every shard's op 0 succeeds.
  EXPECT_TRUE(
      ScanExecutor(options).Run(*killed.sharded, {&consumer}).ok());
  // Second scan: shard 2 is dead; the retry budget is spent and the scan
  // fails with the shard's own error while other shards completed.
  Status status = ScanExecutor(options).Run(*killed.sharded, {&consumer});
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  EXPECT_GE(stats.failed_scans, 3u);  // All attempts on the dead shard.
}

TEST(ShardFaultTest, ProclusOverFaultyDiskShardsMatchesCleanRun) {
  // The acceptance bar, shard edition: PROCLUS over fault-injected disk
  // shards completes bit-identically to the clean unsharded disk run.
  Dataset ds = RandomDataset(2048, 6, 61);
  const std::string snapshot = TestTempPath("shard_fault_proclus.bin");
  ASSERT_TRUE(WriteBinaryFile(ds, snapshot).ok());
  ShardSplitOptions split;
  split.num_shards = 4;
  split.align_rows = 256;
  auto manifest = SplitIntoShards(
      snapshot, TestTempPath("shard_fault_proclus_shards"), split);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();

  ProclusParams params;
  params.num_clusters = 3;
  params.avg_dims = 3.0;
  params.seed = 29;
  params.num_restarts = 2;
  params.max_iterations = 10;
  params.block_rows = 256;

  auto disk = DiskSource::Open(snapshot);
  ASSERT_TRUE(disk.ok());
  auto baseline = RunProclusOnSource(*disk, params);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  // Wrap each shard snapshot in its own fault injector.
  const std::string prefix = TestTempPath("shard_fault_proclus_shards");
  std::vector<std::unique_ptr<PointSource>> inner;
  std::vector<const FaultInjectingPointSource*> decorators;
  std::vector<std::unique_ptr<PointSource>> decorated;
  for (size_t s = 0; s < 4; ++s) {
    auto shard =
        DiskSource::Open(prefix + ".shard" + std::to_string(s) + ".bin");
    ASSERT_TRUE(shard.ok()) << shard.status().ToString();
    inner.push_back(
        std::make_unique<DiskSource>(std::move(shard).value()));
    FaultPlan plan;
    plan.seed = 100 + s;
    plan.fail_rate = 0.05;
    plan.corrupt_rate = 0.01;
    plan.short_read_rate = 0.02;
    plan.max_consecutive = 2;
    auto decorator = std::make_unique<FaultInjectingPointSource>(
        *inner.back(), plan);
    decorators.push_back(decorator.get());
    decorated.push_back(std::move(decorator));
  }
  auto sharded = ShardedSource::Create(std::move(decorated));
  ASSERT_TRUE(sharded.ok());

  auto result = RunProclusOnSource(*sharded, params);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectSameResult(*result, *baseline);
  uint64_t injected = 0;
  for (const auto* decorator : decorators) {
    const FaultCounters counters = decorator->fault_counters();
    injected +=
        counters.injected_scan_faults + counters.injected_fetch_faults;
  }
  EXPECT_GT(injected, 0u) << "rates too low to exercise shard retry";
}

TEST(ShardFaultTest, CheckpointUnderFourShardsResumesUnderOneOrEight) {
  Dataset ds = RandomDataset(2048, 6, 67);
  const std::string snapshot = TestTempPath("shard_resume.bin");
  ASSERT_TRUE(WriteBinaryFile(ds, snapshot).ok());

  ProclusParams params;
  params.num_clusters = 3;
  params.avg_dims = 3.0;
  params.seed = 31;
  params.num_restarts = 2;
  params.block_rows = 256;

  auto disk = DiskSource::Open(snapshot);
  ASSERT_TRUE(disk.ok());
  auto baseline = RunProclusOnSource(*disk, params);
  ASSERT_TRUE(baseline.ok());

  // Kill a 4-shard run mid-climb: every shard dies permanently after its
  // 40th operation, which exceeds the first checkpoint save but not the
  // full run.
  const std::string ck_path = TestTempPath("shard_resume.pckp");
  std::remove(ck_path.c_str());
  {
    FaultPlan dying;
    dying.kill_after_ops = 40;
    FaultyShardSet killed =
        MakeFaultyShards(ds, {512, 512, 512, 512}, dying);
    ProclusParams kill_params = params;
    kill_params.checkpoint.path = ck_path;
    kill_params.checkpoint.every_iterations = 2;
    auto crashed = RunProclusOnSource(*killed.sharded, kill_params);
    ASSERT_FALSE(crashed.ok()) << "kill_after_ops too large to interrupt";
    ASSERT_TRUE(LoadCheckpointFile(ck_path).ok());
  }

  // Resume under a single unsharded source and under an 8-shard split:
  // the checkpoint is storage-layout-agnostic, so both replay the tail
  // bit-identically.
  {
    std::string ck_copy = ck_path + ".one";
    {
      std::ifstream in(ck_path, std::ios::binary);
      std::ofstream out(ck_copy, std::ios::binary | std::ios::trunc);
      out << in.rdbuf();
    }
    ProclusParams resume = params;
    resume.checkpoint.path = ck_copy;
    resume.checkpoint.every_iterations = 2;
    auto resumed = RunProclusOnSource(*disk, resume);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    ExpectSameResult(*resumed, *baseline);
  }
  {
    ShardSplitOptions split;
    split.num_shards = 8;
    split.align_rows = 256;
    auto manifest = SplitIntoShards(
        snapshot, TestTempPath("shard_resume_eight"), split);
    ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
    auto sharded = ShardedSource::OpenManifest(*manifest);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    ProclusParams resume = params;
    resume.checkpoint.path = ck_path;  // Consumes the original.
    resume.checkpoint.every_iterations = 2;
    auto resumed = RunProclusOnSource(*sharded, resume);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    ExpectSameResult(*resumed, *baseline);
  }
}

}  // namespace
}  // namespace proclus
