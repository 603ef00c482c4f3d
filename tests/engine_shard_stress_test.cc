// TSan-targeted stress tests for the ShardedScanExecutor: concurrent
// shard scans feeding shared consumers must be race-free and bit-identical
// to the unsharded sequential scan for every shard count x thread count.
// Each shard writes only the global blocks it owns (aligned boundaries
// make block ownership a partition), and the one Merge per consumer runs
// afterwards in ascending block order, so neither the shard layout nor
// the thread schedule can leak into results.
//
// These tests live in the `parallel`-labeled test binary so the tsan
// CTest preset picks them up (see tests/CMakeLists.txt).

#include "data/sharded_source.h"

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <vector>

#include "core/consumers.h"
#include "core/proclus.h"
#include "data/engine.h"
#include "gen/synthetic.h"

namespace proclus {
namespace {

constexpr size_t kCounts[] = {1, 2, 7, 16};

struct Fixture {
  SyntheticData data;
  Matrix medoids;
  std::vector<DimensionSet> dims;
};

Fixture MakeFixture() {
  GeneratorParams gen;
  gen.num_points = 20000;
  gen.space_dims = 12;
  gen.num_clusters = 4;
  gen.cluster_dim_counts = {4, 4, 4, 4};
  gen.seed = 71;
  auto data = GenerateSynthetic(gen);
  EXPECT_TRUE(data.ok());
  Fixture fixture;
  fixture.data = std::move(data).value();
  MemorySource source(fixture.data.dataset);
  std::vector<size_t> medoid_indices{11, 5000, 11000, 17000};
  fixture.medoids = std::move(source.Fetch(medoid_indices)).value();
  fixture.dims = {
      DimensionSet(12, {0, 3, 5}), DimensionSet(12, {1, 2, 11}),
      DimensionSet(12, {4, 7, 8, 9}), DimensionSet(12, {6, 10})};
  return fixture;
}

TEST(ShardStressTest, BitIdenticalAcrossShardAndThreadCounts) {
  Fixture fixture = MakeFixture();
  MemorySource whole(fixture.data.dataset);

  ScanOptions base_options;
  base_options.block_rows = 256;
  LocalityStatsConsumer locality_base;
  AssignConsumer assign_base;
  ASSERT_TRUE(locality_base.Bind(&fixture.medoids).ok());
  ASSERT_TRUE(
      assign_base.Bind(&fixture.medoids, &fixture.dims, true, true).ok());
  ASSERT_TRUE(ScanExecutor(base_options)
                  .Run(whole, {&locality_base, &assign_base})
                  .ok());

  // 20000 rows / 7 shards with 256-row alignment: shards 0..5 hold 2816
  // rows, the last holds 3104 — a ragged tail on top of the ragged final
  // scan block.
  for (size_t num_shards : kCounts) {
    auto sharded =
        ShardedSource::FromDataset(fixture.data.dataset, num_shards, 256);
    ASSERT_TRUE(sharded.ok());
    ASSERT_TRUE(sharded->AlignedTo(256));
    for (size_t threads : kCounts) {
      SCOPED_TRACE(std::to_string(num_shards) + " shards, " +
                   std::to_string(threads) + " threads");
      ScanOptions options = base_options;
      options.num_threads = threads;
      LocalityStatsConsumer locality;
      AssignConsumer assign;
      ASSERT_TRUE(locality.Bind(&fixture.medoids).ok());
      ASSERT_TRUE(
          assign.Bind(&fixture.medoids, &fixture.dims, true, true).ok());
      ASSERT_TRUE(
          ScanExecutor(options).Run(*sharded, {&locality, &assign}).ok());
      EXPECT_EQ(locality.stats(), locality_base.stats());
      EXPECT_EQ(assign.labels(), assign_base.labels());
      EXPECT_EQ(assign.centroids(), assign_base.centroids());
      EXPECT_EQ(assign.cluster_sizes(), assign_base.cluster_sizes());
    }
  }
}

TEST(ShardStressTest, OneRowShardsBitIdentical) {
  // Degenerate sharding: every shard holds exactly one row. With
  // block_rows = 1 the set is aligned and the per-shard parallel path
  // runs 64 concurrent one-block scans; any larger block size exercises
  // the glued fallback instead. Both must match the unsharded bits.
  GeneratorParams gen;
  gen.num_points = 64;
  gen.space_dims = 6;
  gen.num_clusters = 2;
  gen.cluster_dim_counts = {3, 3};
  gen.seed = 19;
  auto data = GenerateSynthetic(gen);
  ASSERT_TRUE(data.ok());
  MemorySource whole(data->dataset);
  std::vector<size_t> medoid_indices{3, 40};
  Matrix medoids = std::move(whole.Fetch(medoid_indices)).value();

  std::vector<std::unique_ptr<PointSource>> shards;
  for (size_t r = 0; r < 64; ++r)
    shards.push_back(
        std::make_unique<MemorySource>(data->dataset, r, 1));
  auto sharded = ShardedSource::Create(std::move(shards));
  ASSERT_TRUE(sharded.ok());
  ASSERT_EQ(sharded->num_shards(), 64u);

  for (size_t block_rows : {1, 16}) {
    ScanOptions options;
    options.block_rows = block_rows;
    LocalityStatsConsumer base;
    ASSERT_TRUE(base.Bind(&medoids).ok());
    ASSERT_TRUE(ScanExecutor(options).Run(whole, {&base}).ok());
    EXPECT_EQ(sharded->AlignedTo(block_rows), block_rows == 1);
    for (size_t threads : kCounts) {
      SCOPED_TRACE(std::to_string(block_rows) + " block_rows, " +
                   std::to_string(threads) + " threads");
      ScanOptions threaded = options;
      threaded.num_threads = threads;
      LocalityStatsConsumer consumer;
      ASSERT_TRUE(consumer.Bind(&medoids).ok());
      ASSERT_TRUE(ScanExecutor(threaded).Run(*sharded, {&consumer}).ok());
      EXPECT_EQ(consumer.stats(), base.stats());
    }
  }
}

TEST(ShardStressTest, FusedProclusOverShardsBitIdentical) {
  Fixture fixture = MakeFixture();
  ProclusParams params;
  params.num_clusters = 4;
  params.avg_dims = 4.0;
  params.seed = 13;
  params.num_restarts = 1;
  params.max_iterations = 20;
  params.max_no_improve = 8;
  params.block_rows = 1024;

  auto base = RunProclus(fixture.data.dataset, params);
  ASSERT_TRUE(base.ok());
  for (size_t num_shards : kCounts) {
    auto sharded =
        ShardedSource::FromDataset(fixture.data.dataset, num_shards, 1024);
    ASSERT_TRUE(sharded.ok());
    for (size_t threads : {1, 7}) {
      SCOPED_TRACE(std::to_string(num_shards) + " shards, " +
                   std::to_string(threads) + " threads");
      ProclusParams threaded = params;
      threaded.num_threads = threads;
      auto result = RunProclusOnSource(*sharded, threaded);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(result->labels, base->labels);
      EXPECT_EQ(result->medoids, base->medoids);
      EXPECT_EQ(result->objective, base->objective);
      EXPECT_EQ(result->iterations, base->iterations);
    }
  }
}

}  // namespace
}  // namespace proclus
