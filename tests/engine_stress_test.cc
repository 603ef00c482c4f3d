// TSan-targeted stress tests for the scan executor's fused multi-consumer
// path: several consumers sharing one physical scan must be race-free and
// bit-identical at every thread count. Each consumer writes only state
// owned by the block (or disjoint per-point rows), and partials are merged
// sequentially in block order, so the thread schedule can never leak into
// the results.
//
// These tests live in the `parallel`-labeled test binary so the tsan CTest
// preset picks them up (see tests/CMakeLists.txt and CMakePresets.json).

#include "data/engine.h"

#include <gtest/gtest.h>

#include <span>

#include "core/consumers.h"
#include "core/proclus.h"
#include "gen/synthetic.h"

namespace proclus {
namespace {

constexpr size_t kThreadCounts[] = {1, 2, 7, 16};

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

TEST(EngineStressTest, FusedConsumersBitIdenticalAcrossThreadCounts) {
  Fixture fixture = MakeFixture();
  MemorySource source(fixture.data.dataset);

  // Sequential reference: locality statistics + assignment/centroids
  // fused in one scan, then the deviation evaluation over those labels.
  ScanExecutor sequential(ScanOptions{1, 256, nullptr});
  LocalityStatsConsumer locality_base;
  AssignConsumer assign_base;
  DeviationConsumer deviation_base;
  ASSERT_TRUE(locality_base.Bind(&fixture.medoids).ok());
  ASSERT_TRUE(
      assign_base.Bind(&fixture.medoids, &fixture.dims, true, true).ok());
  ASSERT_TRUE(sequential.Run(source, {&locality_base, &assign_base}).ok());
  ASSERT_TRUE(deviation_base.Bind(assign_base).ok());
  ASSERT_TRUE(sequential.Run(source, {&deviation_base}).ok());

  for (size_t threads : kThreadCounts) {
    ScanExecutor executor(ScanOptions{threads, 256, nullptr});
    LocalityStatsConsumer locality;
    AssignConsumer assign;
    DeviationConsumer deviation;
    ASSERT_TRUE(locality.Bind(&fixture.medoids).ok());
    ASSERT_TRUE(
        assign.Bind(&fixture.medoids, &fixture.dims, true, true).ok());
    ASSERT_TRUE(executor.Run(source, {&locality, &assign}).ok());
    ASSERT_TRUE(deviation.Bind(assign).ok());
    ASSERT_TRUE(executor.Run(source, {&deviation}).ok());

    EXPECT_EQ(locality.stats(), locality_base.stats())
        << threads << " threads";
    EXPECT_EQ(assign.labels(), assign_base.labels());
    EXPECT_EQ(assign.centroids(), assign_base.centroids());
    EXPECT_EQ(assign.cluster_sizes(), assign_base.cluster_sizes());
    EXPECT_EQ(deviation.objective(), deviation_base.objective());
  }
}

TEST(EngineStressTest, MultiVariantLocalityBitIdenticalAcrossThreadCounts) {
  Fixture fixture = MakeFixture();
  MemorySource source(fixture.data.dataset);

  // Two speculative medoid sets sharing one scan, as the fused hill climb
  // does: variant 0 uses medoids {0,1,2,3}, variant 1 swaps one in.
  std::vector<std::vector<size_t>> variants = {{0, 1, 2, 3}, {0, 4, 2, 3}};
  MemorySource fetch_source(fixture.data.dataset);
  std::vector<size_t> union_indices{11, 5000, 11000, 17000, 2000};
  Matrix union_coords =
      std::move(fetch_source.Fetch(union_indices)).value();

  ScanExecutor sequential(ScanOptions{1, 512, nullptr});
  LocalityStatsConsumer base;
  ASSERT_TRUE(base.Bind(&union_coords, variants).ok());
  ASSERT_TRUE(sequential.Run(source, {&base}).ok());

  for (size_t threads : kThreadCounts) {
    ScanExecutor executor(ScanOptions{threads, 512, nullptr});
    LocalityStatsConsumer consumer;
    ASSERT_TRUE(consumer.Bind(&union_coords, variants).ok());
    ASSERT_TRUE(executor.Run(source, {&consumer}).ok());
    ASSERT_EQ(consumer.num_variants(), 2u);
    for (size_t v = 0; v < 2; ++v)
      EXPECT_EQ(consumer.stats(v), base.stats(v))
          << threads << " threads, variant " << v;
  }
}

TEST(EngineStressTest, CachedLocalityBitIdenticalAcrossThreadCounts) {
  Fixture fixture = MakeFixture();
  MemorySource source(fixture.data.dataset);

  // Cached bind: fresh columns are filled by concurrent blocks at
  // disjoint row ranges of shared cache entries. Three scans per
  // executor over the same slots: the second binds them as one set, so
  // rows whose delta changed reuse the columns the first scan committed,
  // and the third repeats the first and is served by the row memo.
  const std::vector<std::vector<std::vector<size_t>>> layouts = {
      {{0, 1, 2, 3}, {0, 4, 2, 3}}, {{0, 1, 2, 3, 4}},
      {{0, 1, 2, 3}, {0, 4, 2, 3}}};
  MemorySource fetch_source(fixture.data.dataset);
  std::vector<size_t> union_indices{11, 5000, 11000, 17000, 2000};
  Matrix union_coords =
      std::move(fetch_source.Fetch(union_indices)).value();
  const std::vector<size_t> slots{3, 9, 21, 40, 57};

  MedoidDistanceCache base_cache;
  ScanExecutor sequential(ScanOptions{1, 512, nullptr});
  std::vector<LocalityStatsConsumer> base(layouts.size());
  for (size_t scan = 0; scan < layouts.size(); ++scan) {
    ASSERT_TRUE(base[scan]
                    .Bind(&union_coords, layouts[scan],
                          std::span<const size_t>(slots), &base_cache)
                    .ok());
    ASSERT_TRUE(sequential.Run(source, {&base[scan]}).ok());
  }
  ASSERT_GT(base_cache.hits, 0u);
  ASSERT_GT(base_cache.row_hits, 0u);

  for (size_t threads : kThreadCounts) {
    MedoidDistanceCache cache;
    ScanExecutor executor(ScanOptions{threads, 512, nullptr});
    LocalityStatsConsumer consumer;
    for (size_t scan = 0; scan < layouts.size(); ++scan) {
      ASSERT_TRUE(consumer
                      .Bind(&union_coords, layouts[scan],
                            std::span<const size_t>(slots), &cache)
                      .ok());
      ASSERT_TRUE(executor.Run(source, {&consumer}).ok());
      for (size_t v = 0; v < layouts[scan].size(); ++v)
        EXPECT_EQ(consumer.stats(v), base[scan].stats(v))
            << threads << " threads, scan " << scan << ", variant " << v;
    }
    EXPECT_EQ(cache.hits, base_cache.hits) << threads << " threads";
    EXPECT_EQ(cache.row_hits, base_cache.row_hits) << threads << " threads";
  }
}

TEST(EngineStressTest, FusedProclusBitIdenticalAcrossThreadCounts) {
  Fixture fixture = MakeFixture();
  ProclusParams params;
  params.num_clusters = 4;
  params.avg_dims = 4.0;
  params.seed = 13;
  params.num_restarts = 2;
  params.max_iterations = 40;
  params.max_no_improve = 10;
  params.block_rows = 1024;

  auto base = RunProclus(fixture.data.dataset, params);
  ASSERT_TRUE(base.ok());
  for (size_t threads : kThreadCounts) {
    ProclusParams threaded = params;
    threaded.num_threads = threads;
    auto result = RunProclus(fixture.data.dataset, threaded);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->labels, base->labels) << threads << " threads";
    EXPECT_EQ(result->medoids, base->medoids);
    EXPECT_EQ(result->objective, base->objective);
    EXPECT_EQ(result->iterations, base->iterations);
  }
}

}  // namespace
}  // namespace proclus
