// TSan-targeted stress tests for MedoidDistanceCache's concurrent
// scatter-fill (core/consumers.h): during a cached locality scan every
// worker writes the *contents* of fresh cache columns at its block's row
// range while the entry metadata (slot/valid/last_used), the row memo and
// the counters are touched only by the driving thread in Prepare/Merge.
// These tests push the pathological geometries at that protocol — one-row
// blocks maximize the number of concurrent writers per column, a ragged
// last block exercises the final partial range — and hold the cache to
// the engine's determinism contract: bit-identical statistics for every
// worker count, cached or not. Each run binds the same slots three
// times: under two three-medoid sets (every column and row computed),
// as one five-medoid set (changed deltas: rows recomputed from the
// committed columns), and as the first layout again (served by the row
// memo).
//
// The assignment columns of the same store get the same treatment: a
// churn schedule of cached assignment scans over memory, disk and
// 4-shard sources at two block sizes and every worker count must label,
// and accumulate centroids, exactly like the uncached bind.
//
// Lives in the `parallel`-labeled binary so the tsan CTest preset runs it.

#include "core/consumers.h"

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/matrix.h"
#include "data/binary_io.h"
#include "data/engine.h"
#include "data/sharded_source.h"
#include "gen/synthetic.h"
#include "test_temp.h"

namespace proclus {
namespace {

constexpr size_t kWorkerCounts[] = {1, 2, 7, 16};

using Layout = std::vector<std::vector<size_t>>;

// Variant layouts of the three scans of every run (see the file comment).
const Layout kLayouts[] = {{{0, 1, 2}, {0, 3, 4}}, {{0, 1, 2, 3, 4}},
                           {{0, 1, 2}, {0, 3, 4}}};

struct CacheFixture {
  SyntheticData data;
  Matrix union_coords;
  std::vector<size_t> slots;
};

// Small on purpose: block_rows = 1 turns every row into its own block, so
// a TSan run over 1153 rows already schedules 1153 concurrent scatter
// writes per fresh column without taking minutes.
CacheFixture MakeCacheFixture() {
  GeneratorParams gen;
  gen.num_points = 1153;  // prime: ragged for every block size tested
  gen.space_dims = 8;
  gen.num_clusters = 3;
  gen.cluster_dim_counts = {3, 3, 4};
  gen.seed = 29;
  auto data = GenerateSynthetic(gen);
  EXPECT_TRUE(data.ok());
  CacheFixture fixture;
  fixture.data = std::move(data).value();
  MemorySource source(fixture.data.dataset);
  std::vector<size_t> union_indices{7, 311, 600, 901, 1100};
  fixture.union_coords = std::move(source.Fetch(union_indices)).value();
  fixture.slots = {2, 5, 8, 13, 19};
  return fixture;
}

// Uncached sequential statistics of every layout at `block_rows`.
std::vector<std::vector<Matrix>> UncachedReference(
    const CacheFixture& fixture, size_t block_rows) {
  MemorySource source(fixture.data.dataset);
  ScanExecutor sequential(ScanOptions{1, block_rows, nullptr});
  std::vector<std::vector<Matrix>> reference;
  for (const Layout& layout : kLayouts) {
    LocalityStatsConsumer uncached;
    EXPECT_TRUE(uncached.Bind(&fixture.union_coords, layout).ok());
    EXPECT_TRUE(sequential.Run(source, {&uncached}).ok());
    reference.emplace_back();
    for (size_t v = 0; v < layout.size(); ++v)
      reference.back().push_back(uncached.stats(v));
  }
  return reference;
}

// Cache counters after one scan.
struct Counts {
  uint64_t hits = 0, misses = 0, row_hits = 0, row_misses = 0;
};

// Runs the first `scans` layouts cached with the given worker count and
// block size, checks each scan against `reference` (when given), and
// returns the counters after each scan with `cache` filled.
std::vector<Counts> RunCachedScans(
    const CacheFixture& fixture, size_t workers, size_t block_rows,
    size_t scans, const std::vector<std::vector<Matrix>>* reference,
    MedoidDistanceCache* cache) {
  MemorySource source(fixture.data.dataset);
  ScanExecutor executor(ScanOptions{workers, block_rows, nullptr});
  LocalityStatsConsumer consumer;
  std::vector<Counts> counts;
  for (size_t scan = 0; scan < scans; ++scan) {
    EXPECT_TRUE(consumer
                    .Bind(&fixture.union_coords, kLayouts[scan],
                          std::span<const size_t>(fixture.slots), cache)
                    .ok());
    EXPECT_TRUE(executor.Run(source, {&consumer}).ok());
    if (reference != nullptr) {
      for (size_t v = 0; v < kLayouts[scan].size(); ++v)
        EXPECT_EQ(consumer.stats(v), (*reference)[scan][v])
            << workers << " workers, scan " << scan << ", variant " << v;
    }
    counts.push_back(
        {cache->hits, cache->misses, cache->row_hits, cache->row_misses});
  }
  return counts;
}

TEST(CacheStressTest, OneRowBlocksBitIdenticalAcrossWorkerCounts) {
  CacheFixture fixture = MakeCacheFixture();
  const std::vector<std::vector<Matrix>> reference =
      UncachedReference(fixture, /*block_rows=*/1);

  for (size_t workers : kWorkerCounts) {
    MedoidDistanceCache cache;
    const std::vector<Counts> counts = RunCachedScans(
        fixture, workers, /*block_rows=*/1, /*scans=*/3, &reference, &cache);
    // Scan 1 fills every slot's column once; scan 2's changed deltas
    // read them back (one column lookup per recomputed row, each a hit);
    // scan 3 is served entirely by the row memo.
    EXPECT_EQ(counts[0].misses, fixture.slots.size()) << workers;
    EXPECT_EQ(counts[0].hits, 0u) << workers;
    EXPECT_GT(counts[1].hits, 0u) << workers;
    EXPECT_EQ(counts[1].misses, counts[0].misses) << workers;
    EXPECT_EQ(counts[1].hits, counts[1].row_misses - counts[0].row_misses)
        << workers;
    EXPECT_EQ(counts[2].row_misses, counts[1].row_misses) << workers;
    EXPECT_EQ(counts[2].hits, counts[1].hits) << workers;
    EXPECT_EQ(counts[2].row_hits - counts[1].row_hits, counts[0].row_misses)
        << workers;
  }
}

TEST(CacheStressTest, RaggedLastBlockBitIdenticalAcrossWorkerCounts) {
  CacheFixture fixture = MakeCacheFixture();
  // 1153 = 12 * 96 + 1: twelve full blocks plus a one-row tail, so the
  // final scatter range is as small as a ragged block can be.
  constexpr size_t kBlockRows = 96;
  static_assert(1153 % kBlockRows != 0);
  const std::vector<std::vector<Matrix>> reference =
      UncachedReference(fixture, kBlockRows);

  for (size_t workers : kWorkerCounts) {
    MedoidDistanceCache cache;
    const std::vector<Counts> counts = RunCachedScans(
        fixture, workers, kBlockRows, /*scans=*/3, &reference, &cache);
    EXPECT_GT(counts[1].hits, 0u) << workers << " workers";
    EXPECT_GT(counts[2].row_hits, 0u) << workers << " workers";
  }
}

TEST(CacheStressTest, BlockSizesAgreeOnCachedColumns) {
  CacheFixture fixture = MakeCacheFixture();

  // The committed columns themselves (not just the statistics reduced
  // from them) must be independent of scatter geometry: fill one cache
  // with one-row blocks at 16 workers and another sequentially with one
  // big block, then compare every distance column element-wise.
  MedoidDistanceCache scattered;
  RunCachedScans(fixture, /*workers=*/16, /*block_rows=*/1, /*scans=*/1,
                 /*reference=*/nullptr, &scattered);

  MedoidDistanceCache whole;
  RunCachedScans(fixture, /*workers=*/1, /*block_rows=*/4096, /*scans=*/1,
                 /*reference=*/nullptr, &whole);

  ASSERT_EQ(scattered.entries.size(), whole.entries.size());
  for (size_t slot : fixture.slots) {
    const std::vector<double>* scattered_col = nullptr;
    const std::vector<double>* whole_col = nullptr;
    for (const MedoidDistanceCache::Entry& entry : scattered.entries)
      if (entry.slot == slot && entry.valid) scattered_col = &entry.dist;
    for (const MedoidDistanceCache::Entry& entry : whole.entries)
      if (entry.slot == slot && entry.valid) whole_col = &entry.dist;
    ASSERT_NE(scattered_col, nullptr) << "slot " << slot;
    ASSERT_NE(whole_col, nullptr) << "slot " << slot;
    EXPECT_EQ(*scattered_col, *whole_col) << "slot " << slot;
  }
}

// One cached assignment scan of the churn below: slots and, per medoid,
// its dimensions.
struct AssignStep {
  std::vector<size_t> slots;
  std::vector<std::vector<uint32_t>> dims;
  bool normalize = true;
};

// Medoids drawn from the fixture's five union rows plus four more pool
// rows: repeats, turnover, a moving dimension set, the normalization
// flipped, full-dimensional sets and enough distinct keys to evict.
std::vector<AssignStep> StressChurn() {
  const std::vector<uint32_t> all = {0, 1, 2, 3, 4, 5, 6, 7};
  return {{{0, 1, 2}, {{0, 1, 2}, {3, 4}, {5, 6, 7}}, true},
          {{0, 1, 2}, {{0, 1, 2}, {3, 4}, {5, 6, 7}}, true},
          {{0, 3, 2}, {{0, 1, 2}, {3, 4, 5}, {5, 6, 7}}, true},
          {{0, 3, 2}, {{0, 1, 2}, {3, 4, 5}, {5, 6, 7}}, false},
          {{4, 5, 6}, {all, all, {1, 2}}, true},
          {{7, 8, 1}, {{2, 6}, {0, 7}, {1, 3, 5}}, true},
          {{0, 3, 2}, {{0, 1, 2}, {3, 4, 5}, {5, 6, 7}}, true},
          {{4, 5, 6}, {all, all, {1, 2}}, true}};
}

TEST(CacheStressTest, AssignColumnsBitIdenticalAcrossWorkersSourcesBlocks) {
  CacheFixture fixture = MakeCacheFixture();
  const Dataset& data = fixture.data.dataset;
  MemorySource memory(data);
  const std::vector<size_t> pool_rows = {7, 311, 600, 901, 1100,
                                         42, 512, 777, 1152};
  const Matrix pool = std::move(memory.Fetch(pool_rows)).value();
  const std::vector<AssignStep> steps = StressChurn();

  const std::string path = TestTempPath("assign_stress.bin");
  ASSERT_TRUE(WriteBinaryFile(data, path).ok());
  auto disk = DiskSource::Open(path);
  ASSERT_TRUE(disk.ok());

  for (size_t block_rows : {size_t{5}, size_t{96}}) {
    auto shards = ShardedSource::FromDataset(data, 4, block_rows);
    ASSERT_TRUE(shards.ok());
    const PointSource* sources[] = {&memory, &*disk, &*shards};
    for (const PointSource* source : sources) {
      for (size_t workers : kWorkerCounts) {
        MedoidDistanceCache cache;
        ScanExecutor executor(ScanOptions{workers, block_rows, nullptr});
        ScanExecutor sequential(ScanOptions{1, block_rows, nullptr});
        AssignConsumer cached;
        for (size_t s = 0; s < steps.size(); ++s) {
          Matrix coords(3, pool.cols());
          std::vector<DimensionSet> dims;
          for (size_t i = 0; i < 3; ++i) {
            for (size_t j = 0; j < pool.cols(); ++j)
              coords(i, j) = pool(steps[s].slots[i], j);
            dims.emplace_back(pool.cols(), steps[s].dims[i]);
          }
          ASSERT_TRUE(cached
                          .Bind(&coords, &dims, steps[s].normalize, true,
                                std::span<const size_t>(steps[s].slots),
                                &cache)
                          .ok());
          ASSERT_TRUE(executor.Run(*source, {&cached}).ok());
          AssignConsumer plain;
          ASSERT_TRUE(plain.Bind(&coords, &dims, steps[s].normalize, true)
                          .ok());
          ASSERT_TRUE(sequential.Run(memory, {&plain}).ok());
          EXPECT_EQ(cached.labels(), plain.labels())
              << workers << " workers, block_rows " << block_rows
              << ", step " << s;
          EXPECT_EQ(cached.centroids(), plain.centroids());
          EXPECT_EQ(cached.cluster_sizes(), plain.cluster_sizes());
        }
        EXPECT_GT(cache.assign_hits, 0u) << workers << " workers";
      }
    }
  }
}

}  // namespace
}  // namespace proclus
