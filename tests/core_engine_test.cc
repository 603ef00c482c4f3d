// Engine-equivalence tests for the fused scan executor.
//
//  * The fused hill climb and the paper-transcribed reference
//    (reference_proclus.h) each reproduce the recorded goldens
//    bit-for-bit: objective bits, a hash of the labels, medoid indices,
//    iteration/improvement counts, and outliers.
//  * Production == reference across MemorySource/DiskSource and thread
//    counts, dimension sets included.
//  * The RunStats scan budget holds exactly: one bootstrap scan per
//    restart plus 2 scans per iteration and 3 refinement scans (the
//    paper's baseline reads the data 4 times per iteration and 4 times
//    to refine).
//  * N consumers sharing one physical scan produce bit-identical outputs
//    to the same consumers run over separate scans, while the scan and
//    byte counters record the saved passes.
//  * The locality row memo and distance-column cache reproduce uncached
//    scans bit for bit under medoid churn, commit nothing from a failed
//    or cancelled scan, and never serve a row across block sizes. The
//    assignment columns of the same store do the same, and a scan that
//    binds two cached consumers to one store is rejected.

#include "data/engine.h"

#include <gtest/gtest.h>

#include "test_temp.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <span>

#include "core/consumers.h"
#include "core/proclus.h"
#include "common/cancel.h"
#include "data/binary_io.h"
#include "data/fault_source.h"
#include "gen/synthetic.h"
#include "reference_proclus.h"

namespace proclus {
namespace {

struct Golden {
  uint64_t algo_seed;
  uint64_t objective_bits;
  uint64_t labels_hash;
  size_t iterations;
  size_t improvements;
  std::vector<size_t> medoids;
  size_t outliers;
};

// Recorded from the pre-refactor pass-per-aggregate implementation on the
// fixture below (n=5000, d=10, k=3, data seed 3). The production fit and
// the reference must both keep reproducing these bit-for-bit.
const Golden kGoldens[] = {
    {5, 0x400a6cd18d2f7a94ULL, 0x92d5dcf93bcdf92aULL, 128, 14,
     {1924, 769, 4122}, 18},
    {9, 0x400ab14d0fddf539ULL, 0x5e07399f4c3344b5ULL, 122, 12,
     {4932, 3639, 3351}, 11},
};

uint64_t HashLabels(const std::vector<int>& labels) {
  // FNV-1a over the label bytes, little-endian per label.
  uint64_t h = 1469598103934665603ULL;
  for (int v : labels) {
    for (size_t b = 0; b < sizeof(v); ++b) {
      h ^= static_cast<uint64_t>((static_cast<unsigned>(v) >> (8 * b)) &
                                 0xff);
      h *= 1099511628211ULL;
    }
  }
  return h;
}

uint64_t ObjectiveBits(double objective) {
  uint64_t bits = 0;
  std::memcpy(&bits, &objective, sizeof(bits));
  return bits;
}

struct Fixture {
  SyntheticData data;
  std::string disk_path;
};

Fixture MakeFixture() {
  GeneratorParams gen;
  gen.num_points = 5000;
  gen.space_dims = 10;
  gen.num_clusters = 3;
  gen.cluster_dim_counts = {3, 3, 3};
  gen.seed = 3;
  auto data = GenerateSynthetic(gen);
  EXPECT_TRUE(data.ok());
  Fixture fixture;
  fixture.data = std::move(data).value();
  fixture.disk_path = TestTempPath("engine_fixture.bin");
  EXPECT_TRUE(
      WriteBinaryFile(fixture.data.dataset, fixture.disk_path).ok());
  return fixture;
}

ProclusParams GoldenParams(uint64_t algo_seed) {
  ProclusParams params;
  params.num_clusters = 3;
  params.avg_dims = 3.0;
  params.seed = algo_seed;
  params.num_restarts = 2;
  params.block_rows = 512;
  return params;
}

void ExpectGolden(const ProjectedClustering& result, const Golden& golden) {
  EXPECT_EQ(ObjectiveBits(result.objective), golden.objective_bits);
  EXPECT_EQ(HashLabels(result.labels), golden.labels_hash);
  EXPECT_EQ(result.iterations, golden.iterations);
  EXPECT_EQ(result.improvements, golden.improvements);
  EXPECT_EQ(result.medoids, golden.medoids);
  EXPECT_EQ(result.NumOutliers(), golden.outliers);
}

TEST(EngineGoldenTest, FusedReproducesSeedGoldens) {
  Fixture fixture = MakeFixture();
  for (const Golden& golden : kGoldens) {
    auto result = RunProclus(fixture.data.dataset,
                             GoldenParams(golden.algo_seed));
    ASSERT_TRUE(result.ok());
    ExpectGolden(*result, golden);
    // Fused scan budget: one bootstrap scan per restart, 2 scans per
    // iteration, 3 refinement scans, no scans during initialization.
    const RunStats& stats = result->stats;
    EXPECT_EQ(stats.init_scans, 0u);
    EXPECT_EQ(stats.bootstrap_scans, 2u);
    EXPECT_EQ(stats.iterative_scans, 2 * golden.iterations);
    EXPECT_EQ(stats.refine_scans, 3u);
    EXPECT_EQ(stats.scans_issued, stats.init_scans + stats.bootstrap_scans +
                                      stats.iterative_scans +
                                      stats.refine_scans);
    EXPECT_EQ(stats.rows_visited, stats.scans_issued * 5000);
    EXPECT_EQ(stats.bytes_read, 0u);  // In-memory blocks are zero-copy.
    EXPECT_GT(stats.distance_evals, 0u);
  }
}

TEST(EngineGoldenTest, ReferenceReproducesSeedGoldens) {
  Fixture fixture = MakeFixture();
  for (const Golden& golden : kGoldens) {
    auto result = reference::Proclus(fixture.data.dataset,
                                     GoldenParams(golden.algo_seed));
    ASSERT_TRUE(result.ok());
    ExpectGolden(*result, golden);
  }
}

TEST(EngineGoldenTest, FusedMatchesReferenceAcrossSourcesAndThreads) {
  Fixture fixture = MakeFixture();
  auto disk = DiskSource::Open(fixture.disk_path);
  ASSERT_TRUE(disk.ok());

  auto base = reference::Proclus(fixture.data.dataset, GoldenParams(5));
  ASSERT_TRUE(base.ok());

  MemorySource memory(fixture.data.dataset);
  const PointSource* sources[] = {&memory, &*disk};
  for (const PointSource* source : sources) {
    for (size_t threads : {1, 2, 7, 16}) {
      ProclusParams params = GoldenParams(5);
      params.num_threads = threads;
      auto fused = RunProclusOnSource(*source, params);
      ASSERT_TRUE(fused.ok());
      EXPECT_EQ(fused->labels, base->labels) << threads << " threads";
      EXPECT_EQ(fused->medoids, base->medoids);
      EXPECT_EQ(ObjectiveBits(fused->objective),
                ObjectiveBits(base->objective));
      EXPECT_EQ(fused->iterations, base->iterations);
      EXPECT_EQ(fused->improvements, base->improvements);
      EXPECT_EQ(fused->dimensions, base->dimensions);
      EXPECT_EQ(fused->spheres, base->spheres);
    }
  }
}

TEST(EngineGoldenTest, FusedSpendsAtMostTwoScansPerIteration) {
  Fixture fixture = MakeFixture();
  for (uint64_t seed : {5ULL, 9ULL, 17ULL}) {
    auto result =
        RunProclus(fixture.data.dataset, GoldenParams(seed));
    ASSERT_TRUE(result.ok());
    ASSERT_GT(result->iterations, 0u);
    EXPECT_LE(result->stats.iterative_scans, 2 * result->iterations);
  }
}

// ---------------------------------------------------------------------
// Executor-level behavior.
// ---------------------------------------------------------------------

struct ConsumerFixture {
  Fixture base;
  Matrix medoids;
  std::vector<DimensionSet> dims;
};

ConsumerFixture MakeConsumerFixture() {
  ConsumerFixture fixture{MakeFixture(), {}, {}};
  MemorySource source(fixture.base.data.dataset);
  std::vector<size_t> medoid_indices{10, 2000, 4000};
  fixture.medoids = std::move(source.Fetch(medoid_indices)).value();
  fixture.dims = {DimensionSet(10, {0, 3, 5}), DimensionSet(10, {1, 2}),
                  DimensionSet(10, {4, 7, 8, 9})};
  return fixture;
}

TEST(ScanExecutorTest, FusedScanMatchesSeparateScans) {
  ConsumerFixture fixture = MakeConsumerFixture();
  MemorySource source(fixture.base.data.dataset);

  // Separate scans: locality statistics, then assignment + centroids.
  RunStats separate_stats;
  ScanExecutor separate(ScanOptions{1, 512, &separate_stats});
  LocalityStatsConsumer locality_a;
  AssignConsumer assign_a;
  ASSERT_TRUE(locality_a.Bind(&fixture.medoids).ok());
  ASSERT_TRUE(
      assign_a.Bind(&fixture.medoids, &fixture.dims, true, true).ok());
  ASSERT_TRUE(separate.Run(source, {&locality_a}).ok());
  ASSERT_TRUE(separate.Run(source, {&assign_a}).ok());
  EXPECT_EQ(separate_stats.scans_issued, 2u);
  EXPECT_EQ(separate_stats.rows_visited, 2u * 5000);

  // The same two consumers sharing one physical scan.
  RunStats fused_stats;
  ScanExecutor fused(ScanOptions{1, 512, &fused_stats});
  LocalityStatsConsumer locality_b;
  AssignConsumer assign_b;
  ASSERT_TRUE(locality_b.Bind(&fixture.medoids).ok());
  ASSERT_TRUE(
      assign_b.Bind(&fixture.medoids, &fixture.dims, true, true).ok());
  ASSERT_TRUE(fused.Run(source, {&locality_b, &assign_b}).ok());
  EXPECT_EQ(fused_stats.scans_issued, 1u);
  EXPECT_EQ(fused_stats.rows_visited, 5000u);
  EXPECT_EQ(fused_stats.distance_evals, separate_stats.distance_evals);

  // Consumers never observe each other's partials, so fusion is
  // bit-identical to separate scans.
  EXPECT_EQ(locality_a.stats(), locality_b.stats());
  EXPECT_EQ(assign_a.labels(), assign_b.labels());
  EXPECT_EQ(assign_a.centroids(), assign_b.centroids());
  EXPECT_EQ(assign_a.cluster_sizes(), assign_b.cluster_sizes());
}

// Candidate pool the slot ids index into, as in the fused hill climb.
Matrix MakePool(const PointSource& source) {
  std::vector<size_t> pool_rows(24);
  for (size_t i = 0; i < pool_rows.size(); ++i) pool_rows[i] = i * 193;
  return std::move(source.Fetch(pool_rows)).value();
}

// Union coordinates and variant rows of a list of slot sets, built the
// way the fused climb builds its speculative union.
struct Binding {
  Matrix coords;
  std::vector<size_t> slots;
  std::vector<std::vector<size_t>> variants;
};

Binding BindSlotSets(const Matrix& pool,
                     const std::vector<std::vector<size_t>>& sets) {
  Binding b;
  for (const std::vector<size_t>& set : sets) {
    std::vector<size_t> rows;
    for (size_t slot : set) {
      size_t pos = 0;
      while (pos < b.slots.size() && b.slots[pos] != slot) ++pos;
      if (pos == b.slots.size()) b.slots.push_back(slot);
      rows.push_back(pos);
    }
    b.variants.push_back(std::move(rows));
  }
  b.coords = Matrix(b.slots.size(), pool.cols());
  for (size_t i = 0; i < b.slots.size(); ++i)
    for (size_t j = 0; j < pool.cols(); ++j)
      b.coords(i, j) = pool(b.slots[i], j);
  return b;
}

TEST(ScanExecutorTest, LocalityDistanceCacheMatchesUncached) {
  ConsumerFixture fixture = MakeConsumerFixture();
  MemorySource source(fixture.base.data.dataset);
  const Matrix pool = MakePool(source);

  // A medoid-churn schedule like hill climbing's: repeats (served by the
  // row memo), single-slot turnover (kept slots whose delta changed
  // reuse their distance columns), then a sweep past the column cache's
  // capacity for u = 3 (max(16, 2*3+4) = 16 entries) so LRU eviction and
  // re-computation of evicted columns are exercised too.
  const std::vector<std::vector<size_t>> schedule = {
      {0, 1, 2},    {0, 1, 2},    {1, 2, 3},    {3, 4, 5},
      {6, 7, 8},    {9, 10, 11},  {12, 13, 14}, {15, 16, 17},
      {18, 19, 20}, {21, 22, 23}, {0, 1, 2},    {21, 22, 23},
      {1, 2, 3}};

  MedoidDistanceCache cache;
  RunStats cached_stats;
  RunStats plain_stats;
  ScanExecutor cached_exec(ScanOptions{4, 512, &cached_stats});
  ScanExecutor plain_exec(ScanOptions{4, 512, &plain_stats});
  LocalityStatsConsumer cached;
  LocalityStatsConsumer plain;

  for (const std::vector<size_t>& slots : schedule) {
    const Binding b = BindSlotSets(pool, {slots});
    ASSERT_TRUE(cached
                    .Bind(&b.coords, b.variants,
                          std::span<const size_t>(b.slots), &cache)
                    .ok());
    ASSERT_TRUE(plain.Bind(&b.coords, b.variants).ok());
    ASSERT_TRUE(cached_exec.Run(source, {&cached}).ok());
    ASSERT_TRUE(plain_exec.Run(source, {&plain}).ok());
    // Memo rows and reused columns are cached values read back verbatim,
    // so the cached consumer's statistics are bit-identical, not merely
    // close.
    EXPECT_EQ(cached.stats(), plain.stats());
  }

  // Some medoids kept their delta (memo hits), some kept their slot but
  // changed delta (column hits), and the rest were computed.
  EXPECT_GT(cache.row_hits, 0u);
  EXPECT_GT(cache.hits, 0u);
  EXPECT_GT(cache.misses, 0u);
  // One variant of distinct slots: every medoid is one row lookup, and
  // every memo miss looks up exactly one column.
  EXPECT_EQ(cache.row_hits + cache.row_misses, 3 * schedule.size());
  EXPECT_EQ(cache.hits + cache.misses, cache.row_misses);
  // Only column misses cost an n-row distance column.
  EXPECT_EQ(plain_stats.distance_evals - cached_stats.distance_evals,
            (3 * schedule.size() - cache.misses) * 5000u);
  // The eviction sweep pushed past the column capacity, but the memo
  // still served the final {0, 1, 2} scan.
  EXPECT_LE(cache.entries.size(), 16u);
}

TEST(LocalityRowMemoTest, MatchesUncachedAcrossSpeculativeChurn) {
  ConsumerFixture fixture = MakeConsumerFixture();
  MemorySource source(fixture.base.data.dataset);
  const Matrix pool = MakePool(source);

  // Two speculative sets per scan, as the fused climb binds them. The
  // first scan's sets coincide, so each of their rows is accumulated
  // once; later scans repeat slots under equal deltas (memo hits) and
  // under changed deltas (column hits).
  const std::vector<std::vector<std::vector<size_t>>> schedule = {
      {{0, 1, 2}, {0, 1, 2}}, {{0, 1, 3}, {0, 1, 2}}, {{1, 2, 3}, {0, 2, 4}},
      {{0, 1, 2}, {5, 6, 7}}, {{5, 6, 7}, {0, 1, 3}}, {{2, 3, 4}, {1, 2, 3}},
      {{0, 5, 9}, {0, 1, 2}}};

  MedoidDistanceCache cache;
  RunStats cached_stats;
  ScanExecutor cached_exec(ScanOptions{3, 700, &cached_stats});
  ScanExecutor plain_exec(ScanOptions{1, 700, nullptr});
  LocalityStatsConsumer cached;
  for (size_t scan = 0; scan < schedule.size(); ++scan) {
    const Binding b = BindSlotSets(pool, schedule[scan]);
    LocalityStatsConsumer plain;
    ASSERT_TRUE(plain.Bind(&b.coords, b.variants).ok());
    ASSERT_TRUE(plain_exec.Run(source, {&plain}).ok());
    ASSERT_TRUE(cached
                    .Bind(&b.coords, b.variants,
                          std::span<const size_t>(b.slots), &cache)
                    .ok());
    ASSERT_TRUE(cached_exec.Run(source, {&cached}).ok());
    ASSERT_EQ(cached.num_variants(), 2u);
    for (size_t v = 0; v < 2; ++v)
      EXPECT_EQ(cached.stats(v), plain.stats(v))
          << "scan " << scan << ", variant " << v;
    if (scan == 0) {
      // Coinciding variants share every (slot, delta): three rows and
      // three distance columns, not six.
      EXPECT_EQ(cache.row_misses, 3u);
      EXPECT_EQ(cache.misses, 3u);
      EXPECT_EQ(cached_stats.distance_evals, 3u * 5000 + 2 * 3);
    }
  }
  EXPECT_GT(cache.row_hits, 0u);
  EXPECT_GT(cache.hits, 0u);
}

// Cancels `token` when block `at_block` is delivered.
class CancelAtBlock final : public ScanConsumer {
 public:
  CancelAtBlock(CancelToken* token, size_t at_block)
      : token_(token), at_block_(at_block) {}
  Status Prepare(const ScanGeometry&) override { return Status::OK(); }
  void ConsumeBlock(size_t block_index, size_t, std::span<const double>,
                    size_t) override {
    if (block_index == at_block_) token_->Cancel();
  }
  Status Merge() override { return Status::OK(); }

 private:
  CancelToken* token_;
  size_t at_block_;
};

TEST(LocalityRowMemoTest, FailedAndCancelledScansCommitNothing) {
  ConsumerFixture fixture = MakeConsumerFixture();
  MemorySource source(fixture.base.data.dataset);
  const Binding b = BindSlotSets(MakePool(source), {{0, 1, 2}, {0, 3, 4}});
  LocalityStatsConsumer plain;
  ASSERT_TRUE(plain.Bind(&b.coords, b.variants).ok());
  ASSERT_TRUE(ScanExecutor(ScanOptions{1, 512, nullptr})
                  .Run(source, {&plain})
                  .ok());

  MedoidDistanceCache cache;
  LocalityStatsConsumer cached;
  auto bind = [&] {
    ASSERT_TRUE(cached
                    .Bind(&b.coords, b.variants,
                          std::span<const size_t>(b.slots), &cache)
                    .ok());
  };
  auto expect_nothing_committed = [&] {
    EXPECT_TRUE(cache.rows.empty());
    for (const MedoidDistanceCache::Entry& entry : cache.entries)
      EXPECT_FALSE(entry.valid) << "slot " << entry.slot;
  };

  // An injected short read delivers half a block, then fails the scan;
  // with retries disabled the error surfaces after blocks were consumed.
  FaultPlan plan;
  plan.short_read_rate = 1.0;
  FaultInjectingPointSource faulty(source, plan);
  RunStats fault_stats;
  ScanOptions no_retry{1, 512, &fault_stats};
  no_retry.retry.max_attempts = 1;
  bind();
  EXPECT_FALSE(ScanExecutor(no_retry).Run(faulty, {&cached}).ok());
  EXPECT_GT(fault_stats.wasted_rows, 0u);
  expect_nothing_committed();

  // A cancel that lands mid-scan (at block 3 of 10) commits nothing.
  CancelToken token;
  CancelAtBlock canceller(&token, 3);
  ScanOptions cancellable{1, 512, nullptr};
  cancellable.cancel.token = &token;
  bind();
  const Status cancelled =
      ScanExecutor(cancellable).Run(source, {&cached, &canceller});
  EXPECT_EQ(cancelled.code(), StatusCode::kCancelled);
  expect_nothing_committed();

  // The retry recomputes everything, bit-identically, and commits.
  ScanExecutor healthy(ScanOptions{2, 512, nullptr});
  bind();
  ASSERT_TRUE(healthy.Run(source, {&cached}).ok());
  for (size_t v = 0; v < 2; ++v) EXPECT_EQ(cached.stats(v), plain.stats(v));
  EXPECT_EQ(cache.row_hits, 0u);
  EXPECT_FALSE(cache.rows.empty());
  const uint64_t committed = cache.rows.size();

  // Now the memo serves every row.
  bind();
  ASSERT_TRUE(healthy.Run(source, {&cached}).ok());
  for (size_t v = 0; v < 2; ++v) EXPECT_EQ(cached.stats(v), plain.stats(v));
  EXPECT_EQ(cache.row_hits, committed);
}

TEST(LocalityRowMemoTest, NeverServesRowsAcrossBlockSizes) {
  ConsumerFixture fixture = MakeConsumerFixture();
  MemorySource source(fixture.base.data.dataset);
  const Binding b = BindSlotSets(MakePool(source), {{0, 1, 2}});
  // A row depends on the block split (partials merge in block order), a
  // distance column does not: block sizes alternate, every committed row
  // is poisoned before the next scan, and a served row would show up as
  // a NaN mismatch against the uncached reference.
  const size_t kBlockRows[] = {512, 96, 512};
  MedoidDistanceCache cache;
  LocalityStatsConsumer cached;
  for (size_t scan = 0; scan < 3; ++scan) {
    const size_t block_rows = kBlockRows[scan];
    LocalityStatsConsumer plain;
    ASSERT_TRUE(plain.Bind(&b.coords, b.variants).ok());
    ASSERT_TRUE(ScanExecutor(ScanOptions{1, block_rows, nullptr})
                    .Run(source, {&plain})
                    .ok());
    for (MedoidDistanceCache::Row& row : cache.rows)
      std::fill(row.stats.begin(), row.stats.end(),
                std::numeric_limits<double>::quiet_NaN());
    ASSERT_TRUE(cached
                    .Bind(&b.coords, b.variants,
                          std::span<const size_t>(b.slots), &cache)
                    .ok());
    ASSERT_TRUE(ScanExecutor(ScanOptions{4, block_rows, nullptr})
                    .Run(source, {&cached})
                    .ok());
    EXPECT_EQ(cached.stats(), plain.stats()) << "block_rows " << block_rows;
    EXPECT_EQ(cache.row_hits, 0u) << "block_rows " << block_rows;
  }
  // Columns are geometry-free: both later scans reused all three.
  EXPECT_EQ(cache.misses, 3u);
  EXPECT_EQ(cache.hits, 6u);
}

// ---------------------------------------------------------------------
// Assignment distance columns in the shared column store.
// ---------------------------------------------------------------------

// One assignment scan of a churn schedule: the medoid slots, each
// medoid's dimension list and the normalization.
struct AssignStep {
  std::vector<size_t> slots;
  std::vector<std::vector<uint32_t>> dims;
  bool normalize = true;
};

// Hill-climbing-like churn over k = 3 slots of MakePool's 24: repeats,
// one-slot turnover, a dimension set that moves, the normalization
// flipped (never the same key), full-dimensional sets (the locality
// key), and a sweep past the store's 16 entries so eviction runs.
std::vector<AssignStep> AssignChurn() {
  const std::vector<std::vector<uint32_t>> base = {{0, 3, 5}, {1, 2},
                                                   {4, 7, 8, 9}};
  std::vector<std::vector<uint32_t>> moved = base;
  moved[1] = {1, 2, 6};
  std::vector<uint32_t> all(10);
  for (uint32_t j = 0; j < 10; ++j) all[j] = j;
  std::vector<AssignStep> steps = {
      {{0, 1, 2}, base, true},  {{0, 1, 2}, base, true},
      {{0, 1, 3}, base, true},  {{0, 1, 3}, moved, true},
      {{0, 1, 3}, moved, false}, {{0, 1, 3}, moved, true},
      {{0, 1, 2}, {all, all, all}, true}};
  for (size_t first = 3; first + 2 < 24; first += 3)
    steps.push_back({{first, first + 1, first + 2}, base, true});
  steps.push_back({{0, 1, 2}, base, true});
  steps.push_back({{0, 1, 2}, {all, all, all}, false});
  return steps;
}

// Binds `step` over `pool`: coordinates and dimension sets.
void StepInputs(const Matrix& pool, const AssignStep& step, Matrix* coords,
                std::vector<DimensionSet>* dims) {
  *coords = Matrix(step.slots.size(), pool.cols());
  dims->clear();
  for (size_t i = 0; i < step.slots.size(); ++i) {
    for (size_t j = 0; j < pool.cols(); ++j)
      (*coords)(i, j) = pool(step.slots[i], j);
    dims->emplace_back(pool.cols(), step.dims[i]);
  }
}

TEST(AssignColumnCacheTest, MatchesUncachedAcrossChurn) {
  ConsumerFixture fixture = MakeConsumerFixture();
  MemorySource source(fixture.base.data.dataset);
  const Matrix pool = MakePool(source);
  const std::vector<AssignStep> steps = AssignChurn();

  MedoidDistanceCache cache;
  RunStats cached_stats;
  RunStats plain_stats;
  ScanExecutor cached_exec(ScanOptions{4, 512, &cached_stats});
  ScanExecutor plain_exec(ScanOptions{4, 512, &plain_stats});
  AssignConsumer cached;
  AssignConsumer plain;
  for (size_t s = 0; s < steps.size(); ++s) {
    Matrix coords;
    std::vector<DimensionSet> dims;
    StepInputs(pool, steps[s], &coords, &dims);
    ASSERT_TRUE(cached
                    .Bind(&coords, &dims, steps[s].normalize, true,
                          std::span<const size_t>(steps[s].slots), &cache)
                    .ok());
    ASSERT_TRUE(plain.Bind(&coords, &dims, steps[s].normalize, true).ok());
    ASSERT_TRUE(cached_exec.Run(source, {&cached}).ok());
    ASSERT_TRUE(plain_exec.Run(source, {&plain}).ok());
    EXPECT_EQ(cached.labels(), plain.labels()) << "step " << s;
    EXPECT_EQ(cached.centroids(), plain.centroids()) << "step " << s;
    EXPECT_EQ(cached.cluster_sizes(), plain.cluster_sizes()) << "step " << s;
    if (s == 1) {
      EXPECT_EQ(cache.assign_misses, 3u);
      EXPECT_EQ(cache.assign_hits, 3u);
    }
  }
  // Every scan looks each medoid up once; only misses cost a column.
  EXPECT_EQ(cache.assign_hits + cache.assign_misses, 3 * steps.size());
  EXPECT_GT(cache.assign_hits, 3u);
  EXPECT_EQ(plain_stats.distance_evals - cached_stats.distance_evals,
            cache.assign_hits * 5000u);
  EXPECT_EQ(plain_stats.kernel_rows - cached_stats.kernel_rows,
            cache.assign_hits * 5000u);
  // The locality counters are the locality consumer's alone.
  EXPECT_EQ(cache.hits + cache.misses, 0u);
  EXPECT_LE(cache.entries.size(), 16u);
}

TEST(AssignColumnCacheTest, FailedAndCancelledScansCommitNothing) {
  ConsumerFixture fixture = MakeConsumerFixture();
  MemorySource source(fixture.base.data.dataset);
  const std::vector<size_t> slots = {4, 9, 17};
  AssignConsumer plain;
  ASSERT_TRUE(plain.Bind(&fixture.medoids, &fixture.dims, true, true).ok());
  ASSERT_TRUE(
      ScanExecutor(ScanOptions{1, 512, nullptr}).Run(source, {&plain}).ok());

  MedoidDistanceCache cache;
  AssignConsumer cached;
  auto bind = [&] {
    ASSERT_TRUE(cached
                    .Bind(&fixture.medoids, &fixture.dims, true, true,
                          std::span<const size_t>(slots), &cache)
                    .ok());
  };
  auto expect_nothing_committed = [&] {
    ASSERT_EQ(cache.entries.size(), 3u);
    for (const MedoidDistanceCache::Entry& entry : cache.entries)
      EXPECT_FALSE(entry.valid) << "slot " << entry.slot;
  };

  // A short read with retries off fails the scan after blocks were
  // consumed.
  FaultPlan plan;
  plan.short_read_rate = 1.0;
  FaultInjectingPointSource faulty(source, plan);
  RunStats fault_stats;
  ScanOptions no_retry{1, 512, &fault_stats};
  no_retry.retry.max_attempts = 1;
  bind();
  EXPECT_FALSE(ScanExecutor(no_retry).Run(faulty, {&cached}).ok());
  EXPECT_GT(fault_stats.wasted_rows, 0u);
  expect_nothing_committed();

  // A cancel at block 3 of 10 commits nothing either.
  CancelToken token;
  CancelAtBlock canceller(&token, 3);
  ScanOptions cancellable{1, 512, nullptr};
  cancellable.cancel.token = &token;
  bind();
  EXPECT_EQ(ScanExecutor(cancellable).Run(source, {&cached, &canceller})
                .code(),
            StatusCode::kCancelled);
  expect_nothing_committed();
  EXPECT_EQ(cache.assign_hits, 0u);

  // A clean scan recomputes and commits; the next one is served whole.
  ScanExecutor healthy(ScanOptions{2, 512, nullptr});
  for (int scan = 0; scan < 2; ++scan) {
    bind();
    ASSERT_TRUE(healthy.Run(source, {&cached}).ok());
    EXPECT_EQ(cached.labels(), plain.labels());
    EXPECT_EQ(cached.centroids(), plain.centroids());
  }
  for (const MedoidDistanceCache::Entry& entry : cache.entries)
    EXPECT_TRUE(entry.valid) << "slot " << entry.slot;
  EXPECT_EQ(cache.assign_hits, 3u);
}

TEST(AssignColumnCacheTest, RetriedScanCommitsUndisturbedColumns) {
  ConsumerFixture fixture = MakeConsumerFixture();
  MemorySource source(fixture.base.data.dataset);
  const std::vector<size_t> slots = {4, 9, 17};
  auto fill = [&](const PointSource& from, const ScanOptions& options,
                  MedoidDistanceCache* cache) {
    AssignConsumer consumer;
    ASSERT_TRUE(consumer
                    .Bind(&fixture.medoids, &fixture.dims, false, true,
                          std::span<const size_t>(slots), cache)
                    .ok());
    ASSERT_TRUE(ScanExecutor(options).Run(from, {&consumer}).ok());
  };
  MedoidDistanceCache undisturbed;
  fill(source, ScanOptions{1, 512, nullptr}, &undisturbed);

  // The first scan operation fails after a short read; the executor
  // rolls back and re-issues, and the re-issued attempt is the one that
  // commits.
  FaultPlan plan;
  plan.short_read_rate = 1.0;
  plan.max_consecutive = 1;
  FaultInjectingPointSource faulty(source, plan);
  RunStats stats;
  MedoidDistanceCache retried;
  fill(faulty, ScanOptions{1, 512, &stats}, &retried);
  EXPECT_GT(stats.retries, 0u);
  ASSERT_EQ(retried.entries.size(), undisturbed.entries.size());
  for (size_t e = 0; e < retried.entries.size(); ++e) {
    EXPECT_TRUE(retried.entries[e].valid);
    EXPECT_EQ(retried.entries[e].slot, undisturbed.entries[e].slot);
    EXPECT_EQ(retried.entries[e].dist, undisturbed.entries[e].dist);
  }
}

TEST(AssignColumnCacheTest, SecondCachedConsumerInOneScanIsRejected) {
  // A cached locality consumer and a cached assignment consumer bound to
  // one store in one scan: the second's claims could evict a column the
  // first claimed, so the scan fails before reading a block, in either
  // order, and commits nothing. Each consumer alone then runs as usual.
  ConsumerFixture fixture = MakeConsumerFixture();
  MemorySource source(fixture.base.data.dataset);
  const Matrix pool = MakePool(source);
  const Binding b = BindSlotSets(pool, {{0, 1, 2}});
  const std::vector<DimensionSet> dims = {DimensionSet(10, {0, 1, 2}),
                                          DimensionSet(10, {3, 4}),
                                          DimensionSet(10, {5, 6, 7})};

  MedoidDistanceCache cache;
  RunStats stats;
  ScanExecutor executor(ScanOptions{2, 512, &stats});
  LocalityStatsConsumer locality;
  AssignConsumer assign;
  auto bind = [&] {
    ASSERT_TRUE(locality
                    .Bind(&b.coords, b.variants,
                          std::span<const size_t>(b.slots), &cache)
                    .ok());
    ASSERT_TRUE(assign
                    .Bind(&b.coords, &dims, true, true,
                          std::span<const size_t>(b.slots), &cache)
                    .ok());
  };
  for (const std::vector<ScanConsumer*>& order :
       {std::vector<ScanConsumer*>{&locality, &assign},
        std::vector<ScanConsumer*>{&assign, &locality}}) {
    bind();
    EXPECT_EQ(executor.Run(source, order).code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_EQ(stats.rows_visited, 0u);
  for (const MedoidDistanceCache::Entry& entry : cache.entries)
    EXPECT_FALSE(entry.valid) << "slot " << entry.slot;

  LocalityStatsConsumer plain_locality;
  AssignConsumer plain_assign;
  ASSERT_TRUE(plain_locality.Bind(&b.coords, b.variants).ok());
  ASSERT_TRUE(plain_assign.Bind(&b.coords, &dims, true, true).ok());
  ASSERT_TRUE(ScanExecutor(ScanOptions{1, 512, nullptr})
                  .Run(source, {&plain_locality, &plain_assign})
                  .ok());
  bind();
  ASSERT_TRUE(executor.Run(source, {&locality}).ok());
  ASSERT_TRUE(executor.Run(source, {&assign}).ok());
  EXPECT_EQ(locality.stats(), plain_locality.stats());
  EXPECT_EQ(assign.labels(), plain_assign.labels());
  EXPECT_EQ(assign.centroids(), plain_assign.centroids());
  for (const MedoidDistanceCache::Entry& entry : cache.entries)
    EXPECT_TRUE(entry.valid) << "slot " << entry.slot;
}

TEST(EngineStatsTest, FusedFitReportsAssignColumnMemo) {
  Fixture fixture = MakeFixture();
  const ProclusParams params = GoldenParams(kGoldens[0].algo_seed);
  auto result = RunProclus(fixture.data.dataset, params);
  ASSERT_TRUE(result.ok());
  const RunStats& stats = result->stats;
  EXPECT_GT(stats.assign_column_hits, 0u);
  // One assignment scan per climb iteration, k lookups each.
  EXPECT_EQ(stats.assign_column_hits + stats.assign_column_misses,
            params.num_clusters * result->iterations);
}

TEST(EngineStatsTest, FusedFitOnTwentyDimsCountsTileReuse) {
  // The locality fills score several medoids against each gathered
  // sub-tile, so a fused fit must report tile reuse.
  GeneratorParams gen;
  gen.num_points = 3000;
  gen.space_dims = 20;
  gen.num_clusters = 3;
  gen.cluster_dim_counts = {4, 4, 4};
  gen.seed = 17;
  auto data = GenerateSynthetic(gen);
  ASSERT_TRUE(data.ok());
  ProclusParams params;
  params.num_clusters = 3;
  params.avg_dims = 4.0;
  params.seed = 2;
  params.num_restarts = 1;
  auto result = RunProclus(data->dataset, params);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->stats.kernel_batches, 0u);
  EXPECT_GT(result->stats.tile_reuse_hits, 0u);
}

TEST(EngineStatsTest, FusedFitReportsLocalityRowMemo) {
  Fixture fixture = MakeFixture();
  auto result = RunProclus(fixture.data.dataset,
                           GoldenParams(kGoldens[0].algo_seed));
  ASSERT_TRUE(result.ok());
  const RunStats& stats = result->stats;
  EXPECT_GT(stats.locality_row_hits, 0u);
  EXPECT_GT(stats.locality_row_misses, 0u);
  // Only memo misses look up a distance column, at most one per slot.
  EXPECT_LE(stats.locality_cache_hits + stats.locality_cache_misses,
            stats.locality_row_misses);
}

TEST(ScanExecutorTest, ValidatesOptionsAndConsumerList) {
  ConsumerFixture fixture = MakeConsumerFixture();
  MemorySource source(fixture.base.data.dataset);
  LocalityStatsConsumer locality;
  ASSERT_TRUE(locality.Bind(&fixture.medoids).ok());

  ScanExecutor zero_blocks(ScanOptions{1, 0, nullptr});
  EXPECT_FALSE(zero_blocks.Run(source, {&locality}).ok());

  ScanExecutor ok_options(ScanOptions{1, 512, nullptr});
  EXPECT_FALSE(
      ok_options.Run(source, std::initializer_list<ScanConsumer*>{}).ok());
}

TEST(ScanExecutorTest, DiskScansAccountEveryByte) {
  ConsumerFixture fixture = MakeConsumerFixture();
  auto disk = DiskSource::Open(fixture.base.disk_path);
  ASSERT_TRUE(disk.ok());

  RunStats stats;
  ScanExecutor executor(ScanOptions{1, 512, &stats});
  LocalityStatsConsumer locality;
  ASSERT_TRUE(locality.Bind(&fixture.medoids).ok());
  const uint64_t bytes_per_scan = 5000ull * 10 * sizeof(double);
  for (uint64_t scan = 1; scan <= 3; ++scan) {
    ASSERT_TRUE(locality.Bind(&fixture.medoids).ok());
    ASSERT_TRUE(executor.Run(*disk, {&locality}).ok());
    EXPECT_EQ(stats.scans_issued, scan);
    EXPECT_EQ(stats.bytes_read, scan * bytes_per_scan);
  }

  // The source's own cumulative counters agree with the executor's view:
  // each scan is one ranged read per 512-row block.
  IoCounters io = disk->io();
  EXPECT_EQ(io.scans, 3u * BlockCount(5000, 512));
  EXPECT_EQ(io.rows_scanned, 3u * 5000);
  EXPECT_EQ(io.bytes_read, 3u * bytes_per_scan);
  EXPECT_EQ(io.rows_fetched, 0u);  // No random access was issued.
}

}  // namespace
}  // namespace proclus
