// Equivalence tests for the PROCLUS data passes, each a consumer bound
// and run on a ScanExecutor: memory vs disk, sequential vs
// multithreaded, and block-size invariance all produce bit-identical
// results.

#include <gtest/gtest.h>

#include "test_temp.h"

#include "core/consumers.h"
#include "core/proclus.h"
#include "data/binary_io.h"
#include "data/engine.h"
#include "gen/synthetic.h"

namespace proclus {
namespace {

struct Fixture {
  SyntheticData data;
  std::string disk_path;
  Matrix medoids;
  std::vector<DimensionSet> dims;
};

Fixture MakeFixture(uint64_t seed = 3) {
  GeneratorParams gen;
  gen.num_points = 5000;
  gen.space_dims = 10;
  gen.num_clusters = 3;
  gen.cluster_dim_counts = {3, 3, 3};
  gen.seed = seed;
  auto data = GenerateSynthetic(gen);
  EXPECT_TRUE(data.ok());

  Fixture fixture;
  fixture.data = std::move(data).value();
  fixture.disk_path = TestTempPath("passes_fixture.bin");
  EXPECT_TRUE(
      WriteBinaryFile(fixture.data.dataset, fixture.disk_path).ok());

  MemorySource source(fixture.data.dataset);
  std::vector<size_t> medoid_indices{10, 2000, 4000};
  fixture.medoids = std::move(source.Fetch(medoid_indices)).value();
  fixture.dims = {DimensionSet(10, {0, 3, 5}), DimensionSet(10, {1, 2}),
                  DimensionSet(10, {4, 7, 8, 9})};
  return fixture;
}

// The passes below bind each consumer and run it on a ScanExecutor, as
// RunProclusOnSource and ClassifyPoints do.
Result<Matrix> LocalityStats(const PointSource& source, const Matrix& medoids,
                             const ScanOptions& options = {}) {
  LocalityStatsConsumer consumer;
  PROCLUS_RETURN_IF_ERROR(consumer.Bind(&medoids));
  PROCLUS_RETURN_IF_ERROR(ScanExecutor(options).Run(source, {&consumer}));
  return consumer.TakeStats();
}

Result<std::vector<int>> Assign(const PointSource& source,
                                const Fixture& fixture,
                                const ScanOptions& options = {}) {
  AssignConsumer consumer;
  PROCLUS_RETURN_IF_ERROR(consumer.Bind(&fixture.medoids, &fixture.dims,
                                        /*segmental_normalization=*/true,
                                        /*accumulate_centroids=*/false));
  PROCLUS_RETURN_IF_ERROR(ScanExecutor(options).Run(source, {&consumer}));
  return consumer.TakeLabels();
}

// Figure 6 as the refinement runs it: the assignment scan accumulates the
// centroids, a second scan the deviations.
Result<double> Objective(const PointSource& source, const Fixture& fixture,
                         const ScanOptions& options) {
  const ScanExecutor executor(options);
  AssignConsumer assign;
  PROCLUS_RETURN_IF_ERROR(assign.Bind(&fixture.medoids, &fixture.dims,
                                      /*segmental_normalization=*/true,
                                      /*accumulate_centroids=*/true));
  PROCLUS_RETURN_IF_ERROR(executor.Run(source, {&assign}));
  DeviationConsumer deviation;
  PROCLUS_RETURN_IF_ERROR(deviation.Bind(assign));
  PROCLUS_RETURN_IF_ERROR(executor.Run(source, {&deviation}));
  return deviation.objective();
}

Result<Matrix> ClusterStats(const PointSource& source, const Matrix& medoids,
                            const std::vector<int>& labels,
                            const ScanOptions& options) {
  ClusterStatsConsumer consumer;
  PROCLUS_RETURN_IF_ERROR(consumer.Bind(&medoids, &labels));
  PROCLUS_RETURN_IF_ERROR(ScanExecutor(options).Run(source, {&consumer}));
  return consumer.TakeStats();
}

Result<std::vector<int>> RefineAssign(const PointSource& source,
                                      const Fixture& fixture,
                                      const std::vector<double>& spheres,
                                      bool detect_outliers) {
  AssignConsumer consumer;
  PROCLUS_RETURN_IF_ERROR(consumer.Bind(
      &fixture.medoids, &fixture.dims, /*segmental_normalization=*/true,
      /*accumulate_centroids=*/false, detect_outliers ? &spheres : nullptr));
  PROCLUS_RETURN_IF_ERROR(ScanExecutor(ScanOptions{}).Run(source, {&consumer}));
  return consumer.TakeLabels();
}

TEST(PassesTest, LocalityStatsDiskMatchesMemory) {
  Fixture fixture = MakeFixture();
  MemorySource memory(fixture.data.dataset);
  auto disk = DiskSource::Open(fixture.disk_path);
  ASSERT_TRUE(disk.ok());
  auto a = LocalityStats(memory, fixture.medoids);
  auto b = LocalityStats(*disk, fixture.medoids);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b);
}

TEST(PassesTest, LocalityStatsThreadInvariant) {
  Fixture fixture = MakeFixture();
  MemorySource memory(fixture.data.dataset);
  auto base = LocalityStats(memory, fixture.medoids, ScanOptions{1, 512});
  ASSERT_TRUE(base.ok());
  for (size_t threads : {2, 4, 7, 16}) {
    auto result =
        LocalityStats(memory, fixture.medoids, ScanOptions{threads, 512});
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(*result, *base) << threads << " threads";
  }
}

TEST(PassesTest, LocalityStatsBlockSizeInvariant) {
  Fixture fixture = MakeFixture();
  MemorySource memory(fixture.data.dataset);
  auto base = LocalityStats(memory, fixture.medoids, ScanOptions{1, 5000});
  ASSERT_TRUE(base.ok());
  for (size_t block_rows : {1, 37, 1024, 100000}) {
    auto result =
        LocalityStats(memory, fixture.medoids, ScanOptions{1, block_rows});
    ASSERT_TRUE(result.ok());
    // Block-partial sums are merged in order, so even the FP sums agree
    // only up to reassociation across block boundaries; compare within
    // a tight numeric tolerance.
    for (size_t i = 0; i < base->rows(); ++i)
      for (size_t j = 0; j < base->cols(); ++j)
        EXPECT_NEAR((*result)(i, j), (*base)(i, j), 1e-9);
  }
}

TEST(PassesTest, AssignPointsAgreesEverywhere) {
  Fixture fixture = MakeFixture();
  MemorySource memory(fixture.data.dataset);
  auto disk = DiskSource::Open(fixture.disk_path);
  ASSERT_TRUE(disk.ok());
  auto base = Assign(memory, fixture);
  ASSERT_TRUE(base.ok());
  auto from_disk = Assign(*disk, fixture);
  ASSERT_TRUE(from_disk.ok());
  EXPECT_EQ(*base, *from_disk);
  auto threaded = Assign(memory, fixture, ScanOptions{4, 256});
  ASSERT_TRUE(threaded.ok());
  EXPECT_EQ(*base, *threaded);
}

TEST(PassesTest, EvaluateClustersAgreesEverywhere) {
  Fixture fixture = MakeFixture();
  MemorySource memory(fixture.data.dataset);
  auto disk = DiskSource::Open(fixture.disk_path);
  ASSERT_TRUE(disk.ok());
  auto base = Objective(memory, fixture, ScanOptions{1, 512});
  auto from_disk = Objective(*disk, fixture, ScanOptions{1, 512});
  // Same block size: the block-ordered reduction is bit-identical across
  // sources and thread counts.
  auto threaded = Objective(memory, fixture, ScanOptions{3, 512});
  ASSERT_TRUE(base.ok() && from_disk.ok() && threaded.ok());
  EXPECT_EQ(*base, *from_disk);
  EXPECT_EQ(*base, *threaded);
  EXPECT_GT(*base, 0.0);
  // A different block size reassociates the floating-point sums; the
  // value agrees numerically but not necessarily bit-for-bit.
  auto other_blocks = Objective(memory, fixture, ScanOptions{1, 4096});
  ASSERT_TRUE(other_blocks.ok());
  EXPECT_NEAR(*other_blocks, *base, 1e-9);
}

TEST(PassesTest, ClusterStatsAgreesEverywhere) {
  Fixture fixture = MakeFixture();
  MemorySource memory(fixture.data.dataset);
  auto disk = DiskSource::Open(fixture.disk_path);
  ASSERT_TRUE(disk.ok());
  auto labels = Assign(memory, fixture);
  ASSERT_TRUE(labels.ok());
  auto base =
      ClusterStats(memory, fixture.medoids, *labels, ScanOptions{1, 333});
  auto from_disk =
      ClusterStats(*disk, fixture.medoids, *labels, ScanOptions{1, 333});
  auto threaded =
      ClusterStats(memory, fixture.medoids, *labels, ScanOptions{5, 333});
  ASSERT_TRUE(base.ok() && from_disk.ok() && threaded.ok());
  EXPECT_EQ(*base, *from_disk);
  EXPECT_EQ(*base, *threaded);
}

TEST(PassesTest, RefineAssignDetectsOutliers) {
  Fixture fixture = MakeFixture();
  MemorySource memory(fixture.data.dataset);
  std::vector<double> tight_spheres(3, 1e-9);
  auto all_out = RefineAssign(memory, fixture, tight_spheres, true);
  ASSERT_TRUE(all_out.ok());
  size_t outliers = 0;
  for (int label : *all_out)
    if (label == kOutlierLabel) ++outliers;
  // Radii of ~0 leave only points sitting exactly on a medoid inside.
  EXPECT_GT(outliers, all_out->size() - 10);
  // With detection disabled nothing is an outlier.
  auto none = RefineAssign(memory, fixture, tight_spheres, false);
  ASSERT_TRUE(none.ok());
  for (int label : *none) EXPECT_NE(label, kOutlierLabel);
}

TEST(PassesTest, ValidationErrors) {
  // A consumer refuses no medoids, a per-medoid count mismatch, and a
  // label count other than the source's row count.
  Fixture fixture = MakeFixture();
  MemorySource memory(fixture.data.dataset);
  const ScanExecutor executor(ScanOptions{});
  Matrix no_medoids;
  EXPECT_FALSE(LocalityStatsConsumer().Bind(&no_medoids).ok());
  std::vector<int> short_labels(3, 0);
  ClusterStatsConsumer cluster_stats;
  ASSERT_TRUE(cluster_stats.Bind(&fixture.medoids, &short_labels).ok());
  EXPECT_FALSE(executor.Run(memory, {&cluster_stats}).ok());

  // A deviation scan refuses an assignment that sums no centroids, and
  // runs only over the rows and blocks of the assignment's merged scan:
  // the centroids cover each cluster's own dimensions only, so any other
  // pairing would read entries nobody summed.
  AssignConsumer labels_only;
  ASSERT_TRUE(labels_only.Bind(&fixture.medoids, &fixture.dims, true, false)
                  .ok());
  EXPECT_FALSE(DeviationConsumer().Bind(labels_only).ok());
  AssignConsumer assign;
  ASSERT_TRUE(assign.Bind(&fixture.medoids, &fixture.dims, true, true).ok());
  DeviationConsumer deviation;
  ASSERT_TRUE(deviation.Bind(assign).ok());
  EXPECT_FALSE(executor.Run(memory, {&deviation}).ok()) << "not merged";
  ASSERT_TRUE(
      ScanExecutor(ScanOptions{1, 256, nullptr}).Run(memory, {&assign}).ok());
  EXPECT_FALSE(executor.Run(memory, {&deviation}).ok()) << "other blocks";
  const size_t half = fixture.data.dataset.size() / 2;
  const std::vector<double>& values = fixture.data.dataset.matrix().data();
  Dataset first_half(Matrix(
      half, 10,
      std::vector<double>(values.begin(),
                          values.begin() + static_cast<ptrdiff_t>(half * 10))));
  MemorySource short_memory(first_half);
  ASSERT_TRUE(executor.Run(short_memory, {&assign}).ok());
  EXPECT_FALSE(executor.Run(memory, {&deviation}).ok()) << "other rows";
  ASSERT_TRUE(executor.Run(memory, {&assign}).ok());
  EXPECT_TRUE(executor.Run(memory, {&deviation}).ok());
  ASSERT_TRUE(assign.Bind(&fixture.medoids, &fixture.dims, true, true).ok());
  EXPECT_FALSE(executor.Run(memory, {&deviation}).ok()) << "rebound";

  std::vector<DimensionSet> wrong_dims(2, DimensionSet(10, {0, 1}));
  EXPECT_FALSE(AssignConsumer()
                   .Bind(&fixture.medoids, &wrong_dims, true, false)
                   .ok());
  std::vector<double> wrong_spheres(2, 1.0);
  EXPECT_FALSE(AssignConsumer()
                   .Bind(&fixture.medoids, &fixture.dims, true, false,
                         &wrong_spheres)
                   .ok());
}

TEST(ProclusOnSourceTest, DiskEqualsMemoryEndToEnd) {
  Fixture fixture = MakeFixture(7);
  ProclusParams params;
  params.num_clusters = 3;
  params.avg_dims = 3.0;
  params.seed = 5;
  params.num_restarts = 2;

  auto memory_result = RunProclus(fixture.data.dataset, params);
  ASSERT_TRUE(memory_result.ok());

  auto disk = DiskSource::Open(fixture.disk_path);
  ASSERT_TRUE(disk.ok());
  auto disk_result = RunProclusOnSource(*disk, params);
  ASSERT_TRUE(disk_result.ok());

  EXPECT_EQ(memory_result->labels, disk_result->labels);
  EXPECT_EQ(memory_result->medoids, disk_result->medoids);
  EXPECT_EQ(memory_result->objective, disk_result->objective);
  for (size_t i = 0; i < 3; ++i)
    EXPECT_EQ(memory_result->dimensions[i], disk_result->dimensions[i]);
}

TEST(ProclusOnSourceTest, ThreadCountDoesNotChangeResult) {
  Fixture fixture = MakeFixture(11);
  ProclusParams params;
  params.num_clusters = 3;
  params.avg_dims = 3.0;
  params.seed = 9;
  params.num_restarts = 2;
  params.block_rows = 512;

  auto base = RunProclus(fixture.data.dataset, params);
  ASSERT_TRUE(base.ok());
  for (size_t threads : {2, 7, 16}) {
    ProclusParams threaded = params;
    threaded.num_threads = threads;
    auto result = RunProclus(fixture.data.dataset, threaded);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->labels, base->labels) << threads << " threads";
    EXPECT_EQ(result->objective, base->objective);
  }
}

}  // namespace
}  // namespace proclus
