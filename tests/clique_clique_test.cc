#include "clique/clique.h"

#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "gen/ground_truth.h"
#include "gen/synthetic.h"

namespace proclus {
namespace {

// 2-d dataset: a tight blob of cluster points plus uniform noise.
Dataset BlobWithNoise(size_t blob = 300, size_t noise = 100,
                      uint64_t seed = 5) {
  Rng rng(seed);
  Matrix m(blob + noise, 2);
  for (size_t i = 0; i < blob; ++i) {
    m(i, 0) = rng.Uniform(42.0, 48.0);
    m(i, 1) = rng.Uniform(12.0, 18.0);
  }
  for (size_t i = blob; i < blob + noise; ++i) {
    m(i, 0) = rng.Uniform(0.0, 100.0);
    m(i, 1) = rng.Uniform(0.0, 100.0);
  }
  return Dataset(std::move(m));
}

TEST(CliqueValidationTest, RejectsBadParams) {
  Dataset ds = BlobWithNoise();
  CliqueParams params;
  params.xi = 0;
  EXPECT_FALSE(RunClique(ds, params).ok());
  params = CliqueParams{};
  params.tau_percent = 0.0;
  EXPECT_FALSE(RunClique(ds, params).ok());
  params = CliqueParams{};
  params.report_mode = CliqueReportMode::kTargetDim;
  params.target_dim = 0;
  EXPECT_FALSE(RunClique(ds, params).ok());
  params = CliqueParams{};
  std::vector<int> wrong_labels(3, 0);
  EXPECT_FALSE(RunClique(ds, params, &wrong_labels).ok());
}

TEST(CliqueValidationTest, NonFiniteTauIsRejectedByName) {
  for (double tau : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    CliqueParams params;
    params.tau_percent = tau;
    const Status status = params.Validate();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("tau_percent"), std::string::npos)
        << status.ToString();
  }
}

TEST(CliqueTest, FindsPlantedDenseBlob) {
  Dataset ds = BlobWithNoise();
  CliqueParams params;
  params.xi = 10;
  params.tau_percent = 5.0;
  auto result = RunClique(ds, params);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->max_level, 2u);
  ASSERT_FALSE(result->clusters.empty());
  // The largest 2-d cluster contains (most of) the blob.
  size_t biggest = 0;
  for (const auto& cluster : result->clusters)
    if (cluster.subspace.size() == 2)
      biggest = std::max(biggest, cluster.point_count);
  EXPECT_GE(biggest, 250u);
}

TEST(CliqueTest, CoverageCountsWithTruthLabels) {
  Dataset ds = BlobWithNoise();
  std::vector<int> labels(400, kOutlierLabel);
  for (size_t i = 0; i < 300; ++i) labels[i] = 0;
  CliqueParams params;
  params.xi = 10;
  params.tau_percent = 5.0;
  auto result = RunClique(ds, params, &labels);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->cluster_point_coverage, 0.8);
  // Per-cluster label counts were filled.
  for (const auto& cluster : result->clusters) {
    ASSERT_EQ(cluster.label_counts.size(), 2u);
    size_t sum = cluster.label_counts[0] + cluster.label_counts[1];
    EXPECT_EQ(sum, cluster.point_count);
  }
}

TEST(CliqueTest, OverlapIsOneForDisjointClusters) {
  // Two well-separated blobs in the SAME 2-d space: the two output
  // clusters are disjoint, so overlap == 1.
  Rng rng(9);
  Matrix m(400, 2);
  for (size_t i = 0; i < 200; ++i) {
    m(i, 0) = rng.Uniform(10, 15);
    m(i, 1) = rng.Uniform(10, 15);
  }
  for (size_t i = 200; i < 400; ++i) {
    m(i, 0) = rng.Uniform(80, 85);
    m(i, 1) = rng.Uniform(80, 85);
  }
  Dataset ds(std::move(m));
  CliqueParams params;
  params.xi = 10;
  params.tau_percent = 10.0;
  auto result = RunClique(ds, params);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->clusters.size(), 2u);
  EXPECT_DOUBLE_EQ(result->overlap, 1.0);
  EXPECT_EQ(result->covered_points, 400u);
}

// A tight 3-d blob plus scatter that pins the grid's bounding box to
// [0, 100]^3 (the grid spans the data's own bounds, so the blob must be
// small relative to the full extent to make its cells dense).
Dataset TightBlobIn3d(uint64_t seed) {
  Rng rng(seed);
  Matrix m(320, 3);
  for (size_t i = 0; i < 280; ++i) {
    m(i, 0) = rng.Uniform(40, 45);
    m(i, 1) = rng.Uniform(40, 45);
    m(i, 2) = rng.Uniform(40, 45);
  }
  for (size_t i = 280; i < 320; ++i) {
    m(i, 0) = rng.Uniform(0, 100);
    m(i, 1) = rng.Uniform(0, 100);
    m(i, 2) = rng.Uniform(0, 100);
  }
  return Dataset(std::move(m));
}

TEST(CliqueTest, OverlapExceedsOneWhenSubspacesSharePoints) {
  // The blob is dense in every 2-d projection AND in the full 3-d space;
  // with kAll reporting each blob point lies in several subspace
  // clusters, so the average overlap is far above 1.
  Dataset ds = TightBlobIn3d(11);
  CliqueParams params;
  params.xi = 4;
  params.tau_percent = 30.0;
  params.report_mode = CliqueReportMode::kAll;
  auto result = RunClique(ds, params);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->overlap, 1.5);
}

TEST(CliqueTest, MaximalModePrunesProjections) {
  Dataset ds = TightBlobIn3d(13);
  CliqueParams all_params;
  all_params.xi = 4;
  all_params.tau_percent = 30.0;
  all_params.report_mode = CliqueReportMode::kAll;
  CliqueParams maximal_params = all_params;
  maximal_params.report_mode = CliqueReportMode::kMaximal;
  auto all = RunClique(ds, all_params);
  auto maximal = RunClique(ds, maximal_params);
  ASSERT_TRUE(all.ok() && maximal.ok());
  EXPECT_LT(maximal->clusters.size(), all->clusters.size());
  // Maximal mode reports only the 3-d subspace here.
  for (const auto& cluster : maximal->clusters)
    EXPECT_EQ(cluster.subspace.size(), 3u);
}

TEST(CliqueTest, MaxLevelModeReportsDeepestSubspacesOnly) {
  Dataset ds = TightBlobIn3d(17);
  CliqueParams params;
  params.xi = 4;
  params.tau_percent = 30.0;
  params.report_mode = CliqueReportMode::kMaxLevel;
  auto result = RunClique(ds, params);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->max_level, 3u);
  ASSERT_FALSE(result->clusters.empty());
  for (const auto& cluster : result->clusters)
    EXPECT_EQ(cluster.subspace.size(), 3u);
}

TEST(CliqueTest, TargetDimModeFiltersLevels) {
  Dataset ds = BlobWithNoise();
  CliqueParams params;
  params.xi = 10;
  params.tau_percent = 5.0;
  params.report_mode = CliqueReportMode::kTargetDim;
  params.target_dim = 2;
  auto result = RunClique(ds, params);
  ASSERT_TRUE(result.ok());
  for (const auto& cluster : result->clusters)
    EXPECT_EQ(cluster.subspace.size(), 2u);
}

TEST(CliqueTest, HighThresholdFindsNothing) {
  Dataset ds = BlobWithNoise(100, 300);
  CliqueParams params;
  params.xi = 10;
  params.tau_percent = 90.0;
  auto result = RunClique(ds, params);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->clusters.empty());
  EXPECT_EQ(result->covered_points, 0u);
}

TEST(CliqueTest, WorksOnGeneratedProjectedData) {
  GeneratorParams gen;
  gen.num_points = 4000;
  gen.space_dims = 8;
  gen.num_clusters = 2;
  gen.cluster_dim_counts = {3, 3};
  gen.seed = 21;
  auto data = GenerateSynthetic(gen);
  ASSERT_TRUE(data.ok());
  CliqueParams params;
  params.xi = 10;
  params.tau_percent = 2.0;
  auto result = RunClique(data->dataset, params, &data->truth.labels);
  ASSERT_TRUE(result.ok());
  // CLIQUE reaches at least the cluster dimensionality.
  EXPECT_GE(result->max_level, 3u);
  EXPECT_GT(result->cluster_point_coverage, 0.2);
}

}  // namespace
}  // namespace proclus
