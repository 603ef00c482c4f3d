#include "baselines/dbscan.h"

#include <limits>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "eval/metrics.h"
#include "gen/ground_truth.h"
#include "gen/synthetic.h"

namespace proclus {
namespace {

Dataset TwoBlobsWithNoise(uint64_t seed = 3) {
  Rng rng(seed);
  Matrix m(220, 2);
  for (size_t i = 0; i < 100; ++i) {
    m(i, 0) = rng.Normal(10.0, 0.5);
    m(i, 1) = rng.Normal(10.0, 0.5);
  }
  for (size_t i = 100; i < 200; ++i) {
    m(i, 0) = rng.Normal(50.0, 0.5);
    m(i, 1) = rng.Normal(50.0, 0.5);
  }
  for (size_t i = 200; i < 220; ++i) {
    m(i, 0) = rng.Uniform(0.0, 100.0);
    m(i, 1) = rng.Uniform(0.0, 100.0);
  }
  return Dataset(std::move(m));
}

TEST(DbscanValidationTest, RejectsBadParams) {
  Dataset ds = TwoBlobsWithNoise();
  DbscanParams params;
  params.eps = 0.0;
  EXPECT_FALSE(RunDbscan(ds, params).ok());
  params = DbscanParams{};
  params.min_points = 0;
  EXPECT_FALSE(RunDbscan(ds, params).ok());
}

TEST(DbscanValidationTest, NonFiniteEpsIsRejectedByName) {
  for (double eps : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    DbscanParams params;
    params.eps = eps;
    const Status status = params.Validate();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("eps"), std::string::npos)
        << status.ToString();
  }
}

TEST(DbscanTest, FindsTwoBlobsAndNoise) {
  Dataset ds = TwoBlobsWithNoise();
  DbscanParams params;
  params.eps = 2.0;
  params.min_points = 5;
  auto result = RunDbscan(ds, params);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_clusters, 2u);
  // Blob points share a label per blob.
  std::set<int> first, second;
  for (size_t i = 0; i < 100; ++i) first.insert(result->labels[i]);
  for (size_t i = 100; i < 200; ++i) second.insert(result->labels[i]);
  EXPECT_EQ(first.size(), 1u);
  EXPECT_EQ(second.size(), 1u);
  EXPECT_NE(*first.begin(), kOutlierLabel);
  EXPECT_NE(*first.begin(), *second.begin());
  // Most scattered points are noise.
  size_t noise = 0;
  for (size_t i = 200; i < 220; ++i)
    if (result->labels[i] == kOutlierLabel) ++noise;
  EXPECT_GE(noise, 15u);
}

TEST(DbscanTest, TightEpsFragments) {
  Dataset ds = TwoBlobsWithNoise();
  DbscanParams params;
  params.eps = 0.05;
  params.min_points = 5;
  auto result = RunDbscan(ds, params);
  ASSERT_TRUE(result.ok());
  // Nothing reaches density: everything is noise.
  size_t noise = 0;
  for (int label : result->labels)
    if (label == kOutlierLabel) ++noise;
  EXPECT_EQ(noise, ds.size());
  EXPECT_EQ(result->num_clusters, 0u);
}

TEST(DbscanTest, HugeEpsMergesEverything) {
  Dataset ds = TwoBlobsWithNoise();
  DbscanParams params;
  params.eps = 1000.0;
  params.min_points = 5;
  auto result = RunDbscan(ds, params);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_clusters, 1u);
  for (int label : result->labels) EXPECT_EQ(label, 0);
}

TEST(DbscanTest, DeterministicClusterNumbering) {
  Dataset ds = TwoBlobsWithNoise();
  DbscanParams params;
  params.eps = 2.0;
  auto a = RunDbscan(ds, params);
  auto b = RunDbscan(ds, params);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->labels, b->labels);
  // Cluster 0 is seeded by the lowest-index core point (a blob-1 point).
  EXPECT_EQ(a->labels[0], 0);
}

TEST(DbscanTest, ChainConnectivity) {
  // A line of points each within eps of the next forms ONE cluster even
  // though the endpoints are far apart (density-connectedness).
  Matrix m(10, 1);
  for (size_t i = 0; i < 10; ++i) m(i, 0) = static_cast<double>(i);
  Dataset ds(std::move(m));
  DbscanParams params;
  params.eps = 1.5;
  params.min_points = 2;
  auto result = RunDbscan(ds, params);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_clusters, 1u);
}

TEST(DbscanTest, BlindToProjectedClusters) {
  // The paper's motivation applied to DBSCAN: clusters correlated in 2
  // of 20 dimensions drown in full-dimensional distances, so DBSCAN
  // either merges everything or calls everything noise, far below
  // PROCLUS-level recovery.
  GeneratorParams gen;
  gen.num_points = 1500;
  gen.space_dims = 20;
  gen.num_clusters = 3;
  gen.cluster_dim_counts = {2, 2, 2};
  gen.outlier_fraction = 0.0;
  gen.seed = 5;
  auto data = GenerateSynthetic(gen);
  ASSERT_TRUE(data.ok());
  double best_ari = -1.0;
  for (double eps : {20.0, 40.0, 60.0, 80.0}) {
    DbscanParams params;
    params.eps = eps;
    params.min_points = 5;
    auto result = RunDbscan(data->dataset, params);
    ASSERT_TRUE(result.ok());
    best_ari = std::max(
        best_ari, AdjustedRandIndex(result->labels, data->truth.labels));
  }
  EXPECT_LT(best_ari, 0.3);
}

}  // namespace
}  // namespace proclus
