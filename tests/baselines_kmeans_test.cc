#include "baselines/kmeans.h"

#include <limits>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "distance/metric.h"

namespace proclus {
namespace {

Dataset TwoBlobs(size_t per_blob = 100, uint64_t seed = 3) {
  Rng rng(seed);
  Matrix m(per_blob * 2, 2);
  for (size_t i = 0; i < per_blob; ++i) {
    m(i, 0) = rng.Normal(0.0, 1.0);
    m(i, 1) = rng.Normal(0.0, 1.0);
    m(per_blob + i, 0) = rng.Normal(50.0, 1.0);
    m(per_blob + i, 1) = rng.Normal(50.0, 1.0);
  }
  return Dataset(std::move(m));
}

TEST(KMeansValidationTest, RejectsBadParams) {
  Dataset ds = TwoBlobs();
  KMeansParams params;
  params.num_clusters = 0;
  EXPECT_FALSE(RunKMeans(ds, params).ok());
  params = KMeansParams{};
  params.num_clusters = 1000;
  EXPECT_FALSE(RunKMeans(ds, params).ok());
  params = KMeansParams{};
  params.max_iterations = 0;
  EXPECT_FALSE(RunKMeans(ds, params).ok());
  params = KMeansParams{};
  params.tolerance = -1.0;
  EXPECT_FALSE(RunKMeans(ds, params).ok());
}

TEST(KMeansValidationTest, NonFiniteToleranceIsRejectedByName) {
  for (double tolerance : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    KMeansParams params;
    params.tolerance = tolerance;
    const Status status = params.Validate(100);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("tolerance"), std::string::npos)
        << status.ToString();
  }
}

TEST(KMeansTest, SeparatesTwoBlobs) {
  Dataset ds = TwoBlobs();
  KMeansParams params;
  params.num_clusters = 2;
  params.seed = 7;
  auto result = RunKMeans(ds, params);
  ASSERT_TRUE(result.ok());
  // Every blob maps to a single label.
  std::set<int> first_blob, second_blob;
  for (size_t i = 0; i < 100; ++i) first_blob.insert(result->labels[i]);
  for (size_t i = 100; i < 200; ++i) second_blob.insert(result->labels[i]);
  EXPECT_EQ(first_blob.size(), 1u);
  EXPECT_EQ(second_blob.size(), 1u);
  EXPECT_NE(*first_blob.begin(), *second_blob.begin());
}

TEST(KMeansTest, CentroidsNearBlobCenters) {
  Dataset ds = TwoBlobs();
  KMeansParams params;
  params.num_clusters = 2;
  params.seed = 11;
  auto result = RunKMeans(ds, params);
  ASSERT_TRUE(result.ok());
  // One centroid near (0,0), the other near (50,50).
  double d00 = std::min(EuclideanDistance(result->centroids[0],
                                          std::vector<double>{0, 0}),
                        EuclideanDistance(result->centroids[1],
                                          std::vector<double>{0, 0}));
  double d55 = std::min(EuclideanDistance(result->centroids[0],
                                          std::vector<double>{50, 50}),
                        EuclideanDistance(result->centroids[1],
                                          std::vector<double>{50, 50}));
  EXPECT_LT(d00, 1.0);
  EXPECT_LT(d55, 1.0);
}

TEST(KMeansTest, DeterministicForSeed) {
  Dataset ds = TwoBlobs();
  KMeansParams params;
  params.num_clusters = 3;
  params.seed = 13;
  auto a = RunKMeans(ds, params);
  auto b = RunKMeans(ds, params);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->labels, b->labels);
  EXPECT_EQ(a->inertia, b->inertia);
}

TEST(KMeansTest, UniformInitAlsoWorks) {
  Dataset ds = TwoBlobs();
  KMeansParams params;
  params.num_clusters = 2;
  params.plus_plus_init = false;
  params.seed = 17;
  auto result = RunKMeans(ds, params);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->labels.size(), 200u);
}

TEST(KMeansTest, InertiaNonIncreasingWithMoreIterations) {
  Dataset ds = TwoBlobs(200, 23);
  KMeansParams one;
  one.num_clusters = 4;
  one.max_iterations = 1;
  one.seed = 19;
  KMeansParams many = one;
  many.max_iterations = 50;
  auto r1 = RunKMeans(ds, one);
  auto r2 = RunKMeans(ds, many);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_LE(r2->inertia, r1->inertia + 1e-9);
}

TEST(KMeansTest, KEqualsNAssignsEachPointItsOwnCluster) {
  Matrix m(3, 1, {0, 10, 20});
  Dataset ds(std::move(m));
  KMeansParams params;
  params.num_clusters = 3;
  params.seed = 29;
  auto result = RunKMeans(ds, params);
  ASSERT_TRUE(result.ok());
  std::set<int> labels(result->labels.begin(), result->labels.end());
  EXPECT_EQ(labels.size(), 3u);
  EXPECT_NEAR(result->inertia, 0.0, 1e-9);
}

}  // namespace
}  // namespace proclus
