#include "extensions/orclus.h"

#include <cmath>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/proclus.h"
#include "eval/metrics.h"
#include "gen/synthetic.h"

namespace proclus {
namespace {

TEST(OrclusValidationTest, RejectsBadParams) {
  Dataset ds(Matrix(100, 8));
  OrclusParams params;
  params.num_clusters = 0;
  EXPECT_FALSE(RunOrclus(ds, params).ok());
  params = OrclusParams{};
  params.num_clusters = 200;
  EXPECT_FALSE(RunOrclus(ds, params).ok());
  params = OrclusParams{};
  params.subspace_dims = 0;
  EXPECT_FALSE(RunOrclus(ds, params).ok());
  params = OrclusParams{};
  params.subspace_dims = 9;  // > d.
  EXPECT_FALSE(RunOrclus(ds, params).ok());
  params = OrclusParams{};
  params.alpha = 1.0;
  EXPECT_FALSE(RunOrclus(ds, params).ok());
  params = OrclusParams{};
  params.initial_seeds = 2;  // < k.
  params.num_clusters = 5;
  EXPECT_FALSE(RunOrclus(ds, params).ok());
}

// A NaN alpha passed the range check and hung RunOrclus: its decay loop
// casts floor(alpha * kc) to size_t. Validate must refuse it by name.
TEST(OrclusValidationTest, NonFiniteAlphaIsRejectedByName) {
  for (double alpha : {std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::infinity(),
                       -std::numeric_limits<double>::infinity()}) {
    OrclusParams params;
    params.alpha = alpha;
    const Status status = params.Validate(100, 8);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("alpha"), std::string::npos)
        << status.ToString();
  }
}

TEST(ProjectedDistanceTest, KnownValues) {
  // Basis = x axis only: distance is |dx| regardless of dy.
  Matrix basis(1, 2, {1, 0});
  std::vector<double> center{0, 0};
  std::vector<double> point{3, 44};
  EXPECT_DOUBLE_EQ(ProjectedDistance(point, center, basis), 3.0);
  // Diagonal basis (1,1)/sqrt(2): projection of (3,1) is 4/sqrt(2).
  Matrix diag(1, 2, {1.0 / std::sqrt(2.0), 1.0 / std::sqrt(2.0)});
  std::vector<double> p2{3, 1};
  EXPECT_NEAR(ProjectedDistance(p2, center, diag), 4.0 / std::sqrt(2.0),
              1e-12);
  // Full orthonormal basis: Euclidean distance.
  Matrix full(2, 2, {1, 0, 0, 1});
  EXPECT_NEAR(ProjectedDistance(p2, center, full), std::sqrt(10.0), 1e-12);
}

TEST(OrclusTest, OutputShape) {
  GeneratorParams gen;
  gen.num_points = 2000;
  gen.space_dims = 10;
  gen.num_clusters = 3;
  gen.cluster_dim_counts = {3, 3, 3};
  gen.outlier_fraction = 0.0;
  gen.seed = 3;
  auto data = GenerateSynthetic(gen);
  ASSERT_TRUE(data.ok());
  OrclusParams params;
  params.num_clusters = 3;
  params.subspace_dims = 3;
  params.seed = 7;
  auto result = RunOrclus(data->dataset, params);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->labels.size(), 2000u);
  EXPECT_LE(result->centroids.rows(), 3u);
  EXPECT_EQ(result->subspaces.size(), result->centroids.rows());
  for (const Matrix& basis : result->subspaces) {
    EXPECT_EQ(basis.rows(), 3u);
    EXPECT_EQ(basis.cols(), 10u);
    // Rows orthonormal.
    for (size_t a = 0; a < basis.rows(); ++a) {
      for (size_t b = a; b < basis.rows(); ++b) {
        double dot = 0.0;
        for (size_t j = 0; j < basis.cols(); ++j)
          dot += basis(a, j) * basis(b, j);
        EXPECT_NEAR(dot, a == b ? 1.0 : 0.0, 1e-8);
      }
    }
  }
  for (int label : result->labels) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, static_cast<int>(result->centroids.rows()));
  }
  EXPECT_GE(result->objective, 0.0);
}

TEST(OrclusTest, RecoversAxisParallelClusters) {
  GeneratorParams gen;
  gen.num_points = 4000;
  gen.space_dims = 12;
  gen.num_clusters = 3;
  gen.cluster_dim_counts = {4, 4, 4};
  gen.outlier_fraction = 0.0;
  gen.seed = 11;
  auto data = GenerateSynthetic(gen);
  ASSERT_TRUE(data.ok());
  OrclusParams params;
  params.num_clusters = 3;
  params.subspace_dims = 4;
  params.seed = 5;
  auto result = RunOrclus(data->dataset, params);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(AdjustedRandIndex(result->labels, data->truth.labels), 0.8);
}

TEST(OrclusTest, DeterministicForSeed) {
  GeneratorParams gen;
  gen.num_points = 1500;
  gen.space_dims = 8;
  gen.num_clusters = 2;
  gen.cluster_dim_counts = {3, 3};
  gen.seed = 13;
  auto data = GenerateSynthetic(gen);
  ASSERT_TRUE(data.ok());
  OrclusParams params;
  params.num_clusters = 2;
  params.subspace_dims = 3;
  params.seed = 17;
  auto a = RunOrclus(data->dataset, params);
  auto b = RunOrclus(data->dataset, params);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->labels, b->labels);
  EXPECT_EQ(a->objective, b->objective);
}

TEST(OrclusTest, HandlesRotatedClustersBetterThanProclus) {
  // The headline test: at 45 degrees of subspace tilt, ORCLUS's oriented
  // subspaces track the structure that PROCLUS's axis-parallel subsets
  // cannot represent.
  GeneratorParams gen;
  gen.num_points = 5000;
  gen.space_dims = 12;
  gen.num_clusters = 3;
  gen.cluster_dim_counts = {4, 4, 4};
  gen.outlier_fraction = 0.0;
  gen.rotation_max_degrees = 45.0;
  gen.seed = 19;
  auto data = GenerateSynthetic(gen);
  ASSERT_TRUE(data.ok());

  OrclusParams oparams;
  oparams.num_clusters = 3;
  oparams.subspace_dims = 4;
  oparams.seed = 3;
  auto orclus = RunOrclus(data->dataset, oparams);
  ASSERT_TRUE(orclus.ok());

  ProclusParams pparams;
  pparams.num_clusters = 3;
  pparams.avg_dims = 4.0;
  pparams.seed = 3;
  pparams.detect_outliers = false;
  auto proclus_result = RunProclus(data->dataset, pparams);
  ASSERT_TRUE(proclus_result.ok());

  double orclus_ari =
      AdjustedRandIndex(orclus->labels, data->truth.labels);
  double proclus_ari =
      AdjustedRandIndex(proclus_result->labels, data->truth.labels);
  EXPECT_GT(orclus_ari, 0.75);
  EXPECT_GE(orclus_ari, proclus_ari - 0.05)
      << "orclus " << orclus_ari << " vs proclus " << proclus_ari;
}

TEST(OrclusTest, SubspaceTracksTiltedDirection) {
  // One cluster stretched along the diagonal of dims (0, 1): the tight
  // basis must be (anti)parallel to the orthogonal diagonal.
  Rng rng(23);
  Matrix m(500, 2);
  for (size_t i = 0; i < 500; ++i) {
    double along = rng.Normal(0.0, 10.0);
    double across = rng.Normal(0.0, 0.5);
    m(i, 0) = 50 + (along + across) / std::sqrt(2.0);
    m(i, 1) = 50 + (along - across) / std::sqrt(2.0);
  }
  Dataset ds(std::move(m));
  OrclusParams params;
  params.num_clusters = 1;
  params.subspace_dims = 1;
  params.initial_seeds = 1;
  params.seed = 3;
  auto result = RunOrclus(ds, params);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->subspaces.size(), 1u);
  const Matrix& basis = result->subspaces[0];
  // Tight direction ~ (1, -1)/sqrt(2): |dot| with (1,1) near 0.
  double along_dot =
      std::fabs(basis(0, 0) + basis(0, 1)) / std::sqrt(2.0);
  EXPECT_LT(along_dot, 0.1);
}

}  // namespace
}  // namespace proclus
