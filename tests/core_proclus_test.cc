#include "core/proclus.h"

#include <algorithm>
#include <limits>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "eval/confusion.h"
#include "eval/matching.h"
#include "eval/metrics.h"
#include "gen/synthetic.h"
#include "reference_proclus.h"

namespace proclus {
namespace {

SyntheticData MakeData(size_t n = 4000, size_t d = 15, size_t k = 3,
                       std::vector<size_t> dims = {4, 4, 4},
                       uint64_t seed = 11) {
  GeneratorParams params;
  params.num_points = n;
  params.space_dims = d;
  params.num_clusters = k;
  params.cluster_dim_counts = std::move(dims);
  params.outlier_fraction = 0.05;
  params.seed = seed;
  auto result = GenerateSynthetic(params);
  EXPECT_TRUE(result.ok());
  return std::move(result).value();
}

TEST(ProclusValidationTest, RejectsBadParams) {
  Dataset ds(Matrix(100, 10));
  ProclusParams params;

  params.num_clusters = 0;
  EXPECT_FALSE(RunProclus(ds, params).ok());

  params = ProclusParams{};
  params.num_clusters = 200;  // More clusters than points.
  EXPECT_FALSE(RunProclus(ds, params).ok());

  params = ProclusParams{};
  params.avg_dims = 1.0;  // Below the minimum of 2.
  EXPECT_FALSE(RunProclus(ds, params).ok());

  params = ProclusParams{};
  params.avg_dims = 11.0;  // Above d.
  EXPECT_FALSE(RunProclus(ds, params).ok());

  params = ProclusParams{};
  params.min_deviation = 0.0;
  EXPECT_FALSE(RunProclus(ds, params).ok());

  params = ProclusParams{};
  params.min_deviation = 1.5;
  EXPECT_FALSE(RunProclus(ds, params).ok());

  params = ProclusParams{};
  params.sample_factor = 0;
  EXPECT_FALSE(RunProclus(ds, params).ok());
}

TEST(ProclusTest, OutputShapeInvariants) {
  SyntheticData data = MakeData();
  ProclusParams params;
  params.num_clusters = 3;
  params.avg_dims = 4.0;
  params.seed = 5;
  auto result = RunProclus(data.dataset, params);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->labels.size(), data.dataset.size());
  EXPECT_EQ(result->medoids.size(), 3u);
  EXPECT_EQ(result->dimensions.size(), 3u);
  // Medoids distinct and in range.
  std::set<size_t> medoids(result->medoids.begin(), result->medoids.end());
  EXPECT_EQ(medoids.size(), 3u);
  for (size_t m : result->medoids) EXPECT_LT(m, data.dataset.size());
  // Dimension budget: round(k*l) total, >= 2 each.
  size_t total = 0;
  for (const auto& dims : result->dimensions) {
    EXPECT_GE(dims.size(), 2u);
    total += dims.size();
  }
  EXPECT_EQ(total, 12u);
  // Labels within range.
  for (int label : result->labels)
    EXPECT_TRUE(label == kOutlierLabel || (label >= 0 && label < 3));
  EXPECT_GT(result->iterations, 0u);
}

TEST(ProclusTest, DeterministicForSeed) {
  SyntheticData data = MakeData();
  ProclusParams params;
  params.num_clusters = 3;
  params.avg_dims = 4.0;
  params.seed = 9;
  auto a = RunProclus(data.dataset, params);
  auto b = RunProclus(data.dataset, params);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->labels, b->labels);
  EXPECT_EQ(a->medoids, b->medoids);
  EXPECT_EQ(a->objective, b->objective);
}

TEST(ProclusTest, RecoversPlantedClusters) {
  SyntheticData data = MakeData(6000, 15, 3, {4, 4, 4}, 13);
  ProclusParams params;
  params.num_clusters = 3;
  params.avg_dims = 4.0;
  params.seed = 3;
  auto result = RunProclus(data.dataset, params);
  ASSERT_TRUE(result.ok());
  auto confusion = ConfusionMatrix::Build(result->labels, 3,
                                          data.truth.labels, 3);
  ASSERT_TRUE(confusion.ok());
  EXPECT_GT(MatchedAccuracy(*confusion), 0.85);
}

TEST(ProclusTest, RecoversPlantedDimensions) {
  SyntheticData data = MakeData(6000, 15, 3, {4, 4, 4}, 17);
  ProclusParams params;
  params.num_clusters = 3;
  params.avg_dims = 4.0;
  params.seed = 3;
  auto result = RunProclus(data.dataset, params);
  ASSERT_TRUE(result.ok());
  auto confusion = ConfusionMatrix::Build(result->labels, 3,
                                          data.truth.labels, 3);
  ASSERT_TRUE(confusion.ok());
  std::vector<int> match = MatchClusters(*confusion);
  DimensionRecovery recovery = ScoreDimensionRecovery(
      result->dimensions, data.truth.cluster_dims, match);
  EXPECT_GT(recovery.mean_jaccard, 0.7);
}

TEST(ProclusTest, VaryingDimensionalityPerCluster) {
  SyntheticData data = MakeData(6000, 15, 3, {2, 4, 6}, 19);
  ProclusParams params;
  params.num_clusters = 3;
  params.avg_dims = 4.0;
  params.seed = 23;
  auto result = RunProclus(data.dataset, params);
  ASSERT_TRUE(result.ok());
  // The dimension budget k*l is honored even when input clusters have
  // heterogeneous dimensionality, with every cluster getting >= 2 dims.
  size_t total = 0;
  for (const auto& dims : result->dimensions) {
    EXPECT_GE(dims.size(), 2u);
    total += dims.size();
  }
  EXPECT_EQ(total, 12u);
}

TEST(ProclusTest, DetectsSomeOutliers) {
  SyntheticData data = MakeData(6000, 15, 3, {4, 4, 4}, 29);
  ProclusParams params;
  params.num_clusters = 3;
  params.avg_dims = 4.0;
  params.seed = 31;
  auto result = RunProclus(data.dataset, params);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->NumOutliers(), 0u);
  // Outlier detection can be disabled.
  params.detect_outliers = false;
  auto no_outliers = RunProclus(data.dataset, params);
  ASSERT_TRUE(no_outliers.ok());
  EXPECT_EQ(no_outliers->NumOutliers(), 0u);
}

TEST(ProclusTest, RefinementCanBeDisabled) {
  SyntheticData data = MakeData();
  ProclusParams params;
  params.num_clusters = 3;
  params.avg_dims = 4.0;
  params.seed = 37;
  params.refine = false;
  auto result = RunProclus(data.dataset, params);
  ASSERT_TRUE(result.ok());
  // Without refinement there is no outlier pass.
  EXPECT_EQ(result->NumOutliers(), 0u);
  EXPECT_EQ(result->labels.size(), data.dataset.size());
}

TEST(ProclusTest, RandomInitAblationStillRuns) {
  SyntheticData data = MakeData();
  ProclusParams params;
  params.num_clusters = 3;
  params.avg_dims = 4.0;
  params.seed = 41;
  params.two_step_init = false;
  auto result = RunProclus(data.dataset, params);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->medoids.size(), 3u);
}

TEST(ProclusTest, UnnormalizedDistanceAblationStillRuns) {
  SyntheticData data = MakeData();
  ProclusParams params;
  params.num_clusters = 3;
  params.avg_dims = 4.0;
  params.seed = 43;
  params.segmental_normalization = false;
  auto result = RunProclus(data.dataset, params);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->labels.size(), data.dataset.size());
}

TEST(ProclusTest, ObjectiveImprovesOverRandomAssignment) {
  SyntheticData data = MakeData(4000, 15, 3, {4, 4, 4}, 47);
  ProclusParams params;
  params.num_clusters = 3;
  params.avg_dims = 4.0;
  params.seed = 53;
  auto result = RunProclus(data.dataset, params);
  ASSERT_TRUE(result.ok());
  // A uniform-random labeling on the same dimension sets scores much
  // worse than PROCLUS's objective.
  Rng rng(59);
  std::vector<int> random_labels(data.dataset.size());
  for (auto& label : random_labels)
    label = static_cast<int>(rng.UniformInt(uint64_t{3}));
  double random_objective =
      reference::Evaluate(data.dataset, random_labels, result->dimensions);
  EXPECT_LT(result->objective, random_objective * 0.5);
}

TEST(ProclusTest, SmallDatasetEdgeCase) {
  // Tiny input: k = 2 over 6 points.
  Matrix m(6, 3,
           {0, 0, 0,  0.5, 0, 1,  0, 0.5, 2,   //
            9, 9, 50, 9.5, 9, 51, 9, 9.5, 52});
  Dataset ds(std::move(m));
  ProclusParams params;
  params.num_clusters = 2;
  params.avg_dims = 2.0;
  params.seed = 61;
  auto result = RunProclus(ds, params);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->medoids.size(), 2u);
}

TEST(ProclusTest, MaxIterationsRespectedPerRestart) {
  SyntheticData data = MakeData(2000, 15, 3);
  ProclusParams params;
  params.num_clusters = 3;
  params.avg_dims = 4.0;
  params.max_iterations = 2;
  params.seed = 67;
  params.num_restarts = 1;
  auto result = RunProclus(data.dataset, params);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->iterations, 2u);
  // With R restarts the total is capped at R * max_iterations.
  params.num_restarts = 3;
  auto multi = RunProclus(data.dataset, params);
  ASSERT_TRUE(multi.ok());
  EXPECT_LE(multi->iterations, 6u);
  EXPECT_GT(multi->iterations, 2u);
}

TEST(ProclusTest, RestartsNeverWorsenObjective) {
  SyntheticData data = MakeData(3000, 15, 3, {3, 3, 3}, 71);
  ProclusParams one;
  one.num_clusters = 3;
  one.avg_dims = 3.0;
  one.seed = 73;
  one.num_restarts = 1;
  ProclusParams many = one;
  many.num_restarts = 6;
  // The restart loop keeps the best objective found, and restart 1 of
  // both configurations consumes the identical RNG stream, so more
  // restarts can only improve (or tie) the pre-refinement optimum. We
  // compare on the refined objective which tracks it closely.
  auto a = RunProclus(data.dataset, one);
  auto b = RunProclus(data.dataset, many);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_LE(b->objective, a->objective * 1.05);
}

TEST(ProclusValidationTest, ZeroRestartsRejected) {
  Dataset ds(Matrix(100, 10));
  ProclusParams params;
  params.num_restarts = 0;
  EXPECT_FALSE(RunProclus(ds, params).ok());
}

// NaN fails both comparisons of a `x <= lo || x > hi` range check, so
// each floating-point parameter is checked for finiteness first. A NaN
// min_deviation used to fit a model (the reference rejects it), and a
// NaN avg_dims was rejected only because std::llround(NaN) happens to
// return LLONG_MIN on x86-64, under a message about k*l.
TEST(ProclusValidationTest, NonFiniteParamsAreRejectedByName) {
  for (double value : {std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::infinity(),
                       -std::numeric_limits<double>::infinity()}) {
    ProclusParams params;
    params.avg_dims = value;
    Status status = params.Validate(100, 10);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("avg_dims"), std::string::npos)
        << status.ToString();
    params = ProclusParams{};
    params.min_deviation = value;
    status = params.Validate(100, 10);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("min_deviation"), std::string::npos)
        << status.ToString();
  }
}

// A zero no-improvement budget once passed validation, ran no climb
// iteration at all and aborted on the missing best medoid set.
TEST(ProclusValidationTest, ZeroNoImproveBudgetRejected) {
  Dataset ds(Matrix(100, 10));
  ProclusParams params;
  params.max_no_improve = 0;
  auto result = RunProclus(ds, params);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------
// ValidateClustering: a real fit passes, and each output invariant,
// broken by hand on a copy of that fit, is reported.
// ---------------------------------------------------------------------

struct ValidatedFit {
  ProjectedClustering model;
  ProclusParams params;
  size_t n = 0;
};

ValidatedFit FitForValidation() {
  ValidatedFit fit;
  SyntheticData data = MakeData(/*n=*/1500, /*d=*/12);
  fit.params.num_clusters = 3;
  fit.params.avg_dims = 4.0;
  fit.params.seed = 3;
  fit.params.num_restarts = 1;
  fit.n = data.dataset.size();
  auto model = RunProclus(data.dataset, fit.params);
  EXPECT_TRUE(model.ok());
  fit.model = std::move(model).value();
  return fit;
}

// The message of a rejected model; empty when it validates.
std::string Violation(const ValidatedFit& fit) {
  const Status status = ValidateClustering(fit.model, fit.params, fit.n);
  if (status.ok()) return "";
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  return status.ToString();
}

TEST(ValidateClusteringTest, AcceptsAFit) {
  ValidatedFit fit = FitForValidation();
  EXPECT_EQ(Violation(fit), "");
  fit.params.refine = false;
  fit.model.spheres.clear();
  EXPECT_EQ(Violation(fit), "");
}

TEST(ValidateClusteringTest, RejectsAMedoidWithOneDimension) {
  ValidatedFit fit = FitForValidation();
  // Shift all but one of a medoid's dimensions to another medoid, so the
  // total still holds.
  DimensionSet& thin = fit.model.dimensions[0];
  DimensionSet& wide = fit.model.dimensions[1];
  while (thin.size() > 1) {
    thin.Remove(thin.ToVector().front());
    uint32_t free = 0;
    while (wide.Contains(free)) ++free;
    wide.Add(free);
  }
  EXPECT_NE(Violation(fit).find("fewer than 2 dimensions"), std::string::npos)
      << Violation(fit);
}

TEST(ValidateClusteringTest, RejectsAWrongDimensionTotal) {
  ValidatedFit fit = FitForValidation();
  for (uint32_t j = 0; j < 12; ++j)
    if (!fit.model.dimensions[2].Contains(j)) {
      fit.model.dimensions[2].Add(j);
      break;
    }
  EXPECT_NE(Violation(fit).find("dimensions in total"), std::string::npos)
      << Violation(fit);
}

TEST(ValidateClusteringTest, RejectsDuplicateAndOutOfRangeMedoids) {
  ValidatedFit fit = FitForValidation();
  fit.model.medoids[2] = fit.model.medoids[0];
  EXPECT_NE(Violation(fit).find("duplicate medoid"), std::string::npos)
      << Violation(fit);
  fit = FitForValidation();
  fit.model.medoids[1] = fit.n;
  EXPECT_NE(Violation(fit).find("medoid index out of range"),
            std::string::npos)
      << Violation(fit);
}

TEST(ValidateClusteringTest, RejectsLabelsOfTheWrongCountOrRange) {
  ValidatedFit fit = FitForValidation();
  fit.model.labels.pop_back();
  EXPECT_NE(Violation(fit).find("labels for"), std::string::npos)
      << Violation(fit);
  for (int bad_label : {3, -2}) {
    fit = FitForValidation();
    fit.model.labels[17] = bad_label;
    EXPECT_NE(Violation(fit).find("out of range"), std::string::npos)
        << bad_label << ": " << Violation(fit);
  }
}

TEST(ValidateClusteringTest, RejectsANonFiniteObjective) {
  ValidatedFit fit = FitForValidation();
  fit.model.objective = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(Violation(fit).find("not finite"), std::string::npos)
      << Violation(fit);
  fit.model.objective = std::numeric_limits<double>::infinity();
  EXPECT_NE(Violation(fit).find("not finite"), std::string::npos)
      << Violation(fit);
}

TEST(ValidateClusteringTest, RejectsAScanCountMismatch) {
  ValidatedFit fit = FitForValidation();
  fit.model.stats.rows_visited += 1;
  EXPECT_NE(Violation(fit).find("rows visited"), std::string::npos)
      << Violation(fit);
}

TEST(ValidateClusteringTest, RejectsAMisshapenModel) {
  ValidatedFit fit = FitForValidation();
  fit.params.num_clusters = 4;
  EXPECT_NE(Violation(fit).find("medoids for k = 4"), std::string::npos)
      << Violation(fit);
  fit = FitForValidation();
  fit.model.dimensions.pop_back();
  EXPECT_NE(Violation(fit).find("dimension sets inconsistent"),
            std::string::npos)
      << Violation(fit);
  fit = FitForValidation();
  fit.model.spheres.pop_back();
  EXPECT_NE(Violation(fit).find("spheres inconsistent"), std::string::npos)
      << Violation(fit);
  fit = FitForValidation();
  fit.model.medoid_coords = Matrix(2, 12);
  EXPECT_NE(Violation(fit).find("medoid coordinates"), std::string::npos)
      << Violation(fit);
}

TEST(FindBadMedoidsTest, SmallestClusterAlwaysBad) {
  // Clusters sizes: 5, 3, 2 of N=10, k=3 -> threshold (10/3)*0.1 = 0.33.
  std::vector<int> labels{0, 0, 0, 0, 0, 1, 1, 1, 2, 2};
  std::vector<size_t> bad = internal::FindBadMedoids(labels, 3, 0.1);
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad[0], 2u);
}

TEST(FindBadMedoidsTest, BelowThresholdAlsoBad) {
  // N=10, k=2, minDeviation=0.5 -> threshold 2.5. Sizes 9 and 1: cluster 1
  // is both smallest and below threshold; cluster 0 fine.
  std::vector<int> labels{0, 0, 0, 0, 0, 0, 0, 0, 0, 1};
  std::vector<size_t> bad = internal::FindBadMedoids(labels, 2, 0.5);
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad[0], 1u);
}

TEST(FindBadMedoidsTest, MultipleBadMedoids) {
  // N=12, k=3, minDeviation=0.9 -> threshold 3.6. Sizes 10, 1, 1.
  std::vector<int> labels{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2};
  std::vector<size_t> bad = internal::FindBadMedoids(labels, 3, 0.9);
  EXPECT_EQ(bad.size(), 2u);
}

TEST(FindBadMedoidsTest, EmptyClusterIsBad) {
  std::vector<int> labels{0, 0, 1, 1};
  std::vector<size_t> bad = internal::FindBadMedoids(labels, 3, 0.1);
  ASSERT_GE(bad.size(), 1u);
  EXPECT_EQ(bad[0], 2u);
}

}  // namespace
}  // namespace proclus
