#include "core/tune.h"

#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "gen/synthetic.h"

namespace proclus {
namespace {

SyntheticData TuneData(uint64_t seed = 7, std::vector<size_t> dims = {4, 4,
                                                                      4}) {
  GeneratorParams gen;
  gen.num_points = 3000;
  gen.space_dims = 12;
  gen.num_clusters = 3;
  gen.cluster_dim_counts = std::move(dims);
  gen.seed = seed;
  auto result = GenerateSynthetic(gen);
  EXPECT_TRUE(result.ok());
  return std::move(result).value();
}

ProclusParams TuneBase() {
  ProclusParams base;
  base.num_clusters = 3;
  base.seed = 5;
  base.num_restarts = 2;
  return base;
}

TEST(EstimateAvgDimsTest, RecoversTrueDimensionalityFromPerfectLabels) {
  SyntheticData data = TuneData();
  double estimate =
      EstimateAvgDims(data.dataset, data.truth.labels, 3);
  EXPECT_NEAR(estimate, 4.0, 0.5);
}

TEST(EstimateAvgDimsTest, MixedDimensionalities) {
  SyntheticData data = TuneData(11, {2, 4, 6});
  double estimate =
      EstimateAvgDims(data.dataset, data.truth.labels, 3);
  EXPECT_NEAR(estimate, 4.0, 0.7);
}

TEST(EstimateAvgDimsTest, RandomLabelsEstimateMinimum) {
  // A random partition has no tight dimensions; the estimate falls to
  // the floor of 2 dims per cluster.
  SyntheticData data = TuneData(13);
  Rng rng(17);
  std::vector<int> random_labels(data.dataset.size());
  for (auto& label : random_labels)
    label = static_cast<int>(rng.UniformInt(uint64_t{3}));
  double estimate = EstimateAvgDims(data.dataset, random_labels, 3);
  EXPECT_DOUBLE_EQ(estimate, 2.0);
}

TEST(EstimateAvgDimsTest, EmptyClustersSkipped) {
  SyntheticData data = TuneData(19);
  // Declare 5 clusters but only populate 3.
  double estimate =
      EstimateAvgDims(data.dataset, data.truth.labels, 5);
  EXPECT_GE(estimate, 2.0);
  EXPECT_LE(estimate, 12.0);
}

TEST(AutoTuneTest, ValidationErrors) {
  SyntheticData data = TuneData();
  TuneParams tune;
  tune.max_rounds = 0;
  EXPECT_FALSE(AutoTuneAvgDims(data.dataset, TuneBase(), tune).ok());
  tune = TuneParams{};
  tune.correlation_fraction = 0.0;
  EXPECT_FALSE(AutoTuneAvgDims(data.dataset, TuneBase(), tune).ok());
  tune = TuneParams{};
  tune.correlation_fraction = 1.0;
  EXPECT_FALSE(AutoTuneAvgDims(data.dataset, TuneBase(), tune).ok());
  tune = TuneParams{};
  tune.initial_avg_dims = 100.0;  // > d.
  EXPECT_FALSE(AutoTuneAvgDims(data.dataset, TuneBase(), tune).ok());
}

TEST(AutoTuneTest, NonFiniteCorrelationFractionIsRejectedByName) {
  SyntheticData data = TuneData();
  for (double fraction : {std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity()}) {
    TuneParams tune;
    tune.correlation_fraction = fraction;
    auto result = AutoTuneAvgDims(data.dataset, TuneBase(), tune);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find("correlation_fraction"),
              std::string::npos)
        << result.status().ToString();
  }
}

TEST(AutoTuneTest, NonFiniteOrOutOfRangeInitialAvgDimsIsRejectedByName) {
  SyntheticData data = TuneData();
  for (double l : {std::numeric_limits<double>::quiet_NaN(),
                   std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity(), -1.0,
                   1e300}) {
    TuneParams tune;
    tune.initial_avg_dims = l;
    auto result = AutoTuneAvgDims(data.dataset, TuneBase(), tune);
    ASSERT_FALSE(result.ok()) << "l=" << l;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find("initial_avg_dims"),
              std::string::npos)
        << result.status().ToString();
  }
}

TEST(AutoTuneTest, ConvergesToTrueAvgDims) {
  SyntheticData data = TuneData(23);
  TuneParams tune;
  tune.initial_avg_dims = 8.0;  // Deliberately wrong start.
  auto result = AutoTuneAvgDims(data.dataset, TuneBase(), tune);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NEAR(result->selected_avg_dims, 4.0, 1.0);
  EXPECT_FALSE(result->rounds.empty());
  EXPECT_LE(result->rounds.size(), tune.max_rounds);
  EXPECT_EQ(result->clustering.labels.size(), data.dataset.size());
}

TEST(AutoTuneTest, StartingNearTruthStaysNear) {
  SyntheticData data = TuneData(29);
  TuneParams tune;
  tune.initial_avg_dims = 4.0;
  auto result = AutoTuneAvgDims(data.dataset, TuneBase(), tune);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->rounds.size(), tune.max_rounds);
  EXPECT_NEAR(result->selected_avg_dims, 4.0, 1.0);
}

TEST(AutoTuneTest, DeterministicForSeed) {
  SyntheticData data = TuneData(31);
  auto a = AutoTuneAvgDims(data.dataset, TuneBase());
  auto b = AutoTuneAvgDims(data.dataset, TuneBase());
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->selected_avg_dims, b->selected_avg_dims);
  EXPECT_EQ(a->clustering.labels, b->clustering.labels);
}

}  // namespace
}  // namespace proclus
