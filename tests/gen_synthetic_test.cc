#include "gen/synthetic.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "common/hash.h"

namespace proclus {
namespace {

GeneratorParams SmallParams() {
  GeneratorParams params;
  params.num_points = 5000;
  params.space_dims = 12;
  params.num_clusters = 4;
  params.poisson_mean = 5.0;
  params.seed = 7;
  return params;
}

TEST(GeneratorValidationTest, RejectsBadParams) {
  GeneratorParams params = SmallParams();
  params.num_points = 0;
  EXPECT_FALSE(GenerateSynthetic(params).ok());

  params = SmallParams();
  params.space_dims = 1;
  EXPECT_FALSE(GenerateSynthetic(params).ok());

  params = SmallParams();
  params.num_clusters = 0;
  EXPECT_FALSE(GenerateSynthetic(params).ok());

  params = SmallParams();
  params.outlier_fraction = 1.0;
  EXPECT_FALSE(GenerateSynthetic(params).ok());

  params = SmallParams();
  params.cluster_dim_counts = {3, 3};  // Wrong length (k = 4).
  EXPECT_FALSE(GenerateSynthetic(params).ok());

  params = SmallParams();
  params.max_scale = 0.5;
  EXPECT_FALSE(GenerateSynthetic(params).ok());
}

TEST(GeneratorValidationTest, RejectsNonFiniteParams) {
  // A NaN used to pass every range check: poisson_mean = NaN hung the
  // Poisson draw, outlier_fraction = NaN crashed on the outlier count, and
  // a non-finite spread, max_scale or range produced non-finite data.
  const std::pair<const char*, double GeneratorParams::*> fields[] = {
      {"poisson_mean", &GeneratorParams::poisson_mean},
      {"outlier_fraction", &GeneratorParams::outlier_fraction},
      {"spread", &GeneratorParams::spread},
      {"max_scale", &GeneratorParams::max_scale},
      {"range", &GeneratorParams::range},
      {"rotation_max_degrees", &GeneratorParams::rotation_max_degrees}};
  const double inf = std::numeric_limits<double>::infinity();
  for (const auto& [name, field] : fields) {
    for (double bad : {std::numeric_limits<double>::quiet_NaN(), inf, -inf}) {
      SCOPED_TRACE(std::string(name) + " = " + std::to_string(bad));
      GeneratorParams params = SmallParams();
      params.num_points = 100;
      params.*field = bad;
      auto result = GenerateSynthetic(params);
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(result.status().message().find(name), std::string::npos)
          << result.status().ToString();
    }
  }
}

TEST(GeneratorValidationTest, RejectsCoordinatesThatWouldOverflow) {
  // Finite but huge scales overflow: a spread or max_scale of 1e308 used
  // to make 190 or 129 of 1,200 coordinates non-finite.
  for (double GeneratorParams::*field :
       {&GeneratorParams::spread, &GeneratorParams::max_scale,
        &GeneratorParams::range}) {
    GeneratorParams params = SmallParams();
    params.*field = 1e308;
    auto result = GenerateSynthetic(params);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
  // Large but safe scales still generate, with every coordinate finite.
  GeneratorParams params = SmallParams();
  params.num_points = 1000;
  params.range = 1e300;
  params.spread = 1e300;
  params.rotation_max_degrees = 45.0;
  auto result = GenerateSynthetic(params);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (double value : result->dataset.matrix().data())
    ASSERT_TRUE(std::isfinite(value));
}

TEST(GeneratorValidationTest, RejectsShapesTooLargeToAllocate) {
  // num_points * space_dims used to wrap or exceed the vector's max_size,
  // and the allocation threw std::length_error out of GenerateSynthetic.
  const size_t max_values = std::vector<double>().max_size();
  const std::pair<size_t, size_t> shapes[] = {
      {size_t{1} << 62, 8},
      {10, size_t{1} << 61},
      {std::numeric_limits<size_t>::max(), 2},
      {max_values / 12 + 1, 12}};
  for (const auto& [n, d] : shapes) {
    SCOPED_TRACE(std::to_string(n) + " x " + std::to_string(d));
    GeneratorParams params = SmallParams();
    params.num_points = n;
    params.space_dims = d;
    Status status = params.Validate();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("space_dims"), std::string::npos)
        << status.ToString();
  }
  // The largest shape a vector can hold still validates.
  GeneratorParams params = SmallParams();
  params.num_points = max_values / 12;
  EXPECT_TRUE(params.Validate().ok());
}

// Known answers for the whole generator output: XXH64 of the matrix bytes
// and of the labels, plus every cluster's dimension set. Any change to the
// draw order, the shuffle or the arithmetic moves a digest.
struct GeneratorKnownAnswer {
  std::string name;
  GeneratorParams params;
  uint64_t matrix_xxh64;
  uint64_t labels_xxh64;
  std::vector<std::vector<uint32_t>> cluster_dims;
};

std::vector<GeneratorKnownAnswer> GeneratorKnownAnswers() {
  std::vector<GeneratorKnownAnswer> answers;
  answers.push_back({"small",
                     SmallParams(),
                     0xa2f4172a411e8338ULL,
                     0x38a8348c5ed67202ULL,
                     {{1, 2, 5, 6, 7, 8, 9, 11},
                      {1, 2, 5, 8, 9, 10, 11},
                      {0, 2, 5, 8, 9, 10},
                      {0, 2, 6, 9, 10, 11}}});

  GeneratorParams case2;  // Paper Case 2 shape (perfbench mem_d20).
  case2.num_points = 100000;
  case2.space_dims = 20;
  case2.num_clusters = 5;
  case2.cluster_dim_counts = {7, 3, 2, 6, 2};
  case2.outlier_fraction = 0.05;
  case2.seed = 1;
  answers.push_back({"case2_100000x20",
                     case2,
                     0x3e77830abcf20705ULL,
                     0x41dbf3d25dab0630ULL,
                     {{7, 8, 10, 12, 13, 14, 16},
                      {3, 10, 14},
                      {1, 10},
                      {1, 4, 6, 10, 16, 19},
                      {7, 10}}});

  GeneratorParams wide = case2;  // perfbench mem_d200 shape.
  wide.num_points = 20000;
  wide.space_dims = 200;
  wide.cluster_dim_counts = {10, 10, 10, 10, 10};
  answers.push_back({"wide_20000x200",
                     wide,
                     0xf6be54f04acbbf78ULL,
                     0xdfcb3eb3c8d18f58ULL,
                     {{2, 33, 36, 44, 80, 102, 125, 153, 166, 178},
                      {2, 6, 17, 30, 33, 36, 40, 44, 125, 139},
                      {2, 6, 13, 14, 17, 30, 33, 42, 70, 150},
                      {6, 13, 14, 17, 30, 64, 67, 88, 111, 150},
                      {0, 6, 30, 64, 67, 86, 95, 111, 154, 184}}});

  GeneratorParams rotated = SmallParams();
  rotated.rotation_max_degrees = 30.0;
  answers.push_back({"rotated_30deg",
                     rotated,
                     0xfc4fad498c384515ULL,
                     0xc7b490699bc534c5ULL,
                     {{1, 2, 5, 6, 7, 8, 9, 11},
                      {1, 2, 5, 8, 9, 10, 11},
                      {0, 2, 5, 8, 9, 10},
                      {0, 2, 6, 9, 10, 11}}});

  // The shuffle's edge counts: one row (no draw) and two rows (one draw).
  GeneratorParams single = SmallParams();
  single.num_clusters = 1;
  single.outlier_fraction = 0.0;
  single.num_points = 1;
  answers.push_back({"k1_n1",
                     single,
                     0x21be2db00a876ca0ULL,
                     0x3aefa6fd5cf2deb4ULL,
                     {{0, 3, 4, 7, 8, 10}}});
  single.num_points = 2;
  answers.push_back({"k1_n2",
                     single,
                     0x2eed03724bafbf69ULL,
                     0x34c96acdcadb1bbbULL,
                     {{0, 3, 4, 7, 8, 10}}});
  return answers;
}

TEST(GeneratorTest, KnownAnswerHashes) {
  for (const GeneratorKnownAnswer& want : GeneratorKnownAnswers()) {
    SCOPED_TRACE(want.name);
    auto result = GenerateSynthetic(want.params);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const std::vector<double>& values = result->dataset.matrix().data();
    const std::vector<int>& labels = result->truth.labels;
    EXPECT_EQ(Xxh64::Hash(values.data(), values.size() * sizeof(double)),
              want.matrix_xxh64);
    EXPECT_EQ(Xxh64::Hash(labels.data(), labels.size() * sizeof(int)),
              want.labels_xxh64);
    std::vector<std::vector<uint32_t>> dims;
    for (const DimensionSet& set : result->truth.cluster_dims)
      dims.push_back(set.ToVector());
    EXPECT_EQ(dims, want.cluster_dims);
  }
}

TEST(GeneratorTest, ShapeAndLabelRanges) {
  GeneratorParams params = SmallParams();
  auto result = GenerateSynthetic(params);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& [dataset, truth] = *result;
  EXPECT_EQ(dataset.size(), params.num_points);
  EXPECT_EQ(dataset.dims(), params.space_dims);
  EXPECT_EQ(truth.labels.size(), params.num_points);
  EXPECT_EQ(truth.cluster_dims.size(), params.num_clusters);
  EXPECT_EQ(truth.anchors.size(), params.num_clusters);
  for (int label : truth.labels) {
    EXPECT_TRUE(label == kOutlierLabel ||
                (label >= 0 &&
                 label < static_cast<int>(params.num_clusters)));
  }
}

TEST(GeneratorTest, OutlierFractionMatches) {
  GeneratorParams params = SmallParams();
  params.outlier_fraction = 0.05;
  auto result = GenerateSynthetic(params);
  ASSERT_TRUE(result.ok());
  size_t outliers = 0;
  for (int label : result->truth.labels)
    if (label == kOutlierLabel) ++outliers;
  EXPECT_EQ(outliers, static_cast<size_t>(
                          std::floor(5000 * 0.05)));
}

TEST(GeneratorTest, EveryClusterNonEmpty) {
  GeneratorParams params = SmallParams();
  auto result = GenerateSynthetic(params);
  ASSERT_TRUE(result.ok());
  std::vector<size_t> sizes = result->truth.ClusterSizes();
  for (size_t i = 0; i < params.num_clusters; ++i) EXPECT_GT(sizes[i], 0u);
}

TEST(GeneratorTest, ClusterDimCountsWithinBounds) {
  GeneratorParams params = SmallParams();
  auto result = GenerateSynthetic(params);
  ASSERT_TRUE(result.ok());
  for (const auto& dims : result->truth.cluster_dims) {
    EXPECT_GE(dims.size(), 2u);
    EXPECT_LE(dims.size(), params.space_dims);
  }
}

TEST(GeneratorTest, ExplicitDimCountsHonored) {
  GeneratorParams params = SmallParams();
  params.cluster_dim_counts = {2, 3, 6, 7};
  auto result = GenerateSynthetic(params);
  ASSERT_TRUE(result.ok());
  for (size_t i = 0; i < 4; ++i)
    EXPECT_EQ(result->truth.cluster_dims[i].size(),
              params.cluster_dim_counts[i]);
}

TEST(GeneratorTest, DeterministicForSameSeed) {
  GeneratorParams params = SmallParams();
  auto a = GenerateSynthetic(params);
  auto b = GenerateSynthetic(params);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->dataset.matrix(), b->dataset.matrix());
  EXPECT_EQ(a->truth.labels, b->truth.labels);
}

TEST(GeneratorTest, DifferentSeedsDiffer) {
  GeneratorParams params = SmallParams();
  auto a = GenerateSynthetic(params);
  params.seed = 8;
  auto b = GenerateSynthetic(params);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_FALSE(a->dataset.matrix() == b->dataset.matrix());
}

TEST(GeneratorTest, ClusterPointsConcentratedOnClusterDims) {
  // On cluster dimensions, the per-cluster spread must be far below the
  // uniform spread (range/sqrt(12) ~ 28.9 for range 100); on non-cluster
  // dimensions it must be comparable to uniform.
  GeneratorParams params = SmallParams();
  params.num_points = 20000;
  auto result = GenerateSynthetic(params);
  ASSERT_TRUE(result.ok());
  const auto& [dataset, truth] = *result;
  for (size_t c = 0; c < params.num_clusters; ++c) {
    std::vector<size_t> members;
    for (size_t p = 0; p < dataset.size(); ++p)
      if (truth.labels[p] == static_cast<int>(c)) members.push_back(p);
    ASSERT_GT(members.size(), 50u);
    std::vector<double> centroid = dataset.Centroid(members);
    for (size_t j = 0; j < params.space_dims; ++j) {
      double var = 0.0;
      for (size_t p : members) {
        double diff = dataset.at(p, j) - centroid[j];
        var += diff * diff;
      }
      var /= static_cast<double>(members.size());
      double sd = std::sqrt(var);
      if (truth.cluster_dims[c].Contains(static_cast<uint32_t>(j))) {
        // Max possible sigma is max_scale * spread = 4.
        EXPECT_LT(sd, 6.0) << "cluster " << c << " dim " << j;
      } else {
        EXPECT_GT(sd, 15.0) << "cluster " << c << " dim " << j;
      }
    }
  }
}

TEST(GeneratorTest, ClusterDimCoordinatesNearAnchor) {
  GeneratorParams params = SmallParams();
  params.num_points = 10000;
  auto result = GenerateSynthetic(params);
  ASSERT_TRUE(result.ok());
  const auto& [dataset, truth] = *result;
  for (size_t c = 0; c < params.num_clusters; ++c) {
    std::vector<size_t> members;
    for (size_t p = 0; p < dataset.size(); ++p)
      if (truth.labels[p] == static_cast<int>(c)) members.push_back(p);
    std::vector<double> centroid = dataset.Centroid(members);
    for (uint32_t j : truth.cluster_dims[c].ToVector()) {
      EXPECT_NEAR(centroid[j], truth.anchors[c][j], 2.0);
    }
  }
}

TEST(GeneratorTest, ConsecutiveClustersShareDimensions) {
  // The inductive selection inherits min(|prev|, |cur|/2) dimensions, so
  // consecutive clusters must share at least floor(|cur|/2) dims when the
  // previous cluster has at least that many.
  GeneratorParams params = SmallParams();
  params.cluster_dim_counts = {6, 6, 6, 6};
  auto result = GenerateSynthetic(params);
  ASSERT_TRUE(result.ok());
  for (size_t c = 1; c < 4; ++c) {
    size_t shared = result->truth.cluster_dims[c].IntersectionSize(
        result->truth.cluster_dims[c - 1]);
    EXPECT_GE(shared, 3u) << "clusters " << c - 1 << " and " << c;
  }
}

TEST(GeneratorTest, RotationValidation) {
  GeneratorParams params = SmallParams();
  params.rotation_max_degrees = -1.0;
  EXPECT_FALSE(GenerateSynthetic(params).ok());
  params.rotation_max_degrees = 91.0;
  EXPECT_FALSE(GenerateSynthetic(params).ok());
  params.rotation_max_degrees = 90.0;
  EXPECT_TRUE(GenerateSynthetic(params).ok());
}

TEST(GeneratorTest, ZeroRotationMatchesBaseline) {
  GeneratorParams params = SmallParams();
  auto baseline = GenerateSynthetic(params);
  params.rotation_max_degrees = 0.0;  // Explicit zero, same stream.
  auto zero = GenerateSynthetic(params);
  ASSERT_TRUE(baseline.ok() && zero.ok());
  EXPECT_EQ(baseline->dataset.matrix(), zero->dataset.matrix());
}

TEST(GeneratorTest, RotationTiltsClusters) {
  // With rotation, tilted cluster dimensions pick up variance from the
  // noise dimensions they are rotated toward, so the tightest marginal
  // spread grows versus the axis-parallel baseline.
  GeneratorParams params = SmallParams();
  params.num_points = 10000;
  params.cluster_dim_counts = {4, 4, 4, 4};
  auto measure_max_spread = [&](double degrees) {
    params.rotation_max_degrees = degrees;
    auto data = GenerateSynthetic(params);
    EXPECT_TRUE(data.ok());
    double total = 0.0;
    for (size_t c = 0; c < 4; ++c) {
      std::vector<size_t> members;
      for (size_t p = 0; p < data->dataset.size(); ++p)
        if (data->truth.labels[p] == static_cast<int>(c))
          members.push_back(p);
      std::vector<double> centroid = data->dataset.Centroid(members);
      double worst = 0.0;
      for (uint32_t j : data->truth.cluster_dims[c].ToVector()) {
        double dev = 0.0;
        for (size_t p : members)
          dev += std::fabs(data->dataset.at(p, j) - centroid[j]);
        worst = std::max(worst, dev / static_cast<double>(members.size()));
      }
      total += worst;
    }
    return total / 4.0;
  };
  double flat = measure_max_spread(0.0);
  double tilted = measure_max_spread(45.0);
  EXPECT_GT(tilted, flat * 2.0);
}

TEST(GeneratorTest, PoissonDimCountsVary) {
  GeneratorParams params = SmallParams();
  params.num_clusters = 12;
  params.space_dims = 20;
  params.poisson_mean = 6.0;
  auto result = GenerateSynthetic(params);
  ASSERT_TRUE(result.ok());
  std::set<size_t> distinct;
  for (const auto& dims : result->truth.cluster_dims)
    distinct.insert(dims.size());
  EXPECT_GT(distinct.size(), 1u);
}

}  // namespace
}  // namespace proclus
