#include "core/find_dimensions.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace proclus {
namespace {

TEST(ZScoreTest, StandardizesRows) {
  Matrix X(1, 4, {1, 2, 3, 4});
  Matrix Z = ComputeZScores(X);
  // Mean 2.5, sample stddev sqrt(5/3).
  double sigma = std::sqrt(5.0 / 3.0);
  EXPECT_NEAR(Z(0, 0), -1.5 / sigma, 1e-9);
  EXPECT_NEAR(Z(0, 3), 1.5 / sigma, 1e-9);
  // Z-scores of each row sum to ~0.
  double sum = 0.0;
  for (size_t j = 0; j < 4; ++j) sum += Z(0, j);
  EXPECT_NEAR(sum, 0.0, 1e-9);
}

TEST(ZScoreTest, ConstantRowYieldsZeros) {
  Matrix X(1, 5, {3, 3, 3, 3, 3});
  Matrix Z = ComputeZScores(X);
  for (size_t j = 0; j < 5; ++j) EXPECT_EQ(Z(0, j), 0.0);
}

TEST(ZScoreTest, RowsIndependent) {
  Matrix X(2, 3, {0, 0, 3, 100, 100, 103});
  Matrix Z = ComputeZScores(X);
  for (size_t j = 0; j < 3; ++j) EXPECT_NEAR(Z(0, j), Z(1, j), 1e-9);
}

TEST(AllocateTest, RespectsMinimumPerRow) {
  // Row 0 has very negative values everywhere; row 1 has all positive.
  // Even so, row 1 must receive 2 dimensions.
  Matrix Z(2, 4, {-5, -4, -3, -2, 1, 2, 3, 4});
  auto result = AllocateDimensions(Z, 6, 2);
  ASSERT_TRUE(result.ok());
  EXPECT_GE((*result)[1].size(), 2u);
  size_t total = (*result)[0].size() + (*result)[1].size();
  EXPECT_EQ(total, 6u);
  // Row 1's picks must be its two smallest values (columns 0, 1).
  EXPECT_TRUE((*result)[1].Contains(0));
  EXPECT_TRUE((*result)[1].Contains(1));
}

TEST(AllocateTest, PicksGloballySmallestAfterPreallocation) {
  Matrix Z(2, 3, {-10, -9, 5, -1, 0, 7});
  auto result = AllocateDimensions(Z, 5, 2);
  ASSERT_TRUE(result.ok());
  // Preallocation: row0 {0,1}, row1 {0,1}. Fifth pick: min(5, 7) -> row0
  // col2.
  EXPECT_EQ((*result)[0].size(), 3u);
  EXPECT_EQ((*result)[1].size(), 2u);
}

TEST(AllocateTest, ValidationErrors) {
  Matrix Z(2, 3);
  EXPECT_FALSE(AllocateDimensions(Z, 3, 2).ok());   // Below 2*k.
  EXPECT_FALSE(AllocateDimensions(Z, 7, 2).ok());   // Above k*d.
  EXPECT_FALSE(AllocateDimensions(Matrix(0, 0), 0, 2).ok());
  EXPECT_TRUE(AllocateDimensions(Z, 6, 2).ok());    // == k*d boundary.
  EXPECT_TRUE(AllocateDimensions(Z, 4, 2).ok());    // == 2k boundary.
}

// Brute-force optimality check: the greedy allocation minimizes the total
// Z over all selections with >= min_per_row per row. This is the separable
// convex resource allocation property the paper cites (Ibaraki & Katoh).
class AllocationOptimalityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AllocationOptimalityTest, GreedyMatchesBruteForce) {
  Rng rng(GetParam());
  const size_t k = 2, d = 4;
  const size_t total = 5;
  Matrix Z(k, d);
  for (size_t i = 0; i < k; ++i)
    for (size_t j = 0; j < d; ++j) Z(i, j) = rng.Uniform(-3, 3);

  auto result = AllocateDimensions(Z, total, 2);
  ASSERT_TRUE(result.ok());
  double greedy_sum = 0.0;
  for (size_t i = 0; i < k; ++i)
    for (uint32_t j : (*result)[i].ToVector()) greedy_sum += Z(i, j);

  // Brute force over all 2^(k*d) selections.
  double best = std::numeric_limits<double>::infinity();
  for (uint32_t mask = 0; mask < (1u << (k * d)); ++mask) {
    if (static_cast<size_t>(__builtin_popcount(mask)) != total) continue;
    bool valid = true;
    double sum = 0.0;
    for (size_t i = 0; i < k && valid; ++i) {
      int row_count = 0;
      for (size_t j = 0; j < d; ++j) {
        if (mask & (1u << (i * d + j))) {
          ++row_count;
          sum += Z(i, j);
        }
      }
      if (row_count < 2) valid = false;
    }
    if (valid && sum < best) best = sum;
  }
  EXPECT_NEAR(greedy_sum, best, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocationOptimalityTest,
                         ::testing::Range<uint64_t>(0, 25));

TEST(FindDimensionsTest, EndToEndSelectsCorrelatedDims) {
  // Medoid 0: small average distances on dims 1, 3; medoid 1: on dims 0,2.
  Matrix X(2, 5,
           {20, 1, 20, 2, 20,   //
            0.5, 30, 1, 30, 30});
  auto result = FindDimensions(X, 2.0);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE((*result)[0].Contains(1));
  EXPECT_TRUE((*result)[0].Contains(3));
  EXPECT_TRUE((*result)[1].Contains(0));
  EXPECT_TRUE((*result)[1].Contains(2));
  EXPECT_EQ((*result)[0].size() + (*result)[1].size(), 4u);
}

TEST(FindDimensionsTest, FractionalAverageDimsRounds) {
  Matrix X(2, 4, {1, 2, 3, 4, 4, 3, 2, 1});
  auto result = FindDimensions(X, 2.5);  // Total = round(5) = 5.
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)[0].size() + (*result)[1].size(), 5u);
}

TEST(FindDimensionsTest, TotalEqualsKTimesL) {
  Rng rng(71);
  const size_t k = 5, d = 20;
  Matrix X(k, d);
  for (size_t i = 0; i < k; ++i)
    for (size_t j = 0; j < d; ++j) X(i, j) = rng.Uniform(0, 30);
  for (double l : {2.0, 3.0, 7.0, 20.0}) {
    auto result = FindDimensions(X, l);
    ASSERT_TRUE(result.ok()) << "l=" << l;
    size_t total = 0;
    for (const auto& set : *result) {
      EXPECT_GE(set.size(), 2u);
      total += set.size();
    }
    EXPECT_EQ(total, static_cast<size_t>(std::llround(l * k)));
  }
}

TEST(FindDimensionsTest, NonFiniteOrOutOfRangeAvgDimsIsRejectedByName) {
  // k * l must lie in [0, k * d]; the check comes before any rounding.
  Matrix X(2, 4, {1, 2, 3, 4, 4, 3, 2, 1});
  for (double l : {std::numeric_limits<double>::quiet_NaN(),
                   std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity(), -1.0,
                   1e300}) {
    auto result = FindDimensions(X, l);
    ASSERT_FALSE(result.ok()) << "l=" << l;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find("avg_dims"), std::string::npos)
        << result.status().ToString();
  }
}

}  // namespace
}  // namespace proclus
