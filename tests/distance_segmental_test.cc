#include "distance/segmental.h"

#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "distance/metric.h"

namespace proclus {
namespace {

TEST(SegmentalTest, KnownValue) {
  std::vector<double> a{0, 0, 0, 0}, b{4, 2, 8, 100};
  std::vector<uint32_t> dims{0, 1, 2};
  // (4 + 2 + 8) / 3 = 14/3; dimension 3 excluded.
  EXPECT_DOUBLE_EQ(ManhattanSegmentalDistance(a, b, dims), 14.0 / 3.0);
}

TEST(SegmentalTest, SingleDimensionReducesToAbsDiff) {
  std::vector<double> a{1, 5}, b{4, -3};
  std::vector<uint32_t> dims{1};
  EXPECT_DOUBLE_EQ(ManhattanSegmentalDistance(a, b, dims), 8.0);
}

TEST(SegmentalTest, FullDimensionSetEqualsScaledManhattan) {
  Rng rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<double> a(6), b(6);
    for (size_t j = 0; j < 6; ++j) {
      a[j] = rng.Uniform(-100, 100);
      b[j] = rng.Uniform(-100, 100);
    }
    std::vector<uint32_t> all{0, 1, 2, 3, 4, 5};
    EXPECT_NEAR(ManhattanSegmentalDistance(a, b, all),
                ManhattanDistance(a, b) / 6.0, 1e-9);
  }
}

TEST(SegmentalTest, DimensionSetOverloadMatchesSpan) {
  std::vector<double> a{1, 2, 3, 4}, b{0, 0, 0, 0};
  DimensionSet set(4, {0, 2});
  std::vector<uint32_t> list{0, 2};
  EXPECT_DOUBLE_EQ(ManhattanSegmentalDistance(a, b, set),
                   ManhattanSegmentalDistance(a, b, list));
}

TEST(SegmentalTest, NormalizationMakesDistancesComparable) {
  // Same per-dimension deviation on subsets of different size yields the
  // same segmental distance — the reason the paper normalizes.
  std::vector<double> a{0, 0, 0, 0, 0}, b{2, 2, 2, 2, 2};
  std::vector<uint32_t> two{0, 1}, five{0, 1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(ManhattanSegmentalDistance(a, b, two),
                   ManhattanSegmentalDistance(a, b, five));
  // The unnormalized variant scales with the subset size instead.
  EXPECT_DOUBLE_EQ(RestrictedManhattanDistance(a, b, two), 4.0);
  EXPECT_DOUBLE_EQ(RestrictedManhattanDistance(a, b, five), 10.0);
}

TEST(SegmentalTest, SymmetryProperty) {
  Rng rng(13);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<double> a(8), b(8);
    for (size_t j = 0; j < 8; ++j) {
      a[j] = rng.Uniform(-10, 10);
      b[j] = rng.Uniform(-10, 10);
    }
    std::vector<uint32_t> dims{1, 3, 6};
    EXPECT_DOUBLE_EQ(ManhattanSegmentalDistance(a, b, dims),
                     ManhattanSegmentalDistance(b, a, dims));
  }
}

TEST(SegmentalTest, TriangleInequalityOnFixedDims) {
  Rng rng(17);
  std::vector<uint32_t> dims{0, 2, 4};
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> x(5), y(5), z(5);
    for (size_t j = 0; j < 5; ++j) {
      x[j] = rng.Uniform(-10, 10);
      y[j] = rng.Uniform(-10, 10);
      z[j] = rng.Uniform(-10, 10);
    }
    EXPECT_LE(ManhattanSegmentalDistance(x, y, dims),
              ManhattanSegmentalDistance(x, z, dims) +
                  ManhattanSegmentalDistance(z, y, dims) + 1e-9);
  }
}

}  // namespace
}  // namespace proclus
