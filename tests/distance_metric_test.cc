#include "distance/metric.h"

#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace proclus {
namespace {

TEST(MetricTest, ManhattanKnownValues) {
  std::vector<double> a{0, 0, 0}, b{1, -2, 3};
  EXPECT_DOUBLE_EQ(ManhattanDistance(a, b), 6.0);
  EXPECT_DOUBLE_EQ(ManhattanDistance(a, a), 0.0);
}

TEST(MetricTest, EuclideanKnownValues) {
  std::vector<double> a{0, 0}, b{3, 4};
  EXPECT_DOUBLE_EQ(EuclideanDistance(a, b), 5.0);
  EXPECT_DOUBLE_EQ(SquaredEuclideanDistance(a, b), 25.0);
}

TEST(MetricTest, ChebyshevKnownValues) {
  std::vector<double> a{0, 0, 0}, b{1, -5, 3};
  EXPECT_DOUBLE_EQ(ChebyshevDistance(a, b), 5.0);
}

TEST(MetricTest, DistanceDispatch) {
  std::vector<double> a{0, 0}, b{3, 4};
  EXPECT_DOUBLE_EQ(Distance(MetricKind::kManhattan, a, b), 7.0);
  EXPECT_DOUBLE_EQ(Distance(MetricKind::kEuclidean, a, b), 5.0);
  EXPECT_DOUBLE_EQ(Distance(MetricKind::kChebyshev, a, b), 4.0);
}

// Metric axioms checked on random point triples for each metric.
class MetricAxiomsTest : public ::testing::TestWithParam<MetricKind> {};

TEST_P(MetricAxiomsTest, SymmetryNonNegativityTriangle) {
  MetricKind kind = GetParam();
  Rng rng(101);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> x(8), y(8), z(8);
    for (size_t j = 0; j < 8; ++j) {
      x[j] = rng.Uniform(-50, 50);
      y[j] = rng.Uniform(-50, 50);
      z[j] = rng.Uniform(-50, 50);
    }
    double dxy = Distance(kind, x, y);
    double dyx = Distance(kind, y, x);
    double dxz = Distance(kind, x, z);
    double dzy = Distance(kind, z, y);
    EXPECT_DOUBLE_EQ(dxy, dyx);
    EXPECT_GE(dxy, 0.0);
    EXPECT_DOUBLE_EQ(Distance(kind, x, x), 0.0);
    EXPECT_LE(dxy, dxz + dzy + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(AllMetrics, MetricAxiomsTest,
                         ::testing::Values(MetricKind::kManhattan,
                                           MetricKind::kEuclidean,
                                           MetricKind::kChebyshev));

}  // namespace
}  // namespace proclus
