#include "clique/grid.h"

#include <gtest/gtest.h>

namespace proclus {
namespace {

Result<Grid> BuildGrid(const Dataset& ds, size_t xi) {
  return Grid::BuildFromSource(MemorySource(ds), xi);
}

TEST(GridTest, ValidationErrors) {
  Dataset ds(Matrix(3, 2, {0, 0, 1, 1, 2, 2}));
  EXPECT_FALSE(BuildGrid(ds, 1).ok());
  EXPECT_FALSE(BuildGrid(ds, 256).ok());
  EXPECT_FALSE(BuildGrid(Dataset(), 10).ok());
  EXPECT_TRUE(BuildGrid(ds, 2).ok());
  EXPECT_TRUE(BuildGrid(ds, 255).ok());
}

TEST(GridTest, IntervalAssignment) {
  // Dim 0 spans [0, 10] with 10 intervals of width 1.
  Dataset ds(Matrix(2, 1, {0, 10}));
  auto grid = BuildGrid(ds, 10);
  ASSERT_TRUE(grid.ok());
  EXPECT_EQ(grid->Interval(0, 0.0), 0);
  EXPECT_EQ(grid->Interval(0, 0.999), 0);
  EXPECT_EQ(grid->Interval(0, 1.0), 1);
  EXPECT_EQ(grid->Interval(0, 5.5), 5);
  EXPECT_EQ(grid->Interval(0, 9.999), 9);
  // Max value clamps into the last interval.
  EXPECT_EQ(grid->Interval(0, 10.0), 9);
}

TEST(GridTest, OutOfRangeValuesClamp) {
  Dataset ds(Matrix(2, 1, {0, 10}));
  auto grid = BuildGrid(ds, 10);
  ASSERT_TRUE(grid.ok());
  EXPECT_EQ(grid->Interval(0, -5.0), 0);
  EXPECT_EQ(grid->Interval(0, 50.0), 9);
}

TEST(GridTest, ConstantDimensionAllInIntervalZero) {
  Dataset ds(Matrix(3, 1, {7, 7, 7}));
  auto grid = BuildGrid(ds, 10);
  ASSERT_TRUE(grid.ok());
  EXPECT_EQ(grid->Interval(0, 7.0), 0);
}

TEST(GridTest, IntervalBoundsRoundTrip) {
  Dataset ds(Matrix(2, 1, {-10, 30}));
  auto grid = BuildGrid(ds, 8);
  ASSERT_TRUE(grid.ok());
  for (uint8_t idx = 0; idx < 8; ++idx) {
    double lo, hi;
    grid->IntervalBounds(0, idx, &lo, &hi);
    EXPECT_NEAR(hi - lo, 5.0, 1e-9);
    // Midpoint maps back to the interval.
    EXPECT_EQ(grid->Interval(0, (lo + hi) / 2), idx);
  }
}

TEST(GridTest, QuantizeSourceMatchesPerPointInterval) {
  Dataset ds(Matrix(4, 2, {0, 0, 3, 9, 7, 5, 10, 10}));
  auto grid = BuildGrid(ds, 5);
  ASSERT_TRUE(grid.ok());
  auto quantized = grid->QuantizeSource(MemorySource(ds));
  ASSERT_TRUE(quantized.ok());
  const std::vector<uint8_t>& cells = *quantized;
  ASSERT_EQ(cells.size(), 8u);
  for (size_t i = 0; i < 4; ++i)
    for (size_t j = 0; j < 2; ++j)
      EXPECT_EQ(cells[i * 2 + j], grid->Interval(j, ds.at(i, j)));
}

}  // namespace
}  // namespace proclus
