#include "clique/describe.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace proclus {
namespace {

UnitRegion MakeRegion(std::initializer_list<std::pair<int, int>> ranges) {
  UnitRegion region;
  for (auto [lo, hi] : ranges)
    region.ranges.push_back({static_cast<uint8_t>(lo),
                             static_cast<uint8_t>(hi)});
  return region;
}

TEST(MergeRegionsTest, MergesAdjacentAlongOneDimension) {
  std::vector<UnitRegion> regions{MakeRegion({{0, 2}, {5, 5}}),
                                  MakeRegion({{3, 4}, {5, 5}})};
  auto merged = MergeAdjacentRegions(regions);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].ranges[0], (std::pair<uint8_t, uint8_t>{0, 4}));
  EXPECT_EQ(merged[0].ranges[1], (std::pair<uint8_t, uint8_t>{5, 5}));
}

TEST(MergeRegionsTest, DoesNotMergeDiagonalOrGapped) {
  // Gap on the differing dimension.
  std::vector<UnitRegion> gapped{MakeRegion({{0, 1}, {5, 5}}),
                                 MakeRegion({{3, 4}, {5, 5}})};
  EXPECT_EQ(MergeAdjacentRegions(gapped).size(), 2u);
  // Differ on two dimensions.
  std::vector<UnitRegion> diagonal{MakeRegion({{0, 1}, {5, 5}}),
                                   MakeRegion({{2, 3}, {6, 6}})};
  EXPECT_EQ(MergeAdjacentRegions(diagonal).size(), 2u);
}

TEST(MergeRegionsTest, CascadingMerges) {
  // Three strips that merge into one after two passes.
  std::vector<UnitRegion> regions{MakeRegion({{0, 0}, {0, 9}}),
                                  MakeRegion({{1, 1}, {0, 9}}),
                                  MakeRegion({{2, 2}, {0, 9}})};
  auto merged = MergeAdjacentRegions(regions);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].ranges[0], (std::pair<uint8_t, uint8_t>{0, 2}));
}

TEST(MergeRegionsTest, OverlappingRegionsMerge) {
  std::vector<UnitRegion> regions{MakeRegion({{0, 5}}),
                                  MakeRegion({{3, 8}})};
  auto merged = MergeAdjacentRegions(regions);
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].ranges[0], (std::pair<uint8_t, uint8_t>{0, 8}));
}

TEST(DescribeTest, NumericBoundsFromGrid) {
  // Grid over [0, 100] x [0, 100] with 10 intervals each.
  Matrix m(2, 2, {0, 0, 100, 100});
  Dataset ds(std::move(m));
  auto grid = Grid::BuildFromSource(MemorySource(ds), 10);
  ASSERT_TRUE(grid.ok());

  CliqueCluster cluster;
  cluster.subspace = {0, 1};
  cluster.regions = {MakeRegion({{2, 3}, {5, 5}})};
  auto description = DescribeCluster(cluster, *grid);
  ASSERT_EQ(description.size(), 1u);
  ASSERT_EQ(description[0].size(), 2u);
  EXPECT_EQ(description[0][0].dim, 0u);
  EXPECT_NEAR(description[0][0].lo, 20.0, 1e-9);
  EXPECT_NEAR(description[0][0].hi, 40.0, 1e-9);
  EXPECT_NEAR(description[0][1].lo, 50.0, 1e-9);
  EXPECT_NEAR(description[0][1].hi, 60.0, 1e-9);
}

TEST(DescribeTest, MergeFoldsRegions) {
  Matrix m(2, 1, {0, 100});
  Dataset ds(std::move(m));
  auto grid = Grid::BuildFromSource(MemorySource(ds), 10);
  ASSERT_TRUE(grid.ok());
  CliqueCluster cluster;
  cluster.subspace = {0};
  cluster.regions = {MakeRegion({{0, 2}}), MakeRegion({{3, 5}})};
  EXPECT_EQ(DescribeCluster(cluster, *grid, /*merge=*/true).size(), 1u);
  EXPECT_EQ(DescribeCluster(cluster, *grid, /*merge=*/false).size(), 2u);
}

TEST(RenderDnfTest, FormatsExpression) {
  std::vector<RegionPredicate> description{
      {{0, 30.0, 50.0}, {1, 4.0, 8.0}},
      {{0, 50.0, 60.0}, {1, 4.0, 6.0}},
  };
  std::string dnf = RenderDnf(description, {"age", "salary"});
  EXPECT_EQ(dnf,
            "((30 <= age < 50) ^ (4 <= salary < 8)) v "
            "((50 <= age < 60) ^ (4 <= salary < 6))");
}

TEST(RenderDnfTest, FallbackDimensionNames) {
  std::vector<RegionPredicate> description{{{2, 0.0, 1.0}}};
  EXPECT_EQ(RenderDnf(description), "((0 <= d3 < 1))");
}

TEST(RenderDnfTest, EmptyDescription) {
  EXPECT_EQ(RenderDnf({}), "");
}

}  // namespace
}  // namespace proclus
