#include "clique/dense_units.h"

#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "clique/grid.h"
#include "common/rng.h"
#include "data/dataset.h"

namespace proclus {
namespace {

// Builds a quantized cell matrix directly (intervals, not coordinates).
std::vector<uint8_t> Cells(std::initializer_list<std::initializer_list<int>>
                               rows) {
  std::vector<uint8_t> out;
  for (const auto& row : rows)
    for (int v : row) out.push_back(static_cast<uint8_t>(v));
  return out;
}

TEST(MinerValidationTest, RejectsBadParams) {
  std::vector<uint8_t> cells{0, 0};
  MinerParams params;
  params.xi = 1;
  EXPECT_FALSE(MineDenseUnits(cells, 1, 2, params).ok());
  params = MinerParams{};
  params.tau_percent = 0.0;
  EXPECT_FALSE(MineDenseUnits(cells, 1, 2, params).ok());
  params = MinerParams{};
  params.tau_percent = 150.0;
  EXPECT_FALSE(MineDenseUnits(cells, 1, 2, params).ok());
  params = MinerParams{};
  EXPECT_FALSE(MineDenseUnits(cells, 0, 2, params).ok());
  EXPECT_FALSE(MineDenseUnits(cells, 3, 2, params).ok());  // Shape mismatch.
}

TEST(MinerValidationTest, NonFiniteTauIsRejectedByName) {
  std::vector<uint8_t> cells{0, 0};
  for (double tau : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    MinerParams params;
    params.tau_percent = tau;
    auto mined = MineDenseUnits(cells, 1, 2, params);
    ASSERT_FALSE(mined.ok());
    EXPECT_EQ(mined.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(mined.status().message().find("tau_percent"), std::string::npos)
        << mined.status().ToString();
  }
}

TEST(MinerTest, LevelOneHistogram) {
  // 10 points, 1 dim, xi=4: intervals 0 x4, 1 x1, 3 x5. tau = 20% -> 2.
  std::vector<uint8_t> cells{0, 0, 0, 0, 1, 3, 3, 3, 3, 3};
  MinerParams params;
  params.xi = 4;
  params.tau_percent = 20.0;
  auto result = MineDenseUnits(cells, 10, 1, params);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->threshold, 2u);
  const DenseLevel& level1 = result->levels[0];
  ASSERT_EQ(level1.size(), 1u);
  const DenseCellMap& dim0 = level1.at(Subspace{0});
  EXPECT_EQ(dim0.size(), 2u);
  EXPECT_EQ(dim0.at(0), 4u);
  EXPECT_EQ(dim0.at(3), 5u);
  EXPECT_EQ(dim0.count(1), 0u);
}

TEST(MinerTest, TwoDimensionalDenseUnit) {
  // 8 points concentrated in cell (2, 3) of a 2-d grid plus scatter.
  std::vector<uint8_t> cells = Cells({{2, 3},
                                      {2, 3},
                                      {2, 3},
                                      {2, 3},
                                      {2, 3},
                                      {0, 0},
                                      {1, 5},
                                      {7, 2}});
  MinerParams params;
  params.xi = 10;
  params.tau_percent = 50.0;  // Threshold 4.
  auto result = MineDenseUnits(cells, 8, 2, params);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->levels.size(), 2u);
  const DenseLevel& level2 = result->levels[1];
  ASSERT_EQ(level2.size(), 1u);
  const DenseCellMap& sub01 = level2.at(Subspace{0, 1});
  ASSERT_EQ(sub01.size(), 1u);
  EXPECT_EQ(sub01.at(EncodeCell({2, 3}, 10)), 5u);
  EXPECT_EQ(result->MaxLevel(), 2u);
}

TEST(MinerTest, ThreeDimensionalBuildUp) {
  // Points dense in cell (1, 2, 3) of dims {0,1,2}; dim 3 scattered so no
  // 4-d unit forms.
  std::vector<uint8_t> rows;
  for (int i = 0; i < 6; ++i) {
    rows.insert(rows.end(),
                {1, 2, 3, static_cast<uint8_t>(i % 6)});
  }
  // Noise points.
  rows.insert(rows.end(), {0, 0, 0, 0});
  rows.insert(rows.end(), {5, 5, 5, 1});
  MinerParams params;
  params.xi = 6;
  params.tau_percent = 50.0;  // Threshold 4 of 8.
  auto result = MineDenseUnits(rows, 8, 4, params);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->MaxLevel(), 3u);
  const DenseLevel& level3 = result->levels[2];
  ASSERT_EQ(level3.size(), 1u);
  EXPECT_EQ(level3.begin()->first, (Subspace{0, 1, 2}));
  EXPECT_EQ(level3.begin()->second.at(EncodeCell({1, 2, 3}, 6)), 6u);
}

TEST(MinerTest, MonotonicityInvariant) {
  // Property: every projection of a dense unit onto a sub-subspace is
  // itself dense. Check on random data.
  Rng rng(97);
  const size_t n = 500, d = 5;
  std::vector<uint8_t> cells(n * d);
  for (auto& c : cells) c = static_cast<uint8_t>(rng.UniformInt(uint64_t{4}));
  // Plant a dense 3-d region.
  for (size_t i = 0; i < 60; ++i) {
    cells[i * d + 0] = 1;
    cells[i * d + 2] = 2;
    cells[i * d + 4] = 3;
  }
  MinerParams params;
  params.xi = 4;
  params.tau_percent = 5.0;
  auto result = MineDenseUnits(cells, n, d, params);
  ASSERT_TRUE(result.ok());
  for (size_t level = 2; level <= result->levels.size(); ++level) {
    for (const auto& [subspace, units] : result->levels[level - 1]) {
      for (const auto& [key, count] : units) {
        for (const Subspace& proj : SubspaceProjections(subspace)) {
          auto it = result->levels[level - 2].find(proj);
          ASSERT_NE(it, result->levels[level - 2].end())
              << "projection subspace missing";
          uint64_t proj_key = ProjectCell(key, subspace, proj, params.xi);
          ASSERT_TRUE(it->second.count(proj_key))
              << "projection cell not dense";
          // Projection has at least as many points.
          EXPECT_GE(it->second.at(proj_key), count);
        }
      }
    }
  }
}

TEST(MinerTest, PlantedSubspaceIsFound) {
  Rng rng(101);
  const size_t n = 1000, d = 6;
  std::vector<uint8_t> cells(n * d);
  for (auto& c : cells) c = static_cast<uint8_t>(rng.UniformInt(uint64_t{10}));
  // 200 points dense in dims {1, 3, 4} at intervals (7, 0, 5).
  for (size_t i = 0; i < 200; ++i) {
    cells[i * d + 1] = 7;
    cells[i * d + 3] = 0;
    cells[i * d + 4] = 5;
  }
  MinerParams params;
  params.xi = 10;
  params.tau_percent = 10.0;  // Threshold 100.
  auto result = MineDenseUnits(cells, n, d, params);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->MaxLevel(), 3u);
  const DenseLevel& level3 = result->levels[2];
  auto it = level3.find(Subspace{1, 3, 4});
  ASSERT_NE(it, level3.end());
  EXPECT_TRUE(it->second.count(EncodeCell({7, 0, 5}, 10)));
}

TEST(MinerTest, MaxLevelCapRespected) {
  std::vector<uint8_t> cells;
  for (int i = 0; i < 10; ++i) cells.insert(cells.end(), {1, 2, 3});
  MinerParams params;
  params.xi = 5;
  params.tau_percent = 50.0;
  params.max_level = 2;
  auto result = MineDenseUnits(cells, 10, 3, params);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->levels.size(), 2u);
}

TEST(MinerTest, CandidateCapSetsTruncatedFlag) {
  // Uniform-dense data: with a tiny cap the miner must truncate.
  Rng rng(103);
  const size_t n = 200, d = 4;
  std::vector<uint8_t> cells(n * d);
  for (auto& c : cells) c = static_cast<uint8_t>(rng.UniformInt(uint64_t{2}));
  MinerParams params;
  params.xi = 2;
  params.tau_percent = 1.0;  // Everything is dense.
  params.max_candidates_per_level = 3;
  auto result = MineDenseUnits(cells, n, d, params);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->truncated);
}

TEST(MdlCutTest, KeepsEverythingWhenUniform) {
  // All-equal coverages: one-group coding is cheapest; nothing is pruned.
  EXPECT_EQ(MdlCutPoint({100, 100, 100, 100}), 4u);
}

TEST(MdlCutTest, CutsAtLargeGap) {
  // A clear high band and a long low tail: the cut separates them.
  std::vector<size_t> coverages{9000, 8800, 9100, 120, 80, 95, 110, 100};
  std::sort(coverages.rbegin(), coverages.rend());
  size_t cut = MdlCutPoint(coverages);
  EXPECT_EQ(cut, 3u);
}

TEST(MdlCutTest, SingleAndEmptyInputs) {
  EXPECT_EQ(MdlCutPoint({}), 0u);
  EXPECT_EQ(MdlCutPoint({42}), 1u);
}

TEST(MdlCutTest, TwoBandsOfEqualSize) {
  std::vector<size_t> coverages{5000, 5000, 5000, 10, 10, 10};
  EXPECT_EQ(MdlCutPoint(coverages), 3u);
}

TEST(MinerTest, MdlPruningDropsLowCoverageSubspaces) {
  // Plant a strong dense 2-d structure in dims {0,1} and a weak one in
  // dims {2,3}; with MDL pruning the weak subspace disappears at level 2.
  Rng rng(211);
  const size_t n = 2000, d = 4;
  std::vector<uint8_t> cells(n * d);
  for (auto& c : cells) c = static_cast<uint8_t>(rng.UniformInt(uint64_t{10}));
  for (size_t i = 0; i < 1000; ++i) {  // Strong blob.
    cells[i * d + 0] = 3;
    cells[i * d + 1] = 4;
  }
  for (size_t i = 1000; i < 1060; ++i) {  // Weak blob (just over threshold).
    cells[i * d + 2] = 7;
    cells[i * d + 3] = 8;
  }
  MinerParams params;
  params.xi = 10;
  params.tau_percent = 2.5;  // Threshold 50.
  params.mdl_prune = false;
  auto exhaustive = MineDenseUnits(cells, n, d, params);
  ASSERT_TRUE(exhaustive.ok());
  ASSERT_GE(exhaustive->levels.size(), 2u);
  EXPECT_TRUE(exhaustive->levels[1].count(Subspace{2, 3}));

  params.mdl_prune = true;
  auto pruned = MineDenseUnits(cells, n, d, params);
  ASSERT_TRUE(pruned.ok());
  ASSERT_GE(pruned->levels.size(), 2u);
  EXPECT_TRUE(pruned->levels[1].count(Subspace{0, 1}));
  EXPECT_FALSE(pruned->levels[1].count(Subspace{2, 3}));
}

TEST(MinerTest, MdlPruningNeverDropsNearMaxCoverage) {
  // Two planted subspaces of comparable strength: the significance band
  // protects both from the MDL cut.
  Rng rng(223);
  const size_t n = 2000, d = 4;
  std::vector<uint8_t> cells(n * d);
  for (auto& c : cells) c = static_cast<uint8_t>(rng.UniformInt(uint64_t{10}));
  for (size_t i = 0; i < 900; ++i) {
    cells[i * d + 0] = 3;
    cells[i * d + 1] = 4;
  }
  for (size_t i = 900; i < 1700; ++i) {
    cells[i * d + 2] = 7;
    cells[i * d + 3] = 8;
  }
  MinerParams params;
  params.xi = 10;
  params.tau_percent = 2.5;
  params.mdl_prune = true;
  auto result = MineDenseUnits(cells, n, d, params);
  ASSERT_TRUE(result.ok());
  ASSERT_GE(result->levels.size(), 2u);
  EXPECT_TRUE(result->levels[1].count(Subspace{0, 1}));
  EXPECT_TRUE(result->levels[1].count(Subspace{2, 3}));
}

TEST(MinerTest, ThresholdIsCeiling) {
  std::vector<uint8_t> cells{0, 0, 0};
  MinerParams params;
  params.xi = 2;
  params.tau_percent = 34.0;  // ceil(0.34 * 3) = 2.
  auto result = MineDenseUnits(cells, 3, 1, params);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->threshold, 2u);
}

}  // namespace
}  // namespace proclus
