#include "core/greedy.h"

#include <set>

#include <gtest/gtest.h>

namespace proclus {
namespace {

// Three well-separated 2-d clusters of 5 points each.
Dataset SeparatedClusters() {
  Matrix m(15, 2);
  const double centers[3][2] = {{0, 0}, {100, 0}, {0, 100}};
  for (size_t c = 0; c < 3; ++c) {
    for (size_t p = 0; p < 5; ++p) {
      m(c * 5 + p, 0) = centers[c][0] + static_cast<double>(p) * 0.1;
      m(c * 5 + p, 1) = centers[c][1] - static_cast<double>(p) * 0.1;
    }
  }
  return Dataset(std::move(m));
}

TEST(GreedyTest, ReturnsRequestedCountDistinct) {
  Dataset ds = SeparatedClusters();
  std::vector<size_t> candidates;
  for (size_t i = 0; i < ds.size(); ++i) candidates.push_back(i);
  Rng rng(1);
  std::vector<size_t> picked =
      GreedyPick(ds, candidates, 4, MetricKind::kManhattan, rng);
  EXPECT_EQ(picked.size(), 4u);
  std::set<size_t> unique(picked.begin(), picked.end());
  EXPECT_EQ(unique.size(), 4u);
}

TEST(GreedyTest, CountClampedToCandidates) {
  Dataset ds = SeparatedClusters();
  std::vector<size_t> candidates{0, 1, 2};
  Rng rng(2);
  std::vector<size_t> picked =
      GreedyPick(ds, candidates, 10, MetricKind::kManhattan, rng);
  EXPECT_EQ(picked.size(), 3u);
}

TEST(GreedyTest, ZeroCountReturnsEmpty) {
  Dataset ds = SeparatedClusters();
  Rng rng(3);
  EXPECT_TRUE(GreedyPick(ds, {0, 1}, 0, MetricKind::kManhattan, rng).empty());
}

TEST(GreedyTest, PiercesWellSeparatedClusters) {
  // With k = number of clusters and clean separation, farthest-first must
  // pick one point from each cluster regardless of the random start.
  Dataset ds = SeparatedClusters();
  std::vector<size_t> candidates;
  for (size_t i = 0; i < ds.size(); ++i) candidates.push_back(i);
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed);
    std::vector<size_t> picked =
        GreedyPick(ds, candidates, 3, MetricKind::kEuclidean, rng);
    std::set<size_t> clusters;
    for (size_t idx : picked) clusters.insert(idx / 5);
    EXPECT_EQ(clusters.size(), 3u) << "seed " << seed;
  }
}

TEST(GreedyTest, PicksOnlyFromCandidateSet) {
  Dataset ds = SeparatedClusters();
  std::vector<size_t> candidates{1, 6, 11, 12};
  Rng rng(4);
  std::vector<size_t> picked =
      GreedyPick(ds, candidates, 3, MetricKind::kManhattan, rng);
  for (size_t idx : picked) {
    EXPECT_TRUE(idx == 1 || idx == 6 || idx == 11 || idx == 12);
  }
}

TEST(GreedyTest, DeterministicForSeed) {
  Dataset ds = SeparatedClusters();
  std::vector<size_t> candidates;
  for (size_t i = 0; i < ds.size(); ++i) candidates.push_back(i);
  Rng rng1(5), rng2(5);
  EXPECT_EQ(GreedyPick(ds, candidates, 5, MetricKind::kManhattan, rng1),
            GreedyPick(ds, candidates, 5, MetricKind::kManhattan, rng2));
}

TEST(GreedyTest, HandComputedPickOrder) {
  // 1-d points 0, 1, 3, 7, 15 under Manhattan distance. Once the first
  // pick is made, each next pick is the point farthest from its nearest
  // chosen point, worked out by hand for every possible first pick. The
  // seeds draw each first pick (Rng(seed).UniformInt(5), pinned by
  // RngTest.KnownAnswerStream's transcription).
  Dataset ds(Matrix(5, 1, {0, 1, 3, 7, 15}));
  std::vector<size_t> candidates{0, 1, 2, 3, 4};
  struct Case {
    uint64_t seed;
    std::vector<size_t> order;
  };
  const Case cases[] = {{2, {0, 4, 3, 2, 1}},
                        {4, {1, 4, 3, 2, 0}},
                        {23, {2, 4, 3, 0, 1}},
                        {0, {3, 4, 0, 2, 1}},
                        {8, {4, 0, 3, 2, 1}}};
  for (const Case& c : cases) {
    Rng rng(c.seed);
    EXPECT_EQ(GreedyPick(ds, candidates, 5, MetricKind::kManhattan, rng),
              c.order)
        << "seed " << c.seed;
  }
}

TEST(GreedyTest, SecondPickIsFarthestFromFirst) {
  // 1-d line: points at 0, 1, 2, 10. Whatever the first pick, the second
  // pick maximizes distance to it.
  Dataset ds(Matrix(4, 1, {0, 1, 2, 10}));
  std::vector<size_t> candidates{0, 1, 2, 3};
  for (uint64_t seed = 0; seed < 10; ++seed) {
    Rng rng(seed);
    std::vector<size_t> picked =
        GreedyPick(ds, candidates, 2, MetricKind::kManhattan, rng);
    double d01 = std::abs(ds.at(picked[0], 0) - ds.at(picked[1], 0));
    for (size_t other = 0; other < 4; ++other) {
      double alt = std::abs(ds.at(picked[0], 0) - ds.at(other, 0));
      EXPECT_LE(alt, d01);
    }
  }
}

}  // namespace
}  // namespace proclus
