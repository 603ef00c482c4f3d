// Hand-computed values of the paper's data passes (Figures 4-6 and the
// refinement's cluster statistics), pinned on the paper-transcribed
// reference (reference_proclus.h). The production consumers are checked
// against the same reference bit for bit by ReferenceSweepTest, and
// against each other across sources, threads and block sizes by
// PassesTest (core_passes_test.cc).

#include "reference_proclus.h"

#include <gtest/gtest.h>

#include "gen/ground_truth.h"

namespace proclus {
namespace {

TEST(AssignPointsTest, AssignsByProjectedDistance) {
  // Medoid 0 at origin cares about dim 0; medoid 1 at (10, 10) cares about
  // dim 1. The point (9, 1): distance to m0 on {0} = 9; to m1 on {1} = 9.
  // Tie -> lower index. The point (1, 9): d0 = 1, d1 = 1 -> cluster 0.
  // The point (9, 9.5): d0 = 9, d1 = 0.5 -> cluster 1.
  Matrix m(5, 2, {0, 0, 10, 10, 9, 1, 1, 9, 9, 9.5});
  Dataset ds(std::move(m));
  std::vector<size_t> medoids{0, 1};
  std::vector<DimensionSet> dims{DimensionSet(2, {0u}),
                                 DimensionSet(2, {1u})};
  std::vector<int> labels = reference::Assign(ds, medoids, dims);
  EXPECT_EQ(labels[2], 0);  // Tie broken toward cluster 0.
  EXPECT_EQ(labels[3], 0);
  EXPECT_EQ(labels[4], 1);
  EXPECT_EQ(labels[0], 0);  // Medoids belong to their own clusters.
  EXPECT_EQ(labels[1], 1);
}

TEST(AssignPointsTest, SegmentalNormalizationChangesOutcome) {
  // Medoid 0 uses 1 dim, medoid 1 uses 2 dims. A point 3 away on m0's dim
  // and 2 away on each of m1's dims: segmental -> d0 = 3, d1 = 2 (m1
  // wins); unnormalized -> d0 = 3, d1 = 4 (m0 wins).
  Matrix m(3, 3,
           {0, 0, 0,      //
            50, 50, 50,   //
            3, 48, 48});
  Dataset ds(std::move(m));
  std::vector<size_t> medoids{0, 1};
  std::vector<DimensionSet> dims{DimensionSet(3, {0u}),
                                 DimensionSet(3, {1u, 2u})};
  std::vector<int> normalized = reference::Assign(ds, medoids, dims, true);
  std::vector<int> raw = reference::Assign(ds, medoids, dims, false);
  EXPECT_EQ(normalized[2], 1);
  EXPECT_EQ(raw[2], 0);
}

TEST(EvaluateClustersTest, PerfectClusterScoresZero) {
  // All points of each cluster identical -> centroid distance 0.
  Matrix m(4, 2, {1, 1, 1, 1, 9, 9, 9, 9});
  Dataset ds(std::move(m));
  std::vector<int> labels{0, 0, 1, 1};
  std::vector<DimensionSet> dims{DimensionSet(2, {0u, 1u}),
                                 DimensionSet(2, {0u, 1u})};
  EXPECT_DOUBLE_EQ(reference::Evaluate(ds, labels, dims), 0.0);
}

TEST(EvaluateClustersTest, KnownAverageDeviation) {
  // One cluster, two points at 0 and 4 on dim 0 -> centroid 2, average
  // distance 2 along dim 0.
  Matrix m(2, 2, {0, 7, 4, 7});
  Dataset ds(std::move(m));
  std::vector<int> labels{0, 0};
  std::vector<DimensionSet> dims{DimensionSet(2, {0u})};
  EXPECT_DOUBLE_EQ(reference::Evaluate(ds, labels, dims), 2.0);
  // Including the constant dim 1 halves the per-dimension average.
  dims[0] = DimensionSet(2, {0u, 1u});
  EXPECT_DOUBLE_EQ(reference::Evaluate(ds, labels, dims), 1.0);
}

TEST(EvaluateClustersTest, WeightsByClusterSize) {
  // Cluster 0: 2 points, avg deviation 2 on its dim. Cluster 1: 1 point,
  // deviation 0. Weighted: (2*2 + 0*1) / 3.
  Matrix m(3, 1, {0, 4, 100});
  Dataset ds(std::move(m));
  std::vector<int> labels{0, 0, 1};
  std::vector<DimensionSet> dims{DimensionSet(1, {0u}),
                                 DimensionSet(1, {0u})};
  EXPECT_DOUBLE_EQ(reference::Evaluate(ds, labels, dims), 4.0 / 3.0);
}

TEST(EvaluateClustersTest, OutliersIgnored) {
  Matrix m(3, 1, {0, 4, 1000});
  Dataset ds(std::move(m));
  std::vector<int> labels{0, 0, kOutlierLabel};
  std::vector<DimensionSet> dims{DimensionSet(1, {0u})};
  EXPECT_DOUBLE_EQ(reference::Evaluate(ds, labels, dims), 2.0);
}

TEST(EvaluateClustersTest, AllOutliersScoresZero) {
  Matrix m(2, 1, {0, 9});
  Dataset ds(std::move(m));
  std::vector<int> labels{kOutlierLabel, kOutlierLabel};
  std::vector<DimensionSet> dims{DimensionSet(1, {0u})};
  EXPECT_DOUBLE_EQ(reference::Evaluate(ds, labels, dims), 0.0);
}

TEST(LocalityStatsTest, LocalitiesReachTheNeighboringMedoid) {
  // The locality radius delta_i is the distance to the nearest other
  // medoid, so localities overlap by design (the paper notes L_i need not
  // be disjoint): points clustered around either medoid are within
  // delta of both. delta = (100 + 0)/2 = 50 in segmental terms; every
  // point below is within 50 of both medoids.
  Matrix m(4, 2,
           {0, 0,     //
            100, 0,   //
            1, 0,     // Near medoid 0.
            99, 0});  // Near medoid 1.
  Dataset ds(std::move(m));
  Matrix X = reference::LocalityStats(ds, {0, 1});
  // Locality of each medoid = all 4 points: avg |dx| = (0+100+1+99)/4.
  EXPECT_DOUBLE_EQ(X(0, 0), 50.0);
  EXPECT_DOUBLE_EQ(X(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(X(1, 0), 50.0);
  EXPECT_DOUBLE_EQ(X(1, 1), 0.0);
}

TEST(LocalityStatsTest, PointsBeyondDeltaExcluded) {
  // A fifth point far past both medoids falls outside both localities
  // (distance > delta = 50 from each medoid).
  Matrix m(5, 2,
           {0, 0,      //
            100, 0,    //
            1, 0,      //
            99, 0,     //
            300, 0});  // Outside both spheres.
  Dataset ds(std::move(m));
  Matrix X = reference::LocalityStats(ds, {0, 1});
  // Averages unchanged from the 4-point case.
  EXPECT_DOUBLE_EQ(X(0, 0), 50.0);
  EXPECT_DOUBLE_EQ(X(1, 0), 50.0);
}

TEST(ClusterStatsTest, AveragesOverAssignedPoints) {
  Matrix m(4, 2,
           {0, 0,    //
            10, 0,   //
            2, 2,    //
            12, 4});
  Dataset ds(std::move(m));
  std::vector<int> labels{0, 1, 0, 1};
  Matrix X = reference::ClusterStats(ds, {0, 1}, labels);
  EXPECT_DOUBLE_EQ(X(0, 0), 1.0);  // (0 + 2) / 2.
  EXPECT_DOUBLE_EQ(X(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(X(1, 0), 1.0);  // (0 + 2) / 2.
  EXPECT_DOUBLE_EQ(X(1, 1), 2.0);
}

TEST(ClusterStatsTest, OutliersExcluded) {
  Matrix m(3, 1, {0, 2, 1000});
  Dataset ds(std::move(m));
  std::vector<int> labels{0, 0, kOutlierLabel};
  Matrix X = reference::ClusterStats(ds, {0}, labels);
  EXPECT_DOUBLE_EQ(X(0, 0), 1.0);
}

}  // namespace
}  // namespace proclus
