// Parameterized invariant sweeps across the public API: every
// combination must uphold the structural contracts regardless of the
// statistical quality of the result.

#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "clique/clique.h"
#include "core/proclus.h"
#include "extensions/orclus.h"
#include "gen/synthetic.h"

namespace proclus {
namespace {

// ---------- PROCLUS invariants over (k, l) ----------

class ProclusSweepTest
    : public ::testing::TestWithParam<std::tuple<size_t, double>> {};

TEST_P(ProclusSweepTest, StructuralInvariants) {
  auto [k, l] = GetParam();
  GeneratorParams gen;
  gen.num_points = 2500;
  gen.space_dims = 12;
  gen.num_clusters = k;
  gen.poisson_mean = l;
  gen.seed = 100 + k;
  auto data = GenerateSynthetic(gen);
  ASSERT_TRUE(data.ok());

  ProclusParams params;
  params.num_clusters = k;
  params.avg_dims = l;
  params.seed = 7;
  params.num_restarts = 1;  // Keep the sweep fast.
  auto result = RunProclus(data->dataset, params);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Partition: one label per point, all in range.
  ASSERT_EQ(result->labels.size(), data->dataset.size());
  for (int label : result->labels) {
    ASSERT_TRUE(label == kOutlierLabel ||
                (label >= 0 && static_cast<size_t>(label) < k));
  }
  // Medoids: k distinct point indices, each labeled with its own cluster.
  ASSERT_EQ(result->medoids.size(), k);
  std::set<size_t> distinct(result->medoids.begin(), result->medoids.end());
  EXPECT_EQ(distinct.size(), k);
  // Dimension budget: >= 2 per cluster, total == round(k * l).
  size_t total = 0;
  for (const auto& dims : result->dimensions) {
    EXPECT_GE(dims.size(), 2u);
    EXPECT_LE(dims.size(), data->dataset.dims());
    total += dims.size();
  }
  EXPECT_EQ(total, static_cast<size_t>(std::llround(
                       l * static_cast<double>(k))));
  // Objective is a finite non-negative average distance.
  EXPECT_GE(result->objective, 0.0);
  EXPECT_TRUE(std::isfinite(result->objective));
}

INSTANTIATE_TEST_SUITE_P(
    KL, ProclusSweepTest,
    ::testing::Combine(::testing::Values<size_t>(1, 2, 4, 7),
                       ::testing::Values(2.0, 3.0, 4.5, 8.0)));

// ---------- CLIQUE invariants over (xi, tau) ----------

class CliqueSweepTest
    : public ::testing::TestWithParam<std::tuple<size_t, double>> {};

TEST_P(CliqueSweepTest, StructuralInvariants) {
  auto [xi, tau] = GetParam();
  GeneratorParams gen;
  gen.num_points = 2500;
  gen.space_dims = 8;
  gen.num_clusters = 2;
  gen.cluster_dim_counts = {3, 3};
  gen.seed = 55;
  auto data = GenerateSynthetic(gen);
  ASSERT_TRUE(data.ok());

  CliqueParams params;
  params.xi = xi;
  params.tau_percent = tau;
  auto result = RunClique(data->dataset, params, &data->truth.labels);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(result->threshold,
            static_cast<size_t>(std::ceil(tau / 100.0 * 2500)));
  EXPECT_LE(result->covered_points, data->dataset.size());
  for (const auto& cluster : result->clusters) {
    // Subspace dims sorted and distinct.
    for (size_t i = 1; i < cluster.subspace.size(); ++i)
      EXPECT_LT(cluster.subspace[i - 1], cluster.subspace[i]);
    // Cells sorted and distinct.
    for (size_t i = 1; i < cluster.cells.size(); ++i)
      EXPECT_LT(cluster.cells[i - 1], cluster.cells[i]);
    // Regions cover at least one unit each.
    for (const auto& region : cluster.regions)
      EXPECT_GE(region.UnitCount(), 1u);
    // Label counts tally with the point count.
    size_t tally = 0;
    for (size_t count : cluster.label_counts) tally += count;
    EXPECT_EQ(tally, cluster.point_count);
  }
  // Overlap is >= 1 whenever anything is covered.
  if (result->covered_points > 0) {
    EXPECT_GE(result->overlap, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    XiTau, CliqueSweepTest,
    ::testing::Combine(::testing::Values<size_t>(4, 10, 25),
                       ::testing::Values(0.5, 2.0, 10.0)));

// ---------- ORCLUS invariants over (k, l) ----------

class OrclusSweepTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(OrclusSweepTest, StructuralInvariants) {
  auto [k, l] = GetParam();
  GeneratorParams gen;
  gen.num_points = 1200;
  gen.space_dims = 8;
  gen.num_clusters = k;
  gen.poisson_mean = static_cast<double>(l);
  gen.outlier_fraction = 0.0;
  gen.seed = 300 + k * 10 + l;
  auto data = GenerateSynthetic(gen);
  ASSERT_TRUE(data.ok());

  OrclusParams params;
  params.num_clusters = k;
  params.subspace_dims = l;
  params.seed = 9;
  auto result = RunOrclus(data->dataset, params);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->labels.size(), data->dataset.size());
  // At most k clusters; labels within range; each basis orthonormal with
  // exactly l rows.
  const size_t clusters = result->centroids.rows();
  EXPECT_LE(clusters, k);
  EXPECT_GE(clusters, 1u);
  for (int label : result->labels) {
    ASSERT_GE(label, 0);
    ASSERT_LT(label, static_cast<int>(clusters));
  }
  ASSERT_EQ(result->subspaces.size(), clusters);
  for (const Matrix& basis : result->subspaces) {
    ASSERT_EQ(basis.rows(), l);
    ASSERT_EQ(basis.cols(), 8u);
    for (size_t a = 0; a < basis.rows(); ++a) {
      double norm = 0.0;
      for (size_t j = 0; j < basis.cols(); ++j)
        norm += basis(a, j) * basis(a, j);
      EXPECT_NEAR(norm, 1.0, 1e-8);
    }
  }
  EXPECT_TRUE(std::isfinite(result->objective));
  EXPECT_GE(result->objective, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    KL, OrclusSweepTest,
    ::testing::Combine(::testing::Values<size_t>(1, 2, 4),
                       ::testing::Values<size_t>(1, 3, 6)));

// ---------- Generator invariants over (N, d, k) ----------

class GeneratorSweepTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t, size_t>> {
};

TEST_P(GeneratorSweepTest, StructuralInvariants) {
  auto [n, d, k] = GetParam();
  GeneratorParams gen;
  gen.num_points = n;
  gen.space_dims = d;
  gen.num_clusters = k;
  gen.poisson_mean = 0.4 * static_cast<double>(d);
  gen.seed = n + d + k;
  auto data = GenerateSynthetic(gen);
  ASSERT_TRUE(data.ok()) << data.status().ToString();

  EXPECT_EQ(data->dataset.size(), n);
  EXPECT_EQ(data->dataset.dims(), d);
  EXPECT_EQ(data->truth.cluster_dims.size(), k);
  std::vector<size_t> sizes = data->truth.ClusterSizes();
  size_t total = 0;
  for (size_t i = 0; i < k; ++i) {
    EXPECT_GT(sizes[i], 0u);
    total += sizes[i];
  }
  total += sizes[k];
  EXPECT_EQ(total, n);
  for (const auto& dims : data->truth.cluster_dims) {
    EXPECT_GE(dims.size(), 2u);
    EXPECT_LE(dims.size(), d);
  }
  // Anchors are inside the coordinate range.
  for (const auto& anchor : data->truth.anchors) {
    ASSERT_EQ(anchor.size(), d);
    for (double coordinate : anchor) {
      EXPECT_GE(coordinate, 0.0);
      EXPECT_LE(coordinate, gen.range);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GeneratorSweepTest,
    ::testing::Combine(::testing::Values<size_t>(500, 5000),
                       ::testing::Values<size_t>(5, 16, 40),
                       ::testing::Values<size_t>(1, 3, 8)));

}  // namespace
}  // namespace proclus
