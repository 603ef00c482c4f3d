// Edge-case hardening across modules: tiny inputs, degenerate
// configurations, constant data, and boundary parameter values.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "baselines/kmeans.h"
#include "common/rng.h"
#include "clique/clique.h"
#include "core/find_dimensions.h"
#include "core/proclus.h"
#include "core/tune.h"
#include "data/binary_io.h"
#include "data/normalize.h"
#include "data/sharded_source.h"
#include "eval/matching.h"
#include "eval/report.h"
#include "gen/synthetic.h"
#include "test_temp.h"

namespace proclus {
namespace {

// ---------- PROCLUS on degenerate data ----------

TEST(EdgeCaseTest, ProclusOnConstantData) {
  // Every point identical: any partition is valid; nothing may crash,
  // and the objective is exactly zero.
  Matrix m(50, 4);
  for (size_t i = 0; i < 50; ++i)
    for (size_t j = 0; j < 4; ++j) m(i, j) = 3.5;
  Dataset ds(std::move(m));
  ProclusParams params;
  params.num_clusters = 2;
  params.avg_dims = 2.0;
  params.seed = 1;
  params.num_restarts = 1;
  auto result = RunProclus(ds, params);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->objective, 0.0);
}

TEST(EdgeCaseTest, ProclusKEqualsN) {
  // As many clusters as points.
  Matrix m(6, 3);
  for (size_t i = 0; i < 6; ++i)
    for (size_t j = 0; j < 3; ++j)
      m(i, j) = static_cast<double>(i * 10 + j);
  Dataset ds(std::move(m));
  ProclusParams params;
  params.num_clusters = 6;
  params.avg_dims = 2.0;
  params.seed = 3;
  params.num_restarts = 1;
  auto result = RunProclus(ds, params);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->medoids.size(), 6u);
}

TEST(EdgeCaseTest, ProclusSingleCluster) {
  GeneratorParams gen;
  gen.num_points = 500;
  gen.space_dims = 6;
  gen.num_clusters = 1;
  gen.cluster_dim_counts = {3};
  gen.outlier_fraction = 0.0;
  gen.seed = 5;
  auto data = GenerateSynthetic(gen);
  ASSERT_TRUE(data.ok());
  ProclusParams params;
  params.num_clusters = 1;
  params.avg_dims = 3.0;
  params.seed = 7;
  auto result = RunProclus(data->dataset, params);
  ASSERT_TRUE(result.ok());
  // One cluster, no other medoid -> infinite sphere -> no outliers.
  EXPECT_EQ(result->NumOutliers(), 0u);
  for (int label : result->labels) EXPECT_EQ(label, 0);
}

// block_rows only shapes the scan geometry, and one block covers the
// data once block_rows >= n: every larger value must fit exactly like
// block_rows = n.
struct OneBlockFit {
  SyntheticData data;
  ProclusParams params;
  ProjectedClustering fit;  // At block_rows = n.
};

OneBlockFit FitInOneBlock() {
  GeneratorParams gen;
  gen.num_points = 3000;
  gen.space_dims = 10;
  gen.num_clusters = 3;
  gen.cluster_dim_counts = {3, 3, 3};
  gen.seed = 8;
  auto data = GenerateSynthetic(gen);
  EXPECT_TRUE(data.ok());
  OneBlockFit out{std::move(data).value(), {}, {}};
  out.params.num_clusters = 3;
  out.params.avg_dims = 3.0;
  out.params.seed = 4;
  out.params.num_restarts = 1;
  out.params.max_no_improve = 10;
  out.params.block_rows = 3000;
  auto fit = RunProclus(out.data.dataset, out.params);
  EXPECT_TRUE(fit.ok());
  out.fit = std::move(fit).value();
  return out;
}

void ExpectSameFit(const ProjectedClustering& got,
                   const ProjectedClustering& want) {
  uint64_t got_bits = 0, want_bits = 0;
  std::memcpy(&got_bits, &got.objective, sizeof(got_bits));
  std::memcpy(&want_bits, &want.objective, sizeof(want_bits));
  EXPECT_EQ(got_bits, want_bits);
  EXPECT_EQ(got.labels, want.labels);
  EXPECT_EQ(got.medoids, want.medoids);
  EXPECT_EQ(got.dimensions, want.dimensions);
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.improvements, want.improvements);
}

// BlockCount once rounded up as (n + block_rows - 1) / block_rows, which
// wraps to zero blocks near SIZE_MAX: the fit read past its partials
// and crashed.
TEST(EdgeCaseTest, ProclusMaxBlockRowsEqualsOneBlock) {
  OneBlockFit base = FitInOneBlock();
  for (size_t block_rows : {SIZE_MAX, SIZE_MAX - 1, size_t{3001}}) {
    SCOPED_TRACE("block_rows " + std::to_string(block_rows));
    ProclusParams params = base.params;
    params.block_rows = block_rows;
    auto fit = RunProclus(base.data.dataset, params);
    ASSERT_TRUE(fit.ok()) << fit.status().ToString();
    ExpectSameFit(*fit, base.fit);
  }
}

// The disk read buffers and the glued shard scan's staging buffer were
// once sized block_rows x d whatever the data: 2^40 threw an uncaught
// bad_alloc.
TEST(EdgeCaseTest, ProclusHugeBlockRowsOnDiskEqualMemory) {
  OneBlockFit base = FitInOneBlock();
  const std::string path = TestTempPath("huge_blocks.bin");
  ASSERT_TRUE(WriteBinaryFile(base.data.dataset, path).ok());
  auto disk = DiskSource::Open(path);
  ASSERT_TRUE(disk.ok());
  // Unaligned shards scan through the glued Scan and its staging buffer.
  ShardSplitOptions split;
  split.num_shards = 3;
  split.align_rows = 7;
  auto manifest = SplitIntoShards(path, TestTempPath("huge_blocks"), split);
  ASSERT_TRUE(manifest.ok());
  auto sharded = ShardedSource::OpenManifest(*manifest);
  ASSERT_TRUE(sharded.ok());

  const PointSource* sources[] = {&*disk, &*sharded};
  const char* names[] = {"disk", "glued shards"};
  for (size_t block_rows : {size_t{1} << 40, SIZE_MAX}) {
    for (size_t s = 0; s < 2; ++s) {
      SCOPED_TRACE(std::string(names[s]) + ", block_rows " +
                   std::to_string(block_rows));
      ProclusParams params = base.params;
      params.block_rows = block_rows;
      auto fit = RunProclusOnSource(*sources[s], params);
      ASSERT_TRUE(fit.ok()) << fit.status().ToString();
      ExpectSameFit(*fit, base.fit);
    }
  }
}

// A NaN or infinite coordinate once aborted the process: the climb's
// first objective came out NaN, `NaN < +inf` is false, so the first
// iteration counted as not improving and tripped the climb's invariant
// check. Every such fit, from memory or from a snapshot file, must now
// end in a Status naming the fault or in a model that passes
// ValidateClustering.
TEST(EdgeCaseTest, ProclusNonFiniteCoordinateIsAStatusNotAnAbort) {
  GeneratorParams gen;
  gen.num_points = 600;
  gen.space_dims = 6;
  gen.num_clusters = 2;
  gen.cluster_dim_counts = {3, 3};
  gen.seed = 5;
  auto data = GenerateSynthetic(gen);
  ASSERT_TRUE(data.ok());
  ProclusParams params;
  params.num_clusters = 2;
  params.avg_dims = 3.0;
  params.seed = 7;
  const size_t n = gen.num_points;
  const double values[] = {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()};
  for (double value : values) {
    for (bool whole_column : {true, false}) {
      Dataset dataset = data->dataset;
      if (whole_column) {
        for (size_t i = 0; i < n; ++i) dataset.matrix()(i, 0) = value;
      } else {
        dataset.matrix()(n / 2, 0) = value;
      }
      const std::string path = TestTempPath("nonfinite.bin");
      ASSERT_TRUE(WriteBinaryFile(dataset, path).ok());
      auto disk = DiskSource::Open(path);
      ASSERT_TRUE(disk.ok()) << disk.status().ToString();
      MemorySource memory(dataset);
      const PointSource* sources[] = {&memory, &*disk};
      const char* names[] = {"memory", "disk"};
      for (size_t s = 0; s < 2; ++s) {
        SCOPED_TRACE(std::string(names[s]) + ", value " +
                     std::to_string(value) +
                     (whole_column ? ", whole column" : ", one cell"));
        auto fit = RunProclusOnSource(*sources[s], params);
        if (fit.ok()) {
          EXPECT_TRUE(ValidateClustering(*fit, params, n).ok());
        } else {
          EXPECT_EQ(fit.status().code(), StatusCode::kInvalidArgument);
          EXPECT_NE(fit.status().message().find("non-finite coordinate"),
                    std::string::npos)
              << fit.status().ToString();
        }
      }
    }
  }
}

TEST(EdgeCaseTest, ProclusFullDimensionality) {
  // l == d: every cluster gets every dimension.
  GeneratorParams gen;
  gen.num_points = 800;
  gen.space_dims = 5;
  gen.num_clusters = 2;
  gen.cluster_dim_counts = {3, 3};
  gen.seed = 9;
  auto data = GenerateSynthetic(gen);
  ASSERT_TRUE(data.ok());
  ProclusParams params;
  params.num_clusters = 2;
  params.avg_dims = 5.0;
  params.seed = 11;
  params.num_restarts = 1;
  auto result = RunProclus(data->dataset, params);
  ASSERT_TRUE(result.ok());
  for (const auto& dims : result->dimensions)
    EXPECT_EQ(dims.size(), 5u);
}

// ---------- FindDimensions boundaries ----------

TEST(EdgeCaseTest, AllocateAllSlots) {
  // total == k*d: every dimension of every cluster selected.
  Matrix Z(3, 4);
  for (size_t i = 0; i < 3; ++i)
    for (size_t j = 0; j < 4; ++j)
      Z(i, j) = static_cast<double>(i) - static_cast<double>(j);
  auto result = AllocateDimensions(Z, 12, 2);
  ASSERT_TRUE(result.ok());
  for (const auto& set : *result) EXPECT_EQ(set.size(), 4u);
}

TEST(EdgeCaseTest, AllocateExactMinimum) {
  // total == 2k: exactly the per-row minima, nothing extra.
  Matrix Z(3, 5);
  for (size_t i = 0; i < 3; ++i)
    for (size_t j = 0; j < 5; ++j)
      Z(i, j) = static_cast<double>((i * 5 + j) % 7);
  auto result = AllocateDimensions(Z, 6, 2);
  ASSERT_TRUE(result.ok());
  for (const auto& set : *result) EXPECT_EQ(set.size(), 2u);
}

TEST(EdgeCaseTest, ZScoresOfTwoColumns) {
  // d == 2 is the smallest standardizable width.
  Matrix X(1, 2, {1.0, 3.0});
  Matrix Z = ComputeZScores(X);
  EXPECT_LT(Z(0, 0), 0.0);
  EXPECT_GT(Z(0, 1), 0.0);
  EXPECT_NEAR(Z(0, 0) + Z(0, 1), 0.0, 1e-12);
}

// ---------- CLIQUE boundaries ----------

TEST(EdgeCaseTest, CliqueSinglePointPerCell) {
  // tau so high only impossible counts qualify: no dense units at all.
  Matrix m(10, 2);
  for (size_t i = 0; i < 10; ++i) {
    m(i, 0) = static_cast<double>(i);
    m(i, 1) = static_cast<double>(9 - i);
  }
  Dataset ds(std::move(m));
  CliqueParams params;
  params.xi = 10;
  params.tau_percent = 100.0;
  auto result = RunClique(ds, params);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->threshold, 10u);
}

TEST(EdgeCaseTest, CliqueMinimumXi) {
  Matrix m(100, 2);
  for (size_t i = 0; i < 100; ++i) {
    m(i, 0) = i < 60 ? 1.0 : 9.0;
    m(i, 1) = i < 60 ? 1.0 : 9.0;
  }
  Dataset ds(std::move(m));
  CliqueParams params;
  params.xi = 2;
  params.tau_percent = 30.0;
  auto result = RunClique(ds, params);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->max_level, 2u);
  EXPECT_EQ(result->clusters.size(), 2u);
}

TEST(EdgeCaseTest, CliqueConstantDimension) {
  // A constant dimension puts every point in interval 0 and must not
  // break mining or clustering.
  Matrix m(200, 2);
  Rng rng(13);
  for (size_t i = 0; i < 200; ++i) {
    m(i, 0) = 5.0;  // Constant.
    m(i, 1) = rng.Uniform(0, 100);
  }
  Dataset ds(std::move(m));
  CliqueParams params;
  params.xi = 10;
  params.tau_percent = 5.0;
  auto result = RunClique(ds, params);
  ASSERT_TRUE(result.ok());
}

TEST(EdgeCaseTest, CliqueNonFiniteCoordinateIsAStatus) {
  // A NaN or infinite coordinate, in a whole column or one cell, read
  // from memory or from a snapshot: the bounds scan returns
  // InvalidArgument naming the first such coordinate's row and
  // dimension, instead of a grid whose interval indices are undefined.
  GeneratorParams gen;
  gen.num_points = 600;
  gen.space_dims = 6;
  gen.num_clusters = 2;
  gen.cluster_dim_counts = {3, 3};
  gen.seed = 5;
  auto data = GenerateSynthetic(gen);
  ASSERT_TRUE(data.ok());
  CliqueParams params;
  const size_t n = gen.num_points;
  const double values[] = {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()};
  for (double value : values) {
    for (bool whole_column : {true, false}) {
      Dataset dataset = data->dataset;
      const size_t first_bad = whole_column ? 0 : n / 2;
      for (size_t i = first_bad; i < (whole_column ? n : first_bad + 1); ++i)
        dataset.matrix()(i, 2) = value;
      const std::string path = TestTempPath("clique_nonfinite.bin");
      ASSERT_TRUE(WriteBinaryFile(dataset, path).ok());
      auto disk = DiskSource::Open(path);
      ASSERT_TRUE(disk.ok()) << disk.status().ToString();
      MemorySource memory(dataset);
      const PointSource* sources[] = {&memory, &*disk};
      const char* names[] = {"memory", "disk"};
      for (size_t s = 0; s < 2; ++s) {
        SCOPED_TRACE(std::string(names[s]) + ", value " +
                     std::to_string(value) +
                     (whole_column ? ", whole column" : ", one cell"));
        auto fit = RunCliqueOnSource(*sources[s], params);
        ASSERT_FALSE(fit.ok()) << fit->clusters.size() << " clusters";
        EXPECT_EQ(fit.status().code(), StatusCode::kInvalidArgument);
        const std::string want = "non-finite coordinate at row " +
                                 std::to_string(first_bad) + ", dimension 2";
        EXPECT_NE(fit.status().message().find(want), std::string::npos)
            << fit.status().ToString();
      }
    }
  }
}

// ---------- Normalization + pipeline ----------

TEST(EdgeCaseTest, ZScoreThenProclusOnScaledData) {
  // Wildly different dimension scales are handled by normalizing first.
  GeneratorParams gen;
  gen.num_points = 2000;
  gen.space_dims = 8;
  gen.num_clusters = 2;
  gen.cluster_dim_counts = {3, 3};
  gen.outlier_fraction = 0.0;
  gen.seed = 17;
  auto data = GenerateSynthetic(gen);
  ASSERT_TRUE(data.ok());
  // Scale one dimension by 1e6.
  Dataset scaled = data->dataset;
  for (size_t i = 0; i < scaled.size(); ++i)
    scaled.matrix()(i, 0) *= 1e6;
  auto transform = ZScoreTransform(scaled);
  ASSERT_TRUE(transform.ok());
  transform->Apply(&scaled);
  ProclusParams params;
  params.num_clusters = 2;
  params.avg_dims = 3.0;
  params.seed = 19;
  params.num_restarts = 2;
  auto result = RunProclus(scaled, params);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->labels.size(), scaled.size());
}

// ---------- Hungarian / reporting ----------

TEST(EdgeCaseTest, AssignmentSingleCell) {
  Matrix cost(1, 1, {7.0});
  EXPECT_EQ(SolveAssignmentMin(cost), (std::vector<int>{0}));
}

TEST(EdgeCaseTest, AssignmentWithTies) {
  // All-equal costs: any permutation is optimal; result must be a valid
  // permutation.
  Matrix cost(3, 3);
  for (size_t r = 0; r < 3; ++r)
    for (size_t c = 0; c < 3; ++c) cost(r, c) = 1.0;
  std::vector<int> match = SolveAssignmentMin(cost);
  std::vector<bool> used(3, false);
  for (int m : match) {
    ASSERT_GE(m, 0);
    ASSERT_LT(m, 3);
    EXPECT_FALSE(used[static_cast<size_t>(m)]);
    used[static_cast<size_t>(m)] = true;
  }
}

TEST(EdgeCaseTest, TableWriterEmptyTable) {
  TableWriter table({"only", "headers"});
  std::string rendered = table.ToString();
  EXPECT_NE(rendered.find("only"), std::string::npos);
  // Header + separator only.
  EXPECT_EQ(std::count(rendered.begin(), rendered.end(), '\n'), 2);
}

// ---------- Tuner minimum space ----------

TEST(EdgeCaseTest, AutoTuneOnTwoDimensionalSpace) {
  // d == 2 forces l == 2 throughout; the tuner must converge instantly.
  Rng rng(23);
  Matrix m(400, 2);
  for (size_t i = 0; i < 400; ++i) {
    double cx = i < 200 ? 20.0 : 80.0;
    m(i, 0) = rng.Normal(cx, 2.0);
    m(i, 1) = rng.Normal(cx, 2.0);
  }
  Dataset ds(std::move(m));
  ProclusParams base;
  base.num_clusters = 2;
  base.seed = 29;
  base.num_restarts = 1;
  TuneParams tune;
  tune.initial_avg_dims = 2.0;
  auto result = AutoTuneAvgDims(ds, base, tune);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->selected_avg_dims, 2.0);
}

// ---------- k-means single cluster ----------

TEST(EdgeCaseTest, KMeansSingleCluster) {
  Rng rng(31);
  Matrix m(100, 2);
  for (size_t i = 0; i < 100; ++i) {
    m(i, 0) = rng.Normal(10, 1);
    m(i, 1) = rng.Normal(10, 1);
  }
  Dataset ds(std::move(m));
  KMeansParams params;
  params.num_clusters = 1;
  params.seed = 37;
  auto result = RunKMeans(ds, params);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->centroids[0][0], 10.0, 0.5);
  for (int label : result->labels) EXPECT_EQ(label, 0);
}

TEST(EdgeCaseTest, KMeansNonFiniteCoordinateIsAStatus) {
  // A NaN or infinite coordinate, in a whole column or one cell, read
  // from memory or from a snapshot: the fit returns InvalidArgument
  // naming the cause instead of a model with a NaN inertia.
  GeneratorParams gen;
  gen.num_points = 600;
  gen.space_dims = 6;
  gen.num_clusters = 2;
  gen.cluster_dim_counts = {3, 3};
  gen.seed = 5;
  auto data = GenerateSynthetic(gen);
  ASSERT_TRUE(data.ok());
  KMeansParams params;
  params.num_clusters = 2;
  params.seed = 7;
  const size_t n = gen.num_points;
  const double values[] = {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()};
  for (double value : values) {
    for (bool whole_column : {true, false}) {
      Dataset dataset = data->dataset;
      if (whole_column) {
        for (size_t i = 0; i < n; ++i) dataset.matrix()(i, 0) = value;
      } else {
        dataset.matrix()(n / 2, 0) = value;
      }
      const std::string path = TestTempPath("kmeans_nonfinite.bin");
      ASSERT_TRUE(WriteBinaryFile(dataset, path).ok());
      auto disk = DiskSource::Open(path);
      ASSERT_TRUE(disk.ok()) << disk.status().ToString();
      MemorySource memory(dataset);
      const PointSource* sources[] = {&memory, &*disk};
      const char* names[] = {"memory", "disk"};
      for (size_t s = 0; s < 2; ++s) {
        SCOPED_TRACE(std::string(names[s]) + ", value " +
                     std::to_string(value) +
                     (whole_column ? ", whole column" : ", one cell"));
        auto fit = RunKMeansOnSource(*sources[s], params);
        ASSERT_FALSE(fit.ok()) << "inertia " << fit->inertia;
        EXPECT_EQ(fit.status().code(), StatusCode::kInvalidArgument);
        EXPECT_NE(fit.status().message().find("non-finite coordinate"),
                  std::string::npos)
            << fit.status().ToString();
      }
    }
  }
}

}  // namespace
}  // namespace proclus
