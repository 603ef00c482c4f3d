// Randomized equivalence sweep: the production fit against the
// paper-transcribed reference (reference_proclus.h).
//
// Every configuration draws a data set, a parameter set and an execution
// layout (memory, disk snapshot or 3-shard set; 1 or 3 threads; blocks of
// 7, 64, 512 or at least n rows) from one seeded stream. Production and
// reference must then agree exactly: the same error code, or the same
// objective bits, labels, medoids, medoid coordinates, dimension sets,
// spheres, iterations and improvements. The comparison is bit for bit;
// a mismatch is a bug in one of the two, never a tolerance to widen.
// Every production model is also checked against the output invariants
// of the paper: >= 2 dimensions per medoid summing to round(k * l),
// distinct medoids, labels in [-1, k) and a finite objective.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/proclus.h"
#include "data/binary_io.h"
#include "data/sharded_source.h"
#include "gen/synthetic.h"
#include "reference_proclus.h"
#include "test_temp.h"

namespace proclus {
namespace {

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

std::vector<uint64_t> Bits(const std::vector<double>& values) {
  std::vector<uint64_t> out;
  for (double v : values) out.push_back(Bits(v));
  return out;
}

void ExpectValidModel(const ProjectedClustering& model,
                      const ProclusParams& params, size_t n) {
  const size_t k = params.num_clusters;
  ASSERT_EQ(model.dimensions.size(), k);
  size_t total_dims = 0;
  for (const DimensionSet& dims : model.dimensions) {
    EXPECT_GE(dims.size(), 2u);
    total_dims += dims.size();
  }
  EXPECT_EQ(total_dims, static_cast<size_t>(std::llround(
                            params.avg_dims * static_cast<double>(k))));
  EXPECT_EQ(std::set<size_t>(model.medoids.begin(), model.medoids.end())
                .size(),
            k);
  ASSERT_EQ(model.labels.size(), n);
  for (int label : model.labels) {
    EXPECT_GE(label, -1);
    EXPECT_LT(label, static_cast<int>(k));
  }
  EXPECT_TRUE(std::isfinite(model.objective));
}

void ExpectSameModel(const ProjectedClustering& got,
                     const ProjectedClustering& want) {
  EXPECT_EQ(Bits(got.objective), Bits(want.objective));
  EXPECT_EQ(got.labels, want.labels);
  EXPECT_EQ(got.medoids, want.medoids);
  EXPECT_EQ(got.medoid_coords, want.medoid_coords);
  EXPECT_EQ(got.dimensions, want.dimensions);
  EXPECT_EQ(Bits(got.spheres), Bits(want.spheres));
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.improvements, want.improvements);
}

// The execution layout production runs on; owns whatever backs it.
struct Layout {
  std::string name;
  std::unique_ptr<MemorySource> memory;
  std::unique_ptr<DiskSource> disk;
  std::unique_ptr<ShardedSource> sharded;

  const PointSource& source() const {
    if (disk) return *disk;
    if (sharded) return *sharded;
    return *memory;
  }
};

Layout MakeLayout(size_t config, const Dataset& data, size_t block_rows) {
  Layout layout;
  const std::string tag = "sweep" + std::to_string(config);
  switch (config % 3) {
    case 0:
      layout.name = "memory";
      layout.memory = std::make_unique<MemorySource>(data);
      break;
    case 1: {
      layout.name = "disk";
      const std::string path = TestTempPath(tag + ".bin");
      EXPECT_TRUE(WriteBinaryFile(data, path).ok());
      auto disk = DiskSource::Open(path);
      EXPECT_TRUE(disk.ok());
      layout.disk = std::make_unique<DiskSource>(std::move(disk).value());
      break;
    }
    default: {
      // Alternate in-memory shards cut on block boundaries (the per-shard
      // executor) with checksummed disk shards cut anywhere (the glued
      // scan restitching blocks across shard boundaries).
      Result<ShardedSource> sharded = Status::Internal("unset");
      if ((config / 6) % 2 == 0) {
        layout.name = "3 memory shards";
        sharded = ShardedSource::FromDataset(data, 3, block_rows);
      } else {
        layout.name = "3 disk shards";
        const std::string path = TestTempPath(tag + ".bin");
        EXPECT_TRUE(WriteBinaryFile(data, path).ok());
        ShardSplitOptions split;
        split.num_shards = 3;
        split.align_rows = 1;
        split.checksum_block_rows = 50;
        auto manifest = SplitIntoShards(path, TestTempPath(tag), split);
        EXPECT_TRUE(manifest.ok());
        sharded = ShardedSource::OpenManifest(*manifest);
      }
      EXPECT_TRUE(sharded.ok()) << sharded.status().ToString();
      layout.sharded =
          std::make_unique<ShardedSource>(std::move(sharded).value());
      break;
    }
  }
  return layout;
}

TEST(ReferenceSweepTest, ProductionMatchesReferenceBitForBit) {
  Rng draw(0x5eed2026);
  constexpr size_t kConfigs = 28;
  const MetricKind kMetrics[] = {MetricKind::kManhattan,
                                 MetricKind::kEuclidean,
                                 MetricKind::kChebyshev};
  for (size_t c = 0; c < kConfigs + 3; ++c) {
    GeneratorParams gen;
    gen.num_points = 200 + draw.UniformInt(2801);
    gen.space_dims = 2 + draw.UniformInt(23);
    gen.num_clusters = 1 + draw.UniformInt(6);
    gen.poisson_mean = 1.0 + draw.UniformDouble() * 6.0;
    gen.outlier_fraction = draw.UniformDouble() * 0.1;
    gen.seed = draw.Next();
    auto data = GenerateSynthetic(gen);
    ASSERT_TRUE(data.ok()) << data.status().ToString();
    const size_t n = gen.num_points;
    const size_t d = gen.space_dims;

    ProclusParams params;
    params.num_clusters = 1 + draw.UniformInt(6);
    // l in [2, d]; every other configuration is fractional.
    params.avg_dims = 2.0 + static_cast<double>(draw.UniformInt(d - 1));
    if (c % 2 == 1 && params.avg_dims < static_cast<double>(d))
      params.avg_dims += draw.UniformDouble();
    params.sample_factor = 10 + draw.UniformInt(51);
    params.candidate_factor = 1 + draw.UniformInt(10);
    params.min_deviation = 0.05 + draw.UniformDouble() * 0.4;
    params.max_iterations = 5 + draw.UniformInt(26);
    params.max_no_improve = 3 + draw.UniformInt(8);
    params.num_restarts = 1 + draw.UniformInt(2);
    params.init_metric = kMetrics[draw.UniformInt(3)];
    params.seed = draw.Next();
    const size_t kBlockRows[] = {7, 64, 512, n + draw.UniformInt(n)};
    params.block_rows = kBlockRows[c % 4];
    params.refine = c % 5 != 1;
    params.detect_outliers = c % 5 != 2;
    params.segmental_normalization = c % 5 != 3;
    params.two_step_init = c % 5 != 4;
    params.num_threads = (c / 3) % 2 == 0 ? 1 : 3;
    // The last three configurations leave the paper's domain: l > d, a
    // minimum deviation of zero, and no room for a single climb step.
    // Both sides must refuse them alike.
    if (c == kConfigs) params.avg_dims = static_cast<double>(d) + 1.0;
    if (c == kConfigs + 1) params.min_deviation = 0.0;
    if (c == kConfigs + 2) params.max_no_improve = 0;

    Layout layout = MakeLayout(c, data->dataset, params.block_rows);
    SCOPED_TRACE("config " + std::to_string(c) + ": n=" + std::to_string(n) +
                 " d=" + std::to_string(d) + " k=" +
                 std::to_string(params.num_clusters) + " l=" +
                 std::to_string(params.avg_dims) + " block_rows=" +
                 std::to_string(params.block_rows) + " on " + layout.name +
                 " at " + std::to_string(params.num_threads) + " threads");

    auto production = RunProclusOnSource(layout.source(), params);
    auto oracle = reference::Proclus(data->dataset, params);
    ASSERT_EQ(production.status().code(), oracle.status().code())
        << production.status().ToString() << " vs "
        << oracle.status().ToString();
    if (c >= kConfigs) {
      EXPECT_EQ(production.status().code(), StatusCode::kInvalidArgument);
      continue;
    }
    ASSERT_TRUE(production.ok()) << production.status().ToString();
    ExpectValidModel(*production, params, n);
    ExpectSameModel(*production, *oracle);
  }
}

}  // namespace
}  // namespace proclus
