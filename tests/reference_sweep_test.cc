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
// of the paper with ValidateClustering (core/proclus.h): >= 2 dimensions
// per medoid summing to round(k * l), distinct medoids, labels in
// [-1, k), a finite objective and n rows visited per scan.
//
// A second, named set of configurations reaches the edges of the fused
// climb's distance-column cache, whose key is (medoid slot, dimension
// set, normalization): l = d, where every assignment key is the locality
// key; an unnormalized long climb; k = 1; restarts of 100 iterations,
// across which the cache carries; a fit resumed from a checkpoint,
// whose cache starts empty; lists of 25 or more of d = 40 dimensions,
// which the evaluation sums in several 8-column groups; and d = 200 on
// a disk snapshot, where the locality scan splits every block into a
// full row tile and a ragged one.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/proclus.h"
#include "data/binary_io.h"
#include "data/sharded_source.h"
#include "distance/batch.h"
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
  const Status valid = ValidateClustering(model, params, n);
  EXPECT_TRUE(valid.ok()) << valid.ToString();
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
  for (size_t c = 0; c < kConfigs + 5; ++c) {
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
    // The draw that once picked the greedy's metric, kept so every other
    // value drawn after it stays the same.
    (void)draw.UniformInt(3);
    params.seed = draw.Next();
    const size_t kBlockRows[] = {7, 64, 512, n + draw.UniformInt(n)};
    params.block_rows = kBlockRows[c % 4];
    params.refine = c % 5 != 1;
    params.detect_outliers = c % 5 != 2;
    params.segmental_normalization = c % 5 != 3;
    params.two_step_init = c % 5 != 4;
    params.num_threads = (c / 3) % 2 == 0 ? 1 : 3;
    // The last five configurations leave the paper's domain: l > d, a
    // minimum deviation of zero, no room for a single climb step, and a
    // NaN l or minimum deviation. Both sides must refuse them alike.
    if (c == kConfigs) params.avg_dims = static_cast<double>(d) + 1.0;
    if (c == kConfigs + 1) params.min_deviation = 0.0;
    if (c == kConfigs + 2) params.max_no_improve = 0;
    if (c == kConfigs + 3)
      params.avg_dims = std::numeric_limits<double>::quiet_NaN();
    if (c == kConfigs + 4)
      params.min_deviation = std::numeric_limits<double>::quiet_NaN();

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

// One named configuration of the cache-edge sweep.
struct EdgeConfig {
  std::string name;
  size_t n, d, k;
  double l;
  size_t layout;  // MakeLayout's selector: memory, disk or 3 shards.
  void (*tweak)(ProclusParams*);
};

TEST(ReferenceSweepTest, CacheKeyEdgesMatchReferenceBitForBit) {
  const EdgeConfig kEdges[] = {
      {"l = d", 1500, 6, 3, 6.0, 0,
       [](ProclusParams* p) { p->num_threads = 3; }},
      {"unnormalized long climb", 1200, 12, 4, 4.0, 1,
       [](ProclusParams* p) {
         p->segmental_normalization = false;
         p->max_no_improve = 80;
         p->max_iterations = 300;
       }},
      {"k = 1", 900, 8, 1, 3.0, 2,
       [](ProclusParams* p) { p->num_threads = 3; }},
      {"3 restarts of 100 iterations", 800, 10, 3, 3.5, 0,
       [](ProclusParams* p) {
         p->num_restarts = 3;
         p->max_iterations = 100;
         p->max_no_improve = 100;
         p->num_threads = 2;
       }},
      {"resumed from a checkpoint", 1000, 9, 3, 3.0, 2,
       [](ProclusParams* p) {
         p->num_restarts = 2;
         p->checkpoint.path = TestTempPath("edge_resume.pckp");
         p->checkpoint.every_iterations = 7;
       }},
      // The evaluation sums each cluster's own columns eight to a vector;
      // lists of 25 or more columns (30 here) take three full groups and
      // a remainder. The oracle's Evaluate sums all d columns.
      {"long dimension lists", 1200, 40, 3, 28.0, 1,
       [](ProclusParams* p) { p->num_threads = 2; }},
      // The locality scan runs its fill and walk one row tile at a time;
      // at d = 200 a tile holds 80 rows, so each 128-row block (and the
      // last one, of 104) is a full tile and a ragged one, and the walk
      // takes seven 32-column passes.
      {"locality row tiles", 1000, 200, 3, 6.0, 1,
       [](ProclusParams* p) { p->num_threads = 2; }},
  };
  for (size_t c = 0; c < std::size(kEdges); ++c) {
    const EdgeConfig& edge = kEdges[c];
    SCOPED_TRACE(edge.name);
    GeneratorParams gen;
    gen.num_points = edge.n;
    gen.space_dims = edge.d;
    gen.num_clusters = 3;
    gen.outlier_fraction = 0.05;
    gen.seed = 900 + c;
    auto data = GenerateSynthetic(gen);
    ASSERT_TRUE(data.ok()) << data.status().ToString();

    ProclusParams params;
    params.num_clusters = edge.k;
    params.avg_dims = edge.l;
    params.seed = 40 + c;
    params.block_rows = 128;
    edge.tweak(&params);
    Layout layout =
        MakeLayout(3 * c + edge.layout, data->dataset, params.block_rows);

    uint64_t uninterrupted_scans = 0;
    if (!params.checkpoint.path.empty()) {
      // The first fit leaves its last periodic checkpoint behind; the
      // second resumes from it with an empty cache.
      std::remove(params.checkpoint.path.c_str());
      auto first = RunProclusOnSource(layout.source(), params);
      ASSERT_TRUE(first.ok()) << first.status().ToString();
      uninterrupted_scans = first->stats.scans_issued;
    }
    auto production = RunProclusOnSource(layout.source(), params);
    ASSERT_TRUE(production.ok()) << production.status().ToString();
    if (uninterrupted_scans > 0) {
      EXPECT_LT(production->stats.scans_issued, uninterrupted_scans);
    }
    auto oracle = reference::Proclus(data->dataset, params);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    ExpectValidModel(*production, params, edge.n);
    ExpectSameModel(*production, *oracle);
    if (params.num_restarts == 3) {
      EXPECT_EQ(production->iterations, 300u);
    }
    if (edge.l == static_cast<double>(edge.d)) {
      for (const DimensionSet& dims : production->dimensions)
        EXPECT_EQ(dims.size(), edge.d);
    }
    if (edge.d == 200) {
      const size_t tile = LocalityTileRows(edge.d);
      const size_t last = edge.n % params.block_rows;
      EXPECT_EQ(tile, 80u);
      EXPECT_EQ((params.block_rows + tile - 1) / tile, 2u);
      EXPECT_NE(params.block_rows % tile, 0u);
      EXPECT_EQ((last + tile - 1) / tile, 2u);
    }
    if (edge.d == 40) {
      size_t longest = 0;
      for (const DimensionSet& dims : production->dimensions)
        longest = std::max(longest, dims.size());
      EXPECT_GT(longest, 24u);
    }
  }
}

}  // namespace
}  // namespace proclus
