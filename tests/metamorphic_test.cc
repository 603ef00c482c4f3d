// Exact metamorphic relations for PROCLUS: transforms of the input that
// must leave any correct fit unchanged, to the bit, with no second
// implementation to compare against.
//
//  * Negating any subset of coordinates. IEEE round-to-nearest is
//    sign-symmetric and every PROCLUS distance reads |a - b|, so every
//    distance, locality, Z-score, assignment and objective is the same.
//  * Scaling every coordinate by 2^e. Short of overflow or subnormals this
//    is exact: distances, deltas, centroids, spheres and the objective
//    scale by exactly 2^e, and the Z-scores do not move, because
//    sqrt(4^e * v) = 2^e * sqrt(v) exactly.
//
// Each transformed fit must match the untransformed fit on the same kind
// of source in labels, medoid indices, dimension sets, iterations and
// improvements, and its objective, spheres and medoid coordinates must be
// the transformed base values, bit for bit. The relations cannot see a
// bug that is itself symmetric (such as `<=` for `<`); the reference
// sweep (reference_sweep_test.cc) catches those.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include <gtest/gtest.h>

#include "core/proclus.h"
#include "data/binary_io.h"
#include "data/point_source.h"
#include "data/sharded_source.h"
#include "gen/synthetic.h"
#include "test_temp.h"

namespace proclus {
namespace {

constexpr size_t kDims = 20;
constexpr size_t kThreads = 4;
constexpr size_t kShards = 3;

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

// x -> ±x * 2^exponent, negating the dimensions in `negated`.
struct Transform {
  std::string name;
  std::vector<size_t> negated;
  int exponent = 0;

  double Apply(double value, size_t dim) const {
    for (size_t j : negated)
      if (j == dim) value = -value;
    return std::ldexp(value, exponent);
  }
  Matrix Apply(const Matrix& points) const {
    Matrix out(points.rows(), points.cols());
    for (size_t r = 0; r < points.rows(); ++r)
      for (size_t c = 0; c < points.cols(); ++c)
        out(r, c) = Apply(points(r, c), c);
    return out;
  }
};

std::vector<Transform> Transforms() {
  std::vector<size_t> odd, all;
  for (size_t j = 0; j < kDims; ++j) {
    all.push_back(j);
    if (j % 2 == 1) odd.push_back(j);
  }
  return {{"negate_odd_dims", odd, 0},
          {"negate_all_dims", all, 0},
          {"times_2_pow_3", {}, 3},
          {"times_2_pow_minus_20", {}, -20},
          {"times_2_pow_30_negate_four_dims", {0, 3, 10, 17}, 30}};
}

// The paper's Case 2 shape at 20,000 rows.
Dataset Case2() {
  GeneratorParams gen;
  gen.num_points = 20000;
  gen.space_dims = kDims;
  gen.num_clusters = 5;
  gen.cluster_dim_counts = {7, 3, 2, 6, 2};
  gen.outlier_fraction = 0.05;
  gen.seed = 11;
  auto generated = GenerateSynthetic(gen);
  PROCLUS_CHECK(generated.ok());
  return std::move(generated->dataset);
}

enum class SourceKind { kMemory, kDisk, kSharded };

struct Case {
  SourceKind kind;
  uint64_t seed;
};

// Removes a directory tree when it goes out of scope.
struct ScopedDir {
  std::string path;
  ~ScopedDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path, ignored);
  }
};

// Fits `data` through a source of `kind`. A disk-backed source is written
// under a directory named `tag` that is removed after the fit.
Result<ProjectedClustering> Fit(const Dataset& data, SourceKind kind,
                                uint64_t seed, const std::string& tag) {
  ProclusParams params;
  params.num_clusters = 5;
  params.avg_dims = 4.0;
  params.seed = seed;
  params.num_threads = kThreads;
  if (kind == SourceKind::kMemory)
    return RunProclusOnSource(MemorySource(data), params);
  const ScopedDir dir{TestTempPath(tag)};
  std::filesystem::create_directories(dir.path);
  const std::string snapshot = dir.path + "/rows.bin";
  PROCLUS_RETURN_IF_ERROR(WriteBinaryFile(data, snapshot));
  if (kind == SourceKind::kDisk) {
    Result<DiskSource> disk = DiskSource::Open(snapshot);
    PROCLUS_RETURN_IF_ERROR(disk.status());
    return RunProclusOnSource(*disk, params);
  }
  ShardSplitOptions split;
  split.num_shards = kShards;
  Result<std::string> manifest =
      SplitIntoShards(snapshot, dir.path + "/shard", split);
  PROCLUS_RETURN_IF_ERROR(manifest.status());
  Result<ShardedSource> sharded = ShardedSource::OpenManifest(*manifest);
  PROCLUS_RETURN_IF_ERROR(sharded.status());
  if (sharded->num_shards() != kShards)
    return Status::Internal("expected a 3-shard split");
  return RunProclusOnSource(*sharded, params);
}

class ProclusMetamorphicTest : public ::testing::TestWithParam<Case> {};

TEST_P(ProclusMetamorphicTest, ExactUnderNegationAndPowerOfTwoScaling) {
  const Case& c = GetParam();
  const Dataset data = Case2();
  Result<ProjectedClustering> base = Fit(data, c.kind, c.seed, "base");
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  ASSERT_EQ(base->spheres.size(), base->medoids.size());

  for (const Transform& t : Transforms()) {
    SCOPED_TRACE(t.name);
    const Dataset transformed(t.Apply(data.matrix()));
    Result<ProjectedClustering> fit =
        Fit(transformed, c.kind, c.seed, t.name);
    ASSERT_TRUE(fit.ok()) << fit.status().ToString();

    EXPECT_EQ(fit->labels, base->labels);
    EXPECT_EQ(fit->medoids, base->medoids);
    ASSERT_EQ(fit->dimensions.size(), base->dimensions.size());
    for (size_t i = 0; i < base->dimensions.size(); ++i)
      EXPECT_EQ(fit->dimensions[i].ToVector(),
                base->dimensions[i].ToVector());
    EXPECT_EQ(fit->iterations, base->iterations);
    EXPECT_EQ(fit->improvements, base->improvements);

    EXPECT_EQ(Bits(fit->objective),
              Bits(std::ldexp(base->objective, t.exponent)))
        << fit->objective << " vs " << base->objective;
    ASSERT_EQ(fit->spheres.size(), base->spheres.size());
    for (size_t i = 0; i < base->spheres.size(); ++i)
      EXPECT_EQ(Bits(fit->spheres[i]),
                Bits(std::ldexp(base->spheres[i], t.exponent)))
          << "sphere " << i;
    EXPECT_EQ(fit->medoid_coords, t.Apply(base->medoid_coords));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sources, ProclusMetamorphicTest,
    ::testing::Values(Case{SourceKind::kMemory, 1},
                      Case{SourceKind::kMemory, 2},
                      Case{SourceKind::kMemory, 3},
                      Case{SourceKind::kDisk, 1},
                      Case{SourceKind::kSharded, 1}),
    [](const ::testing::TestParamInfo<Case>& info) {
      const char* kind = info.param.kind == SourceKind::kMemory ? "memory"
                         : info.param.kind == SourceKind::kDisk ? "disk"
                                                                : "sharded";
      return std::string(kind) + "_seed" + std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace proclus
