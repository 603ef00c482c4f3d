// Out-of-core CLIQUE: RunCliqueOnSource over memory and disk sources
// must reproduce RunClique exactly.

#include <gtest/gtest.h>

#include "test_temp.h"

#include "clique/clique.h"
#include "data/binary_io.h"
#include "gen/synthetic.h"

namespace proclus {
namespace {

struct SourceFixture {
  SyntheticData data;
  std::string disk_path;
};

SourceFixture MakeFixture(uint64_t seed = 7) {
  GeneratorParams gen;
  gen.num_points = 4000;
  gen.space_dims = 8;
  gen.num_clusters = 2;
  gen.cluster_dim_counts = {3, 3};
  gen.seed = seed;
  SourceFixture fixture;
  fixture.data = std::move(GenerateSynthetic(gen)).value();
  fixture.disk_path = TestTempPath("clique_source.bin");
  EXPECT_TRUE(
      WriteBinaryFile(fixture.data.dataset, fixture.disk_path).ok());
  return fixture;
}

void ExpectSameResult(const CliqueResult& a, const CliqueResult& b) {
  EXPECT_EQ(a.threshold, b.threshold);
  EXPECT_EQ(a.max_level, b.max_level);
  EXPECT_EQ(a.covered_points, b.covered_points);
  EXPECT_EQ(a.overlap, b.overlap);
  ASSERT_EQ(a.clusters.size(), b.clusters.size());
  for (size_t i = 0; i < a.clusters.size(); ++i) {
    EXPECT_EQ(a.clusters[i].subspace, b.clusters[i].subspace);
    EXPECT_EQ(a.clusters[i].cells, b.clusters[i].cells);
    EXPECT_EQ(a.clusters[i].point_count, b.clusters[i].point_count);
    EXPECT_EQ(a.clusters[i].label_counts, b.clusters[i].label_counts);
  }
}

TEST(CliqueSourceTest, GridFromSourceMatchesDataset) {
  // The grid spans the data's per-dimension bounds in xi equal intervals,
  // and every point lands in the interval of each of its coordinates.
  SourceFixture fixture = MakeFixture();
  const Dataset& ds = fixture.data.dataset;
  MemorySource memory(ds);
  auto grid = Grid::BuildFromSource(memory, 10);
  ASSERT_TRUE(grid.ok());
  std::vector<double> mins, maxs;
  ds.Bounds(&mins, &maxs);
  for (size_t j = 0; j < ds.dims(); ++j) {
    const double width = (maxs[j] - mins[j]) / 10.0;
    for (uint8_t idx = 0; idx < 10; ++idx) {
      double lo, hi;
      grid->IntervalBounds(j, idx, &lo, &hi);
      EXPECT_EQ(lo, mins[j] + width * static_cast<double>(idx));
      EXPECT_EQ(hi, lo + width);
    }
  }
  auto cells = grid->QuantizeSource(memory);
  ASSERT_TRUE(cells.ok());
  ASSERT_EQ(cells->size(), ds.size() * ds.dims());
  for (size_t i = 0; i < ds.size(); ++i)
    for (size_t j = 0; j < ds.dims(); ++j)
      EXPECT_EQ((*cells)[i * ds.dims() + j], grid->Interval(j, ds.at(i, j)));
}

TEST(CliqueSourceTest, MemorySourceMatchesDataset) {
  SourceFixture fixture = MakeFixture();
  CliqueParams params;
  params.xi = 10;
  params.tau_percent = 2.0;
  auto direct =
      RunClique(fixture.data.dataset, params, &fixture.data.truth.labels);
  MemorySource memory(fixture.data.dataset);
  auto via_source =
      RunCliqueOnSource(memory, params, &fixture.data.truth.labels);
  ASSERT_TRUE(direct.ok() && via_source.ok());
  ExpectSameResult(*direct, *via_source);
}

TEST(CliqueSourceTest, DiskSourceMatchesDataset) {
  SourceFixture fixture = MakeFixture(11);
  CliqueParams params;
  params.xi = 10;
  params.tau_percent = 2.0;
  auto direct = RunClique(fixture.data.dataset, params);
  auto disk = DiskSource::Open(fixture.disk_path);
  ASSERT_TRUE(disk.ok());
  auto via_disk = RunCliqueOnSource(*disk, params);
  ASSERT_TRUE(direct.ok() && via_disk.ok());
  ExpectSameResult(*direct, *via_disk);
}

TEST(CliqueSourceTest, ValidationErrors) {
  SourceFixture fixture = MakeFixture(13);
  MemorySource memory(fixture.data.dataset);
  CliqueParams bad;
  bad.xi = 0;
  EXPECT_FALSE(RunCliqueOnSource(memory, bad).ok());
  CliqueParams params;
  std::vector<int> short_labels(3, 0);
  EXPECT_FALSE(RunCliqueOnSource(memory, params, &short_labels).ok());
}

}  // namespace
}  // namespace proclus
