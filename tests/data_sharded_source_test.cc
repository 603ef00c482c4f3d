// Sharded source tests:
//
//  * ShardedSource is a faithful PointSource: its Scan routes every row
//    range to the shards holding it and reproduces the single-source
//    block geometry bit-for-bit for ANY shard layout (aligned, unaligned,
//    ragged, one-row), and Fetch routes indices to the owning shard.
//  * SplitIntoShards + OpenManifest round-trip a snapshot through N
//    checksummed per-shard snapshots; every corruption — truncated
//    manifest, bad magic, shard/manifest shape disagreement, missing
//    shard file, a flipped byte inside one shard — is rejected with a
//    diagnosable Status.
//  * ScanExecutor::Run over a shard set is bit-identical to the unsharded
//    scan for shards in {1,2,4,8} and for unaligned layouts, populates
//    RunStats::shard_io, and a full PROCLUS fit over a sharded disk
//    source matches the single-source fit exactly.
//  * DiskSource delivers every block whole and verified, for any block
//    size, with the failing read's diagnostics.

#include "data/sharded_source.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "test_temp.h"

#include "common/rng.h"
#include "core/consumers.h"
#include "core/proclus.h"
#include "data/binary_io.h"
#include "data/engine.h"

namespace proclus {
namespace {

void ExpectMessageContains(const Status& status, const std::string& substr) {
  EXPECT_NE(status.message().find(substr), std::string::npos)
      << "status message \"" << status.message()
      << "\" does not contain \"" << substr << "\"";
}

Dataset RandomDataset(size_t n, size_t d, uint64_t seed = 5) {
  Rng rng(seed);
  Matrix m(n, d);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < d; ++j) m(i, j) = rng.Uniform(-100, 100);
  return Dataset(std::move(m));
}

// Reads `source` one block per Scan, as the executor does, until a read
// fails, and returns that read's status (OK when every block arrived).
// Each delivery must be exactly the block asked for; `on_block` gets it.
Status ReadBlocks(
    const PointSource& source, size_t block_rows,
    const std::function<void(size_t, std::span<const double>)>& on_block) {
  for (size_t first = 0; first < source.size(); first += block_rows) {
    const size_t end = first + std::min(block_rows, source.size() - first);
    size_t visits = 0;
    Status status = source.Scan(
        {.first_row = first, .end_row = end},
        [&](size_t row, std::span<const double> data, size_t rows) {
          ++visits;
          EXPECT_EQ(row, first);
          EXPECT_EQ(rows, end - first);
          EXPECT_EQ(data.size(), rows * source.dims());
          on_block(row, data);
        });
    if (!status.ok()) return status;
    EXPECT_EQ(visits, 1u);
  }
  return Status::OK();
}

// Collects all blocks back into one matrix.
Matrix CollectScan(const PointSource& source, size_t block_rows) {
  Matrix out(source.size(), source.dims());
  Status status = ReadBlocks(
      source, block_rows, [&](size_t first, std::span<const double> data) {
        std::copy(data.begin(), data.end(), out.row(first).begin());
      });
  EXPECT_TRUE(status.ok()) << status.ToString();
  return out;
}

// Builds a memory shard set with the given per-shard row counts.
ShardedSource MakeShards(const Dataset& dataset,
                         const std::vector<size_t>& shard_rows) {
  std::vector<std::unique_ptr<PointSource>> shards;
  size_t first = 0;
  for (size_t rows : shard_rows) {
    shards.push_back(std::make_unique<MemorySource>(dataset, first, rows));
    first += rows;
  }
  EXPECT_EQ(first, dataset.size());
  auto sharded = ShardedSource::Create(std::move(shards));
  EXPECT_TRUE(sharded.ok()) << sharded.status().ToString();
  return std::move(sharded).value();
}

// ---------------------------------------------------------------------
// ShardedSource as a plain PointSource.
// ---------------------------------------------------------------------

TEST(ShardedSourceTest, CreateRejectsEmptyAndNullShards) {
  EXPECT_EQ(ShardedSource::Create({}).status().code(),
            StatusCode::kInvalidArgument);
  std::vector<std::unique_ptr<PointSource>> with_null;
  with_null.push_back(nullptr);
  EXPECT_EQ(ShardedSource::Create(std::move(with_null)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ShardedSourceTest, CreateRejectsDimensionDisagreement) {
  Dataset narrow = RandomDataset(10, 3);
  Dataset wide = RandomDataset(10, 4);
  std::vector<std::unique_ptr<PointSource>> shards;
  shards.push_back(std::make_unique<MemorySource>(narrow, 0, 10));
  shards.push_back(std::make_unique<MemorySource>(wide, 0, 10));
  Status status = ShardedSource::Create(std::move(shards)).status();
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  ExpectMessageContains(status, "shard 1 has dimensionality 4");
}

TEST(ShardedSourceTest, GluedScanMatchesMemoryForAnyLayout) {
  Dataset ds = RandomDataset(500, 3, 7);
  // Aligned, unaligned, ragged, and one-row shard layouts all reproduce
  // the single-source block geometry through the glue.
  const std::vector<std::vector<size_t>> layouts = {
      {500},
      {128, 128, 128, 116},
      {100, 100, 100, 100, 100},
      {1, 499},
      {250, 1, 1, 248},
      {97, 203, 200}};
  for (const auto& layout : layouts) {
    ShardedSource sharded = MakeShards(ds, layout);
    ASSERT_EQ(sharded.size(), 500u);
    ASSERT_EQ(sharded.dims(), 3u);
    for (size_t block_rows : {1, 64, 128, 500, 1000}) {
      SCOPED_TRACE("layout[0]=" + std::to_string(layout[0]) +
                   " block_rows=" + std::to_string(block_rows));
      EXPECT_EQ(CollectScan(sharded, block_rows), ds.matrix());
    }
  }
}

TEST(ShardedSourceTest, ScanAccountsRowsOnce) {
  Dataset ds = RandomDataset(300, 2);
  ShardedSource sharded = MakeShards(ds, {100, 100, 100});
  CollectScan(sharded, 64);
  // One scan per block read; each shard reads its own rows once, the
  // blocks spanning rows 100 and 200 from two shards each.
  EXPECT_EQ(sharded.io().scans, BlockCount(300, 64));
  EXPECT_EQ(sharded.io().rows_scanned, 300u);
  for (size_t s = 0; s < 3; ++s)
    EXPECT_EQ(sharded.shard(s).io().rows_scanned, 100u);
  EXPECT_EQ(sharded.shard(0).io().scans, 2u);
  EXPECT_EQ(sharded.shard(1).io().scans, 3u);
  EXPECT_EQ(sharded.shard(2).io().scans, 2u);
}

TEST(ShardedSourceTest, FetchRoutesToOwningShard) {
  Dataset ds = RandomDataset(200, 4, 9);
  ShardedSource sharded = MakeShards(ds, {64, 64, 72});
  // Indices spanning all shards, out of order, with duplicates and both
  // boundary rows of the middle shard.
  std::vector<size_t> indices{199, 0, 64, 127, 64, 70, 128, 63};
  auto fetched = sharded.Fetch(indices);
  ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
  for (size_t r = 0; r < indices.size(); ++r)
    for (size_t j = 0; j < 4; ++j)
      EXPECT_EQ((*fetched)(r, j), ds.at(indices[r], j));
  std::vector<size_t> bad{200};
  EXPECT_EQ(sharded.Fetch(bad).status().code(), StatusCode::kOutOfRange);
}

TEST(ShardedSourceTest, AlignedToChecksEveryBoundary) {
  Dataset ds = RandomDataset(500, 2);
  ShardedSource aligned = MakeShards(ds, {128, 128, 128, 116});
  EXPECT_TRUE(aligned.AlignedTo(128));
  EXPECT_TRUE(aligned.AlignedTo(64));
  EXPECT_TRUE(aligned.AlignedTo(1));
  EXPECT_FALSE(aligned.AlignedTo(100));
  EXPECT_FALSE(aligned.AlignedTo(0));
  ShardedSource ragged = MakeShards(ds, {128, 100, 272});
  EXPECT_FALSE(ragged.AlignedTo(128));  // offset 228 straddles.
  EXPECT_TRUE(ragged.AlignedTo(4));
}

TEST(ShardedSourceTest, FromDatasetAlignsAllButLastShard) {
  Dataset ds = RandomDataset(1000, 2);
  auto sharded = ShardedSource::FromDataset(ds, 4, 64);
  ASSERT_TRUE(sharded.ok());
  ASSERT_EQ(sharded->num_shards(), 4u);
  // 1000/4 = 250 -> 192-row aligned shards, last takes the remainder.
  for (size_t s = 0; s + 1 < 4; ++s)
    EXPECT_EQ(sharded->shard_rows(s) % 64, 0u);
  EXPECT_EQ(sharded->shard_offset(0), 0u);
  EXPECT_TRUE(sharded->AlignedTo(64));
  EXPECT_EQ(sharded->size(), 1000u);
  EXPECT_EQ(CollectScan(*sharded, 64), ds.matrix());
  // Shard counts beyond the row count are clamped.
  Dataset tiny = RandomDataset(3, 2);
  auto clamped = ShardedSource::FromDataset(tiny, 16, 1);
  ASSERT_TRUE(clamped.ok());
  EXPECT_EQ(clamped->num_shards(), 3u);
}

// ---------------------------------------------------------------------
// SplitIntoShards + manifest round-trip and its failure paths.
// ---------------------------------------------------------------------

struct SplitFixture {
  Dataset dataset;
  std::string snapshot;
  std::string manifest;
  std::string prefix;
};

SplitFixture MakeSplit(const std::string& name, size_t rows, size_t cols,
                       size_t num_shards, uint64_t align_rows) {
  SplitFixture fixture;
  fixture.dataset = RandomDataset(rows, cols, 17);
  fixture.snapshot = TestTempPath(name + ".bin");
  EXPECT_TRUE(WriteBinaryFile(fixture.dataset, fixture.snapshot).ok());
  fixture.prefix = TestTempPath(name + "_shards");
  ShardSplitOptions options;
  options.num_shards = num_shards;
  options.align_rows = align_rows;
  auto manifest = SplitIntoShards(fixture.snapshot, fixture.prefix, options);
  EXPECT_TRUE(manifest.ok()) << manifest.status().ToString();
  fixture.manifest = std::move(manifest).value();
  return fixture;
}

TEST(ShardSplitTest, RoundTripThroughManifestPreservesBits) {
  SplitFixture fixture = MakeSplit("split_roundtrip", 700, 3, 4, 64);
  auto manifest = ReadShardManifest(fixture.manifest);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  EXPECT_EQ(manifest->rows, 700u);
  EXPECT_EQ(manifest->cols, 3u);
  ASSERT_EQ(manifest->shards.size(), 4u);
  // 700/4 = 175 -> 128-row aligned shards, remainder in the last.
  EXPECT_EQ(manifest->shards[0].rows, 128u);
  EXPECT_EQ(manifest->shards[3].rows, 700u - 3 * 128u);

  auto sharded = ShardedSource::OpenManifest(fixture.manifest);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  EXPECT_EQ(sharded->num_shards(), 4u);
  EXPECT_TRUE(sharded->AlignedTo(64));
  EXPECT_EQ(CollectScan(*sharded, 64), fixture.dataset.matrix());
  EXPECT_EQ(CollectScan(*sharded, 100), fixture.dataset.matrix());

  // Each shard is a self-contained checksummed snapshot.
  auto shard0 = DiskSource::Open(fixture.prefix + ".shard0.bin");
  ASSERT_TRUE(shard0.ok());
  EXPECT_TRUE(shard0->verifies_checksums());
}

TEST(ShardSplitTest, SingleShardAndOversplitBothWork) {
  SplitFixture one = MakeSplit("split_one", 100, 2, 1, 8);
  auto sharded = ShardedSource::OpenManifest(one.manifest);
  ASSERT_TRUE(sharded.ok());
  EXPECT_EQ(sharded->num_shards(), 1u);
  EXPECT_EQ(CollectScan(*sharded, 16), one.dataset.matrix());

  // More shards than aligned chunks: falls back to an even partition.
  SplitFixture many = MakeSplit("split_many", 10, 2, 4, 8);
  auto opened = ShardedSource::OpenManifest(many.manifest);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(CollectScan(*opened, 16), many.dataset.matrix());
}

TEST(ShardSplitTest, SplitVerifiesInputChecksums) {
  Dataset ds = RandomDataset(600, 4);
  std::string snapshot = TestTempPath("split_corrupt_in.bin");
  ASSERT_TRUE(WriteBinaryFile(ds, snapshot).ok());
  // Flip a payload byte: the split must refuse to propagate the damage.
  {
    std::fstream f(snapshot,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(-64, std::ios::end);
    f.put(static_cast<char>(0x5a));
  }
  ShardSplitOptions options;
  options.num_shards = 3;
  options.align_rows = 64;
  Status status =
      SplitIntoShards(snapshot, TestTempPath("split_corrupt_out"), options)
          .status();
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  ExpectMessageContains(status, "checksum mismatch");
}

TEST(ShardManifestTest, BadMagicAndTruncationsRejected) {
  SplitFixture fixture = MakeSplit("manifest_damage", 300, 2, 3, 32);
  std::string pristine;
  {
    std::ifstream in(fixture.manifest, std::ios::binary);
    pristine.assign((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  }
  ASSERT_FALSE(pristine.empty());

  const std::string damaged_path = TestTempPath("manifest_damaged.pcsm");
  auto write = [&](const std::string& bytes) {
    std::ofstream out(damaged_path, std::ios::binary | std::ios::trunc);
    out << bytes;
  };

  // Bad magic.
  std::string bad_magic = pristine;
  bad_magic[0] = 'X';
  write(bad_magic);
  Status status = ReadShardManifest(damaged_path).status();
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  ExpectMessageContains(status, "not a shard manifest");

  // Every truncation point is rejected, never crashed or misparsed.
  for (size_t keep = 0; keep < pristine.size(); ++keep) {
    write(pristine.substr(0, keep));
    auto result = ReadShardManifest(damaged_path);
    EXPECT_FALSE(result.ok()) << "prefix of " << keep << " bytes parsed";
    EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  }
}

TEST(ShardManifestTest, ListedRowsMustSumToTotal) {
  SplitFixture fixture = MakeSplit("manifest_sum", 300, 2, 3, 32);
  auto manifest = ReadShardManifest(fixture.manifest);
  ASSERT_TRUE(manifest.ok());
  manifest->shards[1].rows += 5;
  const std::string path = TestTempPath("manifest_sum_bad.pcsm");
  ASSERT_TRUE(WriteShardManifest(*manifest, path).ok());
  Status status = ReadShardManifest(path).status();
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
}

TEST(ShardManifestTest, OpenManifestRejectsMissingShard) {
  SplitFixture fixture = MakeSplit("manifest_missing", 300, 2, 3, 32);
  ASSERT_EQ(std::remove((fixture.prefix + ".shard1.bin").c_str()), 0);
  Status status = ShardedSource::OpenManifest(fixture.manifest).status();
  EXPECT_EQ(status.code(), StatusCode::kIOError);
}

TEST(ShardManifestTest, OpenManifestRejectsShardShapeDisagreement) {
  SplitFixture fixture = MakeSplit("manifest_shape", 300, 2, 3, 32);
  // Overwrite shard 1 with a snapshot of the wrong shape.
  Dataset wrong = RandomDataset(10, 2);
  ASSERT_TRUE(
      WriteBinaryFile(wrong, fixture.prefix + ".shard1.bin").ok());
  Status status = ShardedSource::OpenManifest(fixture.manifest).status();
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  ExpectMessageContains(status, "manifest promises");
}

TEST(ShardManifestTest, OpenManifestRejectsAShardWhosePayloadLengthWraps) {
  // One shard whose 104-byte v2 header claims 2^60 rows x 1 column in
  // checksum blocks of one row: header offset + payload length wraps to
  // 40. The manifest agrees with the header, so only the shard's own
  // header check can refuse it.
  const std::string prefix = TestTempPath("manifest_wraps");
  {
    std::ofstream out(prefix + ".shard0.bin",
                      std::ios::binary | std::ios::trunc);
    const uint32_t version = 2;
    const uint64_t fields[] = {uint64_t{1} << 60, 1, 1, uint64_t{1} << 60};
    out.write("PCLS", 4);
    out.write(reinterpret_cast<const char*>(&version), sizeof(version));
    out.write(reinterpret_cast<const char*>(fields), sizeof(fields));
    const std::string digests(64, '\0');
    out << digests;
  }
  ShardManifest manifest;
  manifest.rows = uint64_t{1} << 60;
  manifest.cols = 1;
  manifest.checksum_block_rows = 1;
  std::string base = prefix.substr(prefix.find_last_of('/') + 1);
  manifest.shards.push_back({uint64_t{1} << 60, base + ".shard0.bin"});
  ASSERT_TRUE(WriteShardManifest(manifest, prefix + ".pcsm").ok());
  EXPECT_EQ(ShardedSource::OpenManifest(prefix + ".pcsm").status().code(),
            StatusCode::kCorruption);
}

TEST(ShardManifestTest, ScanDetectsChecksumMismatchInOneShard) {
  SplitFixture fixture = MakeSplit("manifest_csum", 600, 4, 4, 32);
  // Flip a payload byte in shard 2 only. OpenManifest still succeeds
  // (shapes are intact); the damage surfaces as DataLoss when the scan
  // streams through that shard, naming the shard's own file.
  const std::string shard2 = fixture.prefix + ".shard2.bin";
  {
    std::fstream f(shard2, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(-16, std::ios::end);
    f.put(static_cast<char>(0x3c));
  }
  auto sharded = ShardedSource::OpenManifest(fixture.manifest);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ASSERT_EQ(sharded->shard_offset(2), 256u);
  ASSERT_EQ(sharded->shard_offset(3), 384u);
  // A block inside shard 2 and one spanning every shard both fail.
  for (auto [first, end] : {std::pair<size_t, size_t>{352, 384},
                            std::pair<size_t, size_t>{0, 600}}) {
    size_t visits = 0;
    Status status = sharded->Scan(
        {.first_row = first, .end_row = end},
        [&](size_t, std::span<const double>, size_t) { ++visits; });
    EXPECT_EQ(status.code(), StatusCode::kDataLoss);
    ExpectMessageContains(status, "checksum mismatch");
    ExpectMessageContains(status, shard2);
    EXPECT_EQ(visits, 0u);
  }
  // The executor surfaces the same permanent error (DataLoss from a real
  // on-disk flip persists across retries).
  ScanOptions options;
  options.block_rows = 32;
  options.retry.max_attempts = 3;
  class NullConsumer : public ScanConsumer {
   public:
    Status Prepare(const ScanGeometry&) override { return Status::OK(); }
    void ConsumeBlock(size_t, size_t, std::span<const double>,
                      size_t) override {}
    Status Merge() override { return Status::OK(); }
  } consumer;
  Status run = ScanExecutor(options).Run(*sharded, {&consumer});
  EXPECT_EQ(run.code(), StatusCode::kDataLoss);
}

// ---------------------------------------------------------------------
// Executor bit-identity and per-shard counters over shard sets.
// ---------------------------------------------------------------------

TEST(ShardedExecutorTest, ConsumersBitIdenticalForEveryShardCount) {
  Dataset ds = RandomDataset(4096, 8, 23);
  MemorySource whole(ds);
  std::vector<size_t> medoid_indices{3, 1000, 2500, 4000};
  Matrix medoids = std::move(whole.Fetch(medoid_indices)).value();
  std::vector<DimensionSet> dims = {
      DimensionSet(8, {0, 3, 5}), DimensionSet(8, {1, 2, 7}),
      DimensionSet(8, {4, 6}), DimensionSet(8, {0, 6, 7})};

  ScanOptions options;
  options.block_rows = 128;
  LocalityStatsConsumer locality_base;
  AssignConsumer assign_base;
  ASSERT_TRUE(locality_base.Bind(&medoids).ok());
  ASSERT_TRUE(assign_base.Bind(&medoids, &dims, true, true).ok());
  ASSERT_TRUE(ScanExecutor(options)
                  .Run(whole, {&locality_base, &assign_base})
                  .ok());

  for (size_t num_shards : {1, 2, 4, 8}) {
    SCOPED_TRACE(std::to_string(num_shards) + " shards");
    auto sharded = ShardedSource::FromDataset(ds, num_shards, 128);
    ASSERT_TRUE(sharded.ok());
    ASSERT_TRUE(sharded->AlignedTo(128));
    for (size_t threads : {1, 4}) {
      ScanOptions sharded_options = options;
      sharded_options.num_threads = threads;
      RunStats stats;
      sharded_options.stats = &stats;
      LocalityStatsConsumer locality;
      AssignConsumer assign;
      ASSERT_TRUE(locality.Bind(&medoids).ok());
      ASSERT_TRUE(assign.Bind(&medoids, &dims, true, true).ok());
      ASSERT_TRUE(ScanExecutor(sharded_options)
                      .Run(*sharded, {&locality, &assign})
                      .ok());
      EXPECT_EQ(locality.stats(), locality_base.stats());
      EXPECT_EQ(assign.labels(), assign_base.labels());
      EXPECT_EQ(assign.centroids(), assign_base.centroids());
      EXPECT_EQ(assign.cluster_sizes(), assign_base.cluster_sizes());

      // Per-shard counters: one read per block of the shard, rows
      // partitioning N.
      ASSERT_EQ(stats.shard_io.size(), num_shards);
      uint64_t rows = 0;
      for (size_t s = 0; s < num_shards; ++s) {
        EXPECT_EQ(stats.shard_io[s].scans,
                  BlockCount(sharded->shard_rows(s), 128));
        EXPECT_EQ(stats.shard_io[s].rows, sharded->shard_rows(s));
        EXPECT_EQ(stats.shard_io[s].retries, 0u);
        rows += stats.shard_io[s].rows;
      }
      EXPECT_EQ(rows, 4096u);
      EXPECT_EQ(stats.rows_visited, 4096u);
      EXPECT_EQ(stats.scans_issued, 1u);
    }
  }
}

TEST(ShardedExecutorTest, UnalignedShardsFallBackBitIdentically) {
  Dataset ds = RandomDataset(1000, 4, 29);
  MemorySource whole(ds);
  std::vector<size_t> medoid_indices{5, 500, 900};
  Matrix medoids = std::move(whole.Fetch(medoid_indices)).value();

  ScanOptions options;
  options.block_rows = 128;  // Boundaries at 300/600 straddle blocks.
  LocalityStatsConsumer base;
  ASSERT_TRUE(base.Bind(&medoids).ok());
  ASSERT_TRUE(ScanExecutor(options).Run(whole, {&base}).ok());

  ShardedSource sharded = MakeShards(ds, {300, 300, 400});
  ASSERT_FALSE(sharded.AlignedTo(128));
  LocalityStatsConsumer glued;
  ASSERT_TRUE(glued.Bind(&medoids).ok());
  ASSERT_TRUE(ScanExecutor(options).Run(sharded, {&glued}).ok());
  EXPECT_EQ(glued.stats(), base.stats());

  // The blocks spanning a boundary are read from both shards by whichever
  // worker owns them, at any thread count.
  for (size_t threads : {2, 7}) {
    ScanOptions parallel = options;
    parallel.num_threads = threads;
    LocalityStatsConsumer spanning;
    ASSERT_TRUE(spanning.Bind(&medoids).ok());
    ASSERT_TRUE(ScanExecutor(parallel).Run(sharded, {&spanning}).ok());
    EXPECT_EQ(spanning.stats(), base.stats()) << threads << " threads";
  }
}

TEST(ShardedExecutorTest, ProclusOverShardedDiskMatchesSingleSource) {
  // The headline acceptance check at unit scale: a full PROCLUS fit over
  // a sharded disk source is bit-identical to the single-source fit for
  // every shard count, objective bits and labels and medoids alike.
  SplitFixture fixture = MakeSplit("proclus_shards", 2000, 6, 4, 256);
  ProclusParams params;
  params.num_clusters = 3;
  params.avg_dims = 3.0;
  params.seed = 41;
  params.num_restarts = 2;
  params.max_iterations = 12;
  params.block_rows = 256;

  auto disk = DiskSource::Open(fixture.snapshot);
  ASSERT_TRUE(disk.ok());
  auto baseline = RunProclusOnSource(*disk, params);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  for (size_t num_shards : {1, 2, 4, 8}) {
    SCOPED_TRACE(std::to_string(num_shards) + " shards");
    ShardSplitOptions split;
    split.num_shards = num_shards;
    split.align_rows = 256;
    auto manifest = SplitIntoShards(
        fixture.snapshot,
        TestTempPath("proclus_shards_" + std::to_string(num_shards)),
        split);
    ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
    auto sharded = ShardedSource::OpenManifest(*manifest);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    for (size_t threads : {1, 4}) {
      ProclusParams sharded_params = params;
      sharded_params.num_threads = threads;
      auto result = RunProclusOnSource(*sharded, sharded_params);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      uint64_t base_bits = 0, result_bits = 0;
      std::memcpy(&base_bits, &baseline->objective, sizeof(base_bits));
      std::memcpy(&result_bits, &result->objective, sizeof(result_bits));
      EXPECT_EQ(result_bits, base_bits) << threads << " threads";
      EXPECT_EQ(result->labels, baseline->labels);
      EXPECT_EQ(result->medoids, baseline->medoids);
      EXPECT_EQ(result->iterations, baseline->iterations);
    }
  }
}

// ---------------------------------------------------------------------
// DiskSource's block reads, at every block size, for whole-snapshot and
// empty ranges alike.
// ---------------------------------------------------------------------

TEST(DiskPrefetchTest, EveryBlockSizeDeliversTheDataset) {
  Dataset ds = RandomDataset(1111, 5, 31);
  std::string path = TestTempPath("prefetch_identity.bin");
  ASSERT_TRUE(WriteBinaryFile(ds, path).ok());
  auto source = DiskSource::Open(path);
  ASSERT_TRUE(source.ok());
  // Multi-tile scans, a scan whose one tile is exactly the data, and one
  // whose block size exceeds it.
  for (size_t block_rows : {64, 256, 1111, 4096}) {
    SCOPED_TRACE("block_rows=" + std::to_string(block_rows));
    EXPECT_EQ(CollectScan(*source, block_rows), ds.matrix());
  }
}

TEST(DiskPrefetchTest, SingleTileScanDeliversOneBlock) {
  Dataset ds = RandomDataset(300, 4, 41);
  std::string path = TestTempPath("prefetch_single.bin");
  ASSERT_TRUE(WriteBinaryFile(ds, path).ok());
  auto source = DiskSource::Open(path);
  ASSERT_TRUE(source.ok());
  // end_row is clamped to the 300 rows.
  for (size_t end : {size_t{300}, size_t{1} << 40, SIZE_MAX}) {
    SCOPED_TRACE("end_row=" + std::to_string(end));
    std::vector<std::pair<size_t, size_t>> blocks;
    Matrix rows(300, 4);
    ASSERT_TRUE(source
                    ->Scan({.first_row = 0, .end_row = end},
                           [&](size_t first, std::span<const double> data,
                               size_t count) {
                             blocks.emplace_back(first, count);
                             std::copy(data.begin(), data.end(),
                                       rows.row(first).begin());
                           })
                    .ok());
    EXPECT_EQ(blocks, (std::vector<std::pair<size_t, size_t>>{{0, 300}}));
    EXPECT_EQ(rows, ds.matrix());
  }
  const IoCounters io = source->io();
  EXPECT_EQ(io.scans, 3u);
  EXPECT_EQ(io.rows_scanned, 3u * 300);
  EXPECT_EQ(io.bytes_read, 3u * 300 * 4 * sizeof(double));
  EXPECT_EQ(io.rows_fetched, 0u);
}

TEST(DiskPrefetchTest, EmptySnapshotScanDeliversNothing) {
  std::string path = TestTempPath("prefetch_empty.bin");
  ASSERT_TRUE(WriteBinaryFile(Dataset(Matrix(0, 3)), path).ok());
  auto source = DiskSource::Open(path);
  ASSERT_TRUE(source.ok());
  ASSERT_EQ(source->size(), 0u);
  // Every range is clamped to the empty one, which reads nothing.
  size_t blocks = 0;
  for (size_t end : {size_t{1}, size_t{512}, SIZE_MAX}) {
    ASSERT_TRUE(source
                    ->Scan({.first_row = 0, .end_row = end},
                           [&](size_t, std::span<const double>, size_t) {
                             ++blocks;
                           })
                    .ok());
  }
  EXPECT_EQ(blocks, 0u);
  const IoCounters io = source->io();
  EXPECT_EQ(io.scans, 0u);
  EXPECT_EQ(io.rows_scanned, 0u);
  EXPECT_EQ(io.bytes_read, 0u);
}

// Shrinks the file at `path` to `keep` bytes.
void TruncateFile(const std::string& path, size_t keep) {
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  ASSERT_LT(keep, bytes.size());
  bytes.resize(keep);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

TEST(DiskPrefetchTest, ProducerIoFailureSurfacesWithFullDetail) {
  Dataset ds = RandomDataset(1000, 4, 37);
  std::string path = TestTempPath("prefetch_ioerror.bin");
  ASSERT_TRUE(WriteBinaryFile(ds, path).ok());
  auto source = DiskSource::Open(path);
  ASSERT_TRUE(source.ok());
  // Truncate AFTER opening so the failure hits mid-scan, in a read past
  // the first.
  const size_t row_bytes = 4 * sizeof(double);
  const size_t data_offset = 24 + 16 + 4 * sizeof(uint64_t);  // 4 csum blocks
  TruncateFile(path, data_offset + 700 * row_bytes);
  size_t delivered = 0;
  Status status = ReadBlocks(
      *source, 100, [&](size_t, std::span<const double>) { ++delivered; });
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  ExpectMessageContains(status, "'" + path + "'");
  ExpectMessageContains(status, "byte offset");
  // A 100-row block is read with the whole 256-row checksum blocks around
  // it, so the read for rows [500, 600) covers rows [256, 768) and runs
  // out of bytes at row 700. Exactly the five blocks before it, all
  // inside fully read checksum blocks, were delivered.
  EXPECT_EQ(delivered, 5u);
}

TEST(DiskPrefetchTest, ChecksumMismatchDetectedBeforeDelivery) {
  Dataset ds = RandomDataset(1024, 4, 43);
  std::string path = TestTempPath("prefetch_csum.bin");
  ASSERT_TRUE(WriteBinaryFile(ds, path).ok());
  auto source = DiskSource::Open(path);
  ASSERT_TRUE(source.ok());
  // Flip a byte in checksum block 3 (rows 768..1023).
  const size_t data_offset = 24 + 16 + 4 * sizeof(uint64_t);
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    const size_t offset = data_offset + 900 * 4 * sizeof(double) + 1;
    f.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    f.get(byte);
    f.seekp(static_cast<std::streamoff>(offset));
    f.put(static_cast<char>(byte ^ 0x5a));
  }
  std::vector<size_t> delivered;
  Status status = ReadBlocks(*source, 256,
                             [&](size_t first, std::span<const double>) {
                               delivered.push_back(first);
                             });
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  ExpectMessageContains(status, "checksum mismatch");
  ExpectMessageContains(status, "block 3");
  // Blocks whose checksum blocks verified were delivered; the damaged one
  // never was (256-row blocks align with the 256-row checksum blocks
  // here).
  EXPECT_EQ(delivered, (std::vector<size_t>{0, 256, 512}));
}

}  // namespace
}  // namespace proclus
