// Delivery audit of the scan executor's one read loop: after every
// successful scan, every block arrived exactly once, whole, and with the
// snapshot's bytes — for memory, disk, and aligned and unaligned 4-shard
// sources (blocks spanning two or more shards included), at block sizes
// {7, 256, 8192} and thread budgets {1, 2, 7, 16}, clean and under fault
// plans with transient failures, short reads and corruption that the retry
// policy survives. A scan whose retries run out returns the fault's
// Status, runs no Merge and commits no MedoidDistanceCache column.
//
// Part of the `fault` label, so the tsan preset runs it.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "core/consumers.h"
#include "data/binary_io.h"
#include "data/engine.h"
#include "data/fault_source.h"
#include "data/sharded_source.h"
#include "test_temp.h"

namespace proclus {
namespace {

constexpr size_t kRows = 3000;
constexpr size_t kDims = 5;

// What one ConsumeBlock call saw.
struct Delivery {
  size_t calls = 0;
  size_t first_row = 0;
  size_t rows = 0;
  uint64_t digest = 0;
};

// Records, per block, the first row, row count and XXH64 of the bytes it
// was given, and how often; counts its Merges.
class AuditConsumer final : public ScanConsumer {
 public:
  Status Prepare(const ScanGeometry& geometry) override {
    deliveries_.assign(geometry.num_blocks, Delivery{});
    return Status::OK();
  }
  void ConsumeBlock(size_t block_index, size_t first_row,
                    std::span<const double> data, size_t rows) override {
    Delivery& d = deliveries_[block_index];
    d.calls += 1;
    d.first_row = first_row;
    d.rows = rows;
    d.digest = Xxh64::Hash(data.data(), data.size() * sizeof(double));
  }
  Status Merge() override {
    merges_ += 1;
    return Status::OK();
  }

  const std::vector<Delivery>& deliveries() const { return deliveries_; }
  size_t merges() const { return merges_; }

 private:
  std::vector<Delivery> deliveries_;
  size_t merges_ = 0;
};

Dataset AuditDataset() {
  Rng rng(61);
  Matrix m(kRows, kDims);
  for (size_t i = 0; i < kRows; ++i)
    for (size_t j = 0; j < kDims; ++j) m(i, j) = rng.Uniform(-50, 50);
  return Dataset(std::move(m));
}

// Every block exactly once, whole, with the dataset's bytes.
void ExpectAudited(const AuditConsumer& audit, const Dataset& ds,
                   size_t block_rows) {
  ASSERT_EQ(audit.deliveries().size(), BlockCount(ds.size(), block_rows));
  for (size_t b = 0; b < audit.deliveries().size(); ++b) {
    const Delivery& d = audit.deliveries()[b];
    const size_t first = b * block_rows;
    const size_t rows = std::min(block_rows, ds.size() - first);
    EXPECT_EQ(d.calls, 1u) << "block " << b;
    EXPECT_EQ(d.first_row, first) << "block " << b;
    EXPECT_EQ(d.rows, rows) << "block " << b;
    EXPECT_EQ(d.digest,
              Xxh64::Hash(ds.matrix().data().data() + first * ds.dims(),
                          rows * ds.dims() * sizeof(double)))
        << "block " << b;
  }
}

FaultPlan SurvivablePlan(uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.fail_rate = 0.2;
  plan.short_read_rate = 0.15;
  plan.corrupt_rate = 0.1;
  plan.max_consecutive = 2;
  return plan;
}

// The sources under audit, all over the same rows.
struct AuditSources {
  Dataset ds = AuditDataset();
  std::unique_ptr<MemorySource> memory;
  std::unique_ptr<DiskSource> disk;
  std::unique_ptr<ShardedSource> aligned;    // shards at multiples of 256
  std::unique_ptr<ShardedSource> unaligned;  // shards at multiples of 37
  // The unaligned disk shards, each behind its own fault injector.
  std::unique_ptr<ShardedSource> faulty_shards;

  AuditSources() {
    memory = std::make_unique<MemorySource>(ds);
    const std::string snapshot = TestTempPath("audit.bin");
    EXPECT_TRUE(WriteBinaryFile(ds, snapshot).ok());
    auto opened = DiskSource::Open(snapshot);
    EXPECT_TRUE(opened.ok());
    disk = std::make_unique<DiskSource>(std::move(opened).value());
    aligned = OpenSplit(snapshot, "audit_aligned", 256);
    unaligned = OpenSplit(snapshot, "audit_unaligned", 37);
    EXPECT_TRUE(aligned->AlignedTo(256));
    EXPECT_FALSE(unaligned->AlignedTo(256));
    EXPECT_FALSE(unaligned->AlignedTo(7));

    std::vector<std::unique_ptr<PointSource>> decorated;
    for (size_t s = 0; s < unaligned->num_shards(); ++s) {
      decorated.push_back(std::make_unique<FaultInjectingPointSource>(
          unaligned->shard(s), SurvivablePlan(70 + s)));
    }
    auto created = ShardedSource::Create(std::move(decorated));
    EXPECT_TRUE(created.ok());
    faulty_shards = std::make_unique<ShardedSource>(std::move(created).value());
  }

  static std::unique_ptr<ShardedSource> OpenSplit(const std::string& snapshot,
                                                  const std::string& name,
                                                  size_t align_rows) {
    ShardSplitOptions split;
    split.num_shards = 4;
    split.align_rows = align_rows;
    auto manifest = SplitIntoShards(snapshot, TestTempPath(name), split);
    EXPECT_TRUE(manifest.ok()) << manifest.status().ToString();
    auto sharded = ShardedSource::OpenManifest(*manifest);
    EXPECT_TRUE(sharded.ok()) << sharded.status().ToString();
    return std::make_unique<ShardedSource>(std::move(sharded).value());
  }
};

TEST(DeliveryAuditTest, EveryBlockOnceWholeWithTheSnapshotsBytes) {
  AuditSources sources;
  const std::vector<std::pair<const char*, const PointSource*>> cases = {
      {"memory", sources.memory.get()},
      {"disk", sources.disk.get()},
      {"4 aligned shards", sources.aligned.get()},
      {"4 unaligned shards", sources.unaligned.get()}};
  for (const auto& [name, source] : cases) {
    for (size_t block_rows : {7, 256, 8192}) {
      for (size_t threads : {1, 2, 7, 16}) {
        SCOPED_TRACE(std::string(name) + ", block_rows " +
                     std::to_string(block_rows) + ", threads " +
                     std::to_string(threads));
        ScanOptions options;
        options.block_rows = block_rows;
        options.num_threads = threads;
        AuditConsumer audit;
        ASSERT_TRUE(ScanExecutor(options).Run(*source, {&audit}).ok());
        EXPECT_EQ(audit.merges(), 1u);
        ExpectAudited(audit, sources.ds, block_rows);
      }
    }
  }
}

TEST(DeliveryAuditTest, SurvivedFaultsDeliverEveryBlockOnceWhole) {
  AuditSources sources;
  FaultInjectingPointSource faulty_memory(*sources.memory, SurvivablePlan(3));
  FaultInjectingPointSource faulty_disk(*sources.disk, SurvivablePlan(5));
  FaultInjectingPointSource faulty_aligned(*sources.aligned,
                                           SurvivablePlan(7));
  const std::vector<std::pair<const char*, const PointSource*>> cases = {
      {"faulty memory", &faulty_memory},
      {"faulty disk", &faulty_disk},
      {"faulty aligned shard set", &faulty_aligned},
      {"unaligned shards, each faulty", sources.faulty_shards.get()}};
  RunStats stats;
  for (const auto& [name, source] : cases) {
    for (size_t block_rows : {7, 256, 8192}) {
      for (size_t threads : {1, 2, 7, 16}) {
        SCOPED_TRACE(std::string(name) + ", block_rows " +
                     std::to_string(block_rows) + ", threads " +
                     std::to_string(threads));
        ScanOptions options;
        options.block_rows = block_rows;
        options.num_threads = threads;
        // Each injector forces a read through after max_consecutive = 2
        // faults in a row. A block read from k faulty shards fails when
        // any of its k reads does, and a clean read starts its shard's run
        // afresh, so the block may need (2 + 1)^k attempts: 81 for the
        // 8192-row block, which spans all four shards.
        options.retry.max_attempts = 81;
        options.stats = &stats;
        AuditConsumer audit;
        const Status status = ScanExecutor(options).Run(*source, {&audit});
        ASSERT_TRUE(status.ok()) << status.ToString();
        EXPECT_EQ(audit.merges(), 1u);
        ExpectAudited(audit, sources.ds, block_rows);
      }
    }
  }
  // The plans fired: reads failed, were retried, and short reads handed
  // over part of a block that was never consumed.
  EXPECT_GT(stats.failed_scans, 0u);
  EXPECT_GT(stats.retries, 0u);
  EXPECT_GT(stats.wasted_rows, 0u);
  EXPECT_GT(faulty_disk.fault_counters().injected_short_reads, 0u);
  EXPECT_GT(faulty_disk.fault_counters().injected_corruptions, 0u);
}

TEST(DeliveryAuditTest, ExhaustedRetriesMergeAndCommitNothing) {
  AuditSources sources;
  MemorySource whole(sources.ds);
  auto medoids = whole.Fetch(std::vector<size_t>{1, 1500, 2999});
  ASSERT_TRUE(medoids.ok());
  const std::vector<DimensionSet> dims = {DimensionSet(kDims, {0, 2}),
                                          DimensionSet(kDims, {1, 3, 4}),
                                          DimensionSet(kDims, {0, 4})};
  const std::vector<size_t> slots = {4, 5, 6};
  struct Case {
    const char* name;
    FaultPlan plan;
    StatusCode code;
  };
  FaultPlan fail;
  fail.fail_rate = 1.0;
  fail.max_consecutive = 100;
  FaultPlan corrupt;
  corrupt.corrupt_rate = 1.0;
  corrupt.max_consecutive = 100;
  FaultPlan short_read;
  short_read.short_read_rate = 1.0;
  short_read.max_consecutive = 100;
  const Case cases[] = {{"transient failure", fail, StatusCode::kIOError},
                        {"corruption", corrupt, StatusCode::kDataLoss},
                        {"short read", short_read, StatusCode::kIOError}};
  for (const Case& c : cases) {
    for (size_t threads : {1, 7}) {
      SCOPED_TRACE(std::string(c.name) + ", threads " +
                   std::to_string(threads));
      FaultInjectingPointSource faulty(*sources.disk, c.plan);
      ScanOptions options;
      options.block_rows = 256;
      options.num_threads = threads;
      options.retry.max_attempts = 2;
      MedoidDistanceCache cache;
      AssignConsumer assign;
      ASSERT_TRUE(assign
                      .Bind(&*medoids, &dims, true, true,
                            std::span<const size_t>(slots), &cache)
                      .ok());
      AuditConsumer audit;
      const Status status =
          ScanExecutor(options).Run(faulty, {&audit, &assign});
      EXPECT_EQ(status.code(), c.code) << status.ToString();
      EXPECT_EQ(audit.merges(), 0u);
      for (const MedoidDistanceCache::Entry& entry : cache.entries)
        EXPECT_FALSE(entry.valid) << "slot " << entry.slot;
    }
  }
}

}  // namespace
}  // namespace proclus
