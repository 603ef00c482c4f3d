// Resilience tests for the fault-injection layer:
//
//  * The FaultPlan schedule is deterministic: same seed + same operation
//    sequence = same injected faults, every time.
//  * ScanExecutor::Run absorbs injected transient failures under a retry
//    policy with bit-identical results, while RunStats records the
//    retries, failed attempts, and wasted rows.
//  * Retry exhaustion, forced progress via max_consecutive, and the
//    kill_after_ops permanent-failure switch behave as specified.
//  * The acceptance bar of the resilience layer: a full PROCLUS run over
//    a disk-resident source with FaultPlan{fail_rate=0.05,
//    corrupt_rate=0.01} completes bit-identically to the fault-free run,
//    with RunStats.retries > 0.
//  * PointSource counters stay exact under concurrent Scan/Fetch (run
//    under the tsan preset via the `fault` label).

#include "data/fault_source.h"

#include <gtest/gtest.h>

#include "test_temp.h"

#include <cstring>
#include <thread>
#include <vector>

#include "baselines/kmeans.h"
#include "common/rng.h"
#include "core/proclus.h"
#include "data/binary_io.h"
#include "data/engine.h"
#include "gen/synthetic.h"

namespace proclus {
namespace {

Dataset RandomDataset(size_t n, size_t d, uint64_t seed = 5) {
  Rng rng(seed);
  Matrix m(n, d);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < d; ++j) m(i, j) = rng.Uniform(-100, 100);
  return Dataset(std::move(m));
}

// Reads rows [first, end) in one Scan, discarding them.
Status ReadBlock(const PointSource& source, size_t first, size_t end) {
  return source.Scan({.first_row = first, .end_row = end},
                     [](size_t, std::span<const double>, size_t) {});
}

uint64_t ObjectiveBits(double objective) {
  uint64_t bits = 0;
  std::memcpy(&bits, &objective, sizeof(bits));
  return bits;
}

// Minimal consumer: per-block sums merged in block order; Prepare fully
// re-initializes the partials, as the executor's contract requires.
class SumConsumer final : public ScanConsumer {
 public:
  Status Prepare(const ScanGeometry& geometry) override {
    partials_.assign(geometry.num_blocks, 0.0);
    rows_seen_.assign(geometry.num_blocks, 0);
    return Status::OK();
  }
  void ConsumeBlock(size_t block_index, size_t /*first_row*/,
                    std::span<const double> data, size_t rows) override {
    double sum = 0.0;
    for (double v : data) sum += v;
    partials_[block_index] = sum;
    rows_seen_[block_index] = rows;
  }
  Status Merge() override {
    total_ = 0.0;
    rows_ = 0;
    for (double v : partials_) total_ += v;
    for (size_t r : rows_seen_) rows_ += r;
    return Status::OK();
  }
  double total() const { return total_; }
  size_t rows() const { return rows_; }

 private:
  std::vector<double> partials_;
  std::vector<size_t> rows_seen_;
  double total_ = 0.0;
  size_t rows_ = 0;
};

TEST(FaultScheduleTest, SameSeedSameOperationsSameFaults) {
  Dataset ds = RandomDataset(500, 4);
  MemorySource inner(ds);
  FaultPlan plan;
  plan.seed = 42;
  plan.fail_rate = 0.3;
  plan.corrupt_rate = 0.2;
  plan.short_read_rate = 0.2;
  plan.max_consecutive = 3;

  auto run_sequence = [&](std::vector<StatusCode>* codes) {
    FaultInjectingPointSource faulty(inner, plan);
    for (int op = 0; op < 60; ++op) {
      if (op % 3 == 2) {
        std::vector<size_t> indices{1, 7};
        codes->push_back(faulty.Fetch(indices).status().code());
      } else {
        codes->push_back(ReadBlock(faulty, 0, 64).code());
      }
    }
    return faulty.fault_counters();
  };

  std::vector<StatusCode> first_codes, second_codes;
  FaultCounters first = run_sequence(&first_codes);
  FaultCounters second = run_sequence(&second_codes);

  EXPECT_EQ(first_codes, second_codes);
  EXPECT_EQ(first.operations, second.operations);
  EXPECT_EQ(first.injected_scan_faults, second.injected_scan_faults);
  EXPECT_EQ(first.injected_fetch_faults, second.injected_fetch_faults);
  EXPECT_EQ(first.injected_corruptions, second.injected_corruptions);
  EXPECT_EQ(first.injected_short_reads, second.injected_short_reads);
  // The rates are high enough that this schedule must inject something.
  EXPECT_GT(first.injected_scan_faults + first.injected_fetch_faults, 0u);
}

TEST(FaultScheduleTest, ZeroRatesInjectNothing) {
  Dataset ds = RandomDataset(100, 3);
  MemorySource inner(ds);
  FaultInjectingPointSource faulty(inner, FaultPlan{});
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(ReadBlock(faulty, 10 * i, 10 * i + 10).ok());
  }
  FaultCounters counters = faulty.fault_counters();
  EXPECT_EQ(counters.operations, 10u);
  EXPECT_EQ(counters.injected_scan_faults, 0u);
  EXPECT_EQ(counters.injected_fetch_faults, 0u);
}

TEST(FaultExecutorTest, RetriesAbsorbFaultsBitIdentically) {
  Dataset ds = RandomDataset(1000, 5, 17);
  MemorySource inner(ds);

  // Clean reference value.
  SumConsumer clean;
  ScanExecutor plain(ScanOptions{1, 100, nullptr});
  ASSERT_TRUE(plain.Run(inner, {&clean}).ok());

  FaultPlan plan;
  plan.seed = 9;
  plan.fail_rate = 0.4;
  plan.corrupt_rate = 0.2;
  plan.short_read_rate = 0.2;
  plan.max_consecutive = 2;
  FaultInjectingPointSource faulty(inner, plan);

  RunStats stats;
  ScanOptions options{1, 100, &stats};
  options.retry.max_attempts = 4;
  ScanExecutor executor(options);
  SumConsumer consumer;
  for (int run = 0; run < 30; ++run) {
    ASSERT_TRUE(executor.Run(faulty, {&consumer}).ok()) << "run " << run;
    // Survived faults never change results: exact bit equality, and every
    // row of the final successful attempt was delivered exactly once.
    EXPECT_EQ(consumer.total(), clean.total());
    EXPECT_EQ(consumer.rows(), 1000u);
  }
  // With these rates, faults must have been injected, retried, and at
  // least one short read must have delivered part of its block, which
  // the executor refused to consume.
  EXPECT_GT(stats.retries, 0u);
  EXPECT_GT(stats.failed_scans, 0u);
  EXPECT_GT(stats.wasted_rows, 0u);
  EXPECT_EQ(stats.scans_issued, 30u);
  EXPECT_GT(faulty.fault_counters().absorbed, 0u);
}

TEST(FaultExecutorTest, RetryExhaustionSurfacesTheFailure) {
  Dataset ds = RandomDataset(200, 3);
  MemorySource inner(ds);
  FaultPlan plan;
  plan.fail_rate = 1.0;
  plan.max_consecutive = 100;  // Never force progress.
  FaultInjectingPointSource faulty(inner, plan);

  RunStats stats;
  ScanOptions options{1, 50, &stats};
  options.retry.max_attempts = 3;
  ScanExecutor executor(options);
  SumConsumer consumer;
  Status status = executor.Run(faulty, {&consumer});
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  // Every block read that ran out spent all 3 attempts (2 retries). The
  // first one stops the scan; the other of the two workers (2T at
  // num_threads = 1) may run out on its own block meanwhile.
  EXPECT_EQ(stats.failed_scans % 3, 0u);
  EXPECT_GE(stats.failed_scans, 3u);
  EXPECT_LE(stats.failed_scans, 6u);
  EXPECT_EQ(stats.retries, stats.failed_scans / 3 * 2);
  EXPECT_EQ(stats.scans_issued, 0u);  // The scan never completed.
}

TEST(FaultExecutorTest, MaxConsecutiveForcesProgress) {
  Dataset ds = RandomDataset(200, 3);
  MemorySource inner(ds);
  FaultPlan plan;
  plan.fail_rate = 1.0;  // Every operation wants to fail...
  plan.max_consecutive = 2;  // ...but at most 2 in a row may.
  FaultInjectingPointSource faulty(inner, plan);

  RunStats stats;
  ScanOptions options{1, 50, &stats};
  options.retry.max_attempts = 4;  // > max_consecutive: must converge.
  ScanExecutor executor(options);
  SumConsumer consumer;
  ASSERT_TRUE(executor.Run(faulty, {&consumer}).ok());
  // Each of the 4 block reads fails twice, then is forced through.
  EXPECT_EQ(stats.retries, 4u * 2);
  EXPECT_EQ(faulty.fault_counters().absorbed, 4u * 2);
}

TEST(FaultExecutorTest, KillAfterOpsIsPermanent) {
  Dataset ds = RandomDataset(200, 3);
  MemorySource inner(ds);
  // One operation is one block read: a scan of 200 rows in blocks of 50
  // takes 4.
  FaultPlan plan;
  plan.kill_after_ops = 2 * 4;
  FaultInjectingPointSource faulty(inner, plan);

  RunStats stats;
  ScanOptions options{1, 50, &stats};
  options.retry.max_attempts = 4;
  ScanExecutor executor(options);
  SumConsumer consumer;
  // Operations 0 to 7, two whole scans, succeed untouched.
  ASSERT_TRUE(executor.Run(faulty, {&consumer}).ok());
  ASSERT_TRUE(executor.Run(faulty, {&consumer}).ok());
  // From operation 8 on, every attempt fails: the retry budget cannot
  // save a crashed source. Every block read that ran out consumed all
  // max_attempts; one or both of the two workers ran out.
  Status status = executor.Run(faulty, {&consumer});
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  EXPECT_EQ(stats.failed_scans % 4, 0u);
  EXPECT_GE(stats.failed_scans, 4u);
  EXPECT_LE(stats.failed_scans, 8u);
  EXPECT_EQ(stats.retries, stats.failed_scans / 4 * 3);
}

TEST(FaultFetchTest, FetchWithRetryMatchesCleanFetch) {
  Dataset ds = RandomDataset(300, 4, 23);
  MemorySource inner(ds);
  FaultPlan plan;
  plan.seed = 3;
  plan.fail_rate = 0.5;
  plan.corrupt_rate = 0.2;
  plan.max_consecutive = 2;
  FaultInjectingPointSource faulty(inner, plan);

  RetryPolicy retry;
  retry.max_attempts = 4;
  RunStats stats;
  std::vector<size_t> indices{1, 5, 7, 299};
  auto clean = inner.Fetch(indices);
  ASSERT_TRUE(clean.ok());
  for (int round = 0; round < 20; ++round) {
    auto fetched = FetchWithRetry(faulty, indices, retry, &stats);
    ASSERT_TRUE(fetched.ok()) << "round " << round;
    EXPECT_EQ(*fetched, *clean);
  }
  EXPECT_GT(stats.retries, 0u);
  EXPECT_GT(faulty.fault_counters().injected_fetch_faults, 0u);
}

TEST(FaultInjectionTest, ShortReadsDeliverTruncatedBlocks) {
  Dataset ds = RandomDataset(400, 2);
  MemorySource inner(ds);
  FaultPlan plan;
  plan.seed = 8;
  plan.short_read_rate = 1.0;
  plan.max_consecutive = 1;
  FaultInjectingPointSource faulty(inner, plan);

  // Operation 0 injects a short read: the block arrives with half the
  // rows asked for and the read fails.
  size_t delivered = 0;
  bool saw_truncated = false;
  Status status = faulty.Scan(
      {.first_row = 100, .end_row = 200},
      [&](size_t first, std::span<const double> data, size_t rows) {
        EXPECT_EQ(first, 100u);
        delivered += rows;
        if (rows < 100 && data.size() == rows * 2) saw_truncated = true;
      });
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  EXPECT_EQ(delivered, 50u);
  EXPECT_TRUE(saw_truncated);
  EXPECT_EQ(faulty.fault_counters().injected_short_reads, 1u);
}

// The acceptance bar of the resilience layer: PROCLUS over a
// disk-resident source behind FaultPlan{fail_rate=0.05,
// corrupt_rate=0.01} completes, retried at least once, and its result is
// bit-identical to the fault-free run.
TEST(FaultProclusTest, SurvivesInjectedFaultsBitIdentically) {
  GeneratorParams gen;
  gen.num_points = 2000;
  gen.space_dims = 8;
  gen.num_clusters = 3;
  gen.cluster_dim_counts = {3, 3, 3};
  gen.seed = 11;
  auto data = GenerateSynthetic(gen);
  ASSERT_TRUE(data.ok());
  const std::string path = TestTempPath("fault_proclus.bin");
  ASSERT_TRUE(WriteBinaryFile(data->dataset, path).ok());
  auto disk = DiskSource::Open(path);
  ASSERT_TRUE(disk.ok());

  ProclusParams params;
  params.num_clusters = 3;
  params.avg_dims = 3.0;
  params.seed = 5;
  params.num_restarts = 2;
  params.block_rows = 256;

  auto baseline = RunProclusOnSource(*disk, params);
  ASSERT_TRUE(baseline.ok());

  FaultPlan plan;
  plan.seed = 1;
  plan.fail_rate = 0.05;
  plan.corrupt_rate = 0.01;
  FaultInjectingPointSource faulty(*disk, plan);
  auto survived = RunProclusOnSource(faulty, params);
  ASSERT_TRUE(survived.ok()) << survived.status().ToString();

  EXPECT_EQ(ObjectiveBits(survived->objective),
            ObjectiveBits(baseline->objective));
  EXPECT_EQ(survived->labels, baseline->labels);
  EXPECT_EQ(survived->medoids, baseline->medoids);
  EXPECT_EQ(survived->iterations, baseline->iterations);
  EXPECT_EQ(survived->improvements, baseline->improvements);
  for (size_t i = 0; i < survived->dimensions.size(); ++i)
    EXPECT_EQ(survived->dimensions[i], baseline->dimensions[i]);

  // Faults actually happened and were absorbed by retries.
  EXPECT_GT(survived->stats.retries, 0u);
  EXPECT_GT(survived->stats.failed_scans, 0u);
  EXPECT_GT(faulty.fault_counters().injected_scan_faults +
                faulty.fault_counters().injected_fetch_faults,
            0u);
  EXPECT_GT(faulty.fault_counters().absorbed, 0u);
}

// k-means reads rows by position when it seeds its centers (and when it
// re-seeds an empty cluster). Those fetches are retried like its scans:
// over a source whose every read fails once, the fit matches the clean
// one bit for bit.
TEST(FaultKMeansTest, SurvivesFetchFaultsBitIdentically) {
  Dataset ds = RandomDataset(600, 5, 13);
  MemorySource inner(ds);
  for (bool plus_plus : {true, false}) {
    SCOPED_TRACE(plus_plus ? "k-means++ seeding" : "uniform seeding");
    KMeansParams params;
    params.num_clusters = 4;
    params.seed = 7;
    params.plus_plus_init = plus_plus;
    params.block_rows = 128;
    auto clean = RunKMeansOnSource(inner, params);
    ASSERT_TRUE(clean.ok());

    FaultPlan plan;
    plan.fail_rate = 1.0;
    plan.max_consecutive = 1;
    FaultInjectingPointSource faulty(inner, plan);
    auto survived = RunKMeansOnSource(faulty, params);
    ASSERT_TRUE(survived.ok()) << survived.status().ToString();
    EXPECT_EQ(survived->labels, clean->labels);
    EXPECT_EQ(ObjectiveBits(survived->inertia),
              ObjectiveBits(clean->inertia));
    EXPECT_EQ(survived->iterations, clean->iterations);
    ASSERT_EQ(survived->centroids.size(), clean->centroids.size());
    for (size_t c = 0; c < clean->centroids.size(); ++c)
      for (size_t j = 0; j < clean->centroids[c].size(); ++j)
        EXPECT_EQ(ObjectiveBits(survived->centroids[c][j]),
                  ObjectiveBits(clean->centroids[c][j]));
    EXPECT_GT(faulty.fault_counters().injected_fetch_faults, 0u);
    EXPECT_GT(survived->stats.retries, 0u);
  }
}

// Counter exactness under concurrency (meaningful under TSan, which runs
// the fault label): concurrent Scan/Fetch calls must neither lose nor
// double-count.
TEST(FaultConcurrencyTest, CountersExactUnderConcurrentAccess) {
  Dataset ds = RandomDataset(256, 4);
  MemorySource source(ds);
  FaultInjectingPointSource faulty(source, FaultPlan{});

  constexpr size_t kThreads = 8;
  constexpr size_t kScansPerThread = 25;
  constexpr size_t kFetchesPerThread = 25;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&faulty] {
      std::vector<size_t> indices{0, 100, 255};
      for (size_t i = 0; i < kScansPerThread; ++i) {
        ASSERT_TRUE(ReadBlock(faulty, 0, 256).ok());
      }
      for (size_t i = 0; i < kFetchesPerThread; ++i)
        ASSERT_TRUE(faulty.Fetch(indices).ok());
    });
  }
  for (std::thread& worker : workers) worker.join();

  IoCounters io = faulty.io();
  EXPECT_EQ(io.scans, kThreads * kScansPerThread);
  EXPECT_EQ(io.rows_scanned, kThreads * kScansPerThread * 256);
  EXPECT_EQ(io.rows_fetched, kThreads * kFetchesPerThread * 3);

  IoCounters inner_io = source.io();
  EXPECT_EQ(inner_io.scans, kThreads * kScansPerThread);
  EXPECT_EQ(inner_io.rows_fetched, kThreads * kFetchesPerThread * 3);

  FaultCounters counters = faulty.fault_counters();
  EXPECT_EQ(counters.operations,
            kThreads * (kScansPerThread + kFetchesPerThread));
  EXPECT_EQ(counters.injected_scan_faults, 0u);
  EXPECT_EQ(counters.injected_fetch_faults, 0u);
}

}  // namespace
}  // namespace proclus
