// Concurrency stress tests for cooperative cancellation (run under the
// tsan preset via the `parallel` label):
//
//  * Cancel() racing a running scan — across thread counts {1, 2, 7, 16}
//    and source types {memory, disk, sharded} — always yields OK or
//    kCancelled, never a crash, a hang, or a torn result; the consumer
//    and the global ThreadPool remain fully usable afterwards, and the
//    next clean run reproduces the reference bits.
//  * Cancel() racing a DiskSource scan mid-read.
//  * A deadline (or a cross-thread Cancel()) interrupting the retry
//    backoff sleep of a permanently failing source.
//  * Hedged shard re-scans under concurrent shard workers stay
//    bit-identical and data-race-free.
//  * A fused PROCLUS fit cancelled from another thread mid-run leaves
//    the process able to run the next fit cleanly.

#include "common/cancel.h"

#include <gtest/gtest.h>

#include "test_temp.h"

#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/proclus.h"
#include "data/binary_io.h"
#include "data/engine.h"
#include "data/fault_source.h"
#include "data/sharded_source.h"

namespace proclus {
namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;
using std::chrono::steady_clock;

Dataset RandomDataset(size_t n, size_t d, uint64_t seed = 5) {
  Rng rng(seed);
  Matrix m(n, d);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < d; ++j) m(i, j) = rng.Uniform(-100, 100);
  return Dataset(std::move(m));
}

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

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

// One cancelled-or-completed run followed by a clean verification run on
// the SAME consumer and executor configuration: whatever the race
// decided, the next run must reproduce `expected_bits` exactly.
void RaceOnceThenVerifyClean(const PointSource& source, size_t num_threads,
                             microseconds cancel_delay,
                             uint64_t expected_bits, size_t expected_rows) {
  CancelToken token;
  ScanOptions racing;
  racing.num_threads = num_threads;
  racing.block_rows = 256;
  racing.cancel.token = &token;
  SumConsumer consumer;
  std::thread canceller([&token, cancel_delay] {
    std::this_thread::sleep_for(cancel_delay);
    token.Cancel();
  });
  Status status = ScanExecutor(racing).Run(source, {&consumer});
  canceller.join();
  // The race has exactly two legal outcomes.
  EXPECT_TRUE(status.ok() || status.code() == StatusCode::kCancelled)
      << status.ToString();
  if (status.ok()) {
    EXPECT_EQ(Bits(consumer.total()), expected_bits);
    EXPECT_EQ(consumer.rows(), expected_rows);
  }

  // Clean run, same consumer, same thread count: the cancelled attempt
  // (and the pool workers it used) must leave no trace.
  ScanOptions clean;
  clean.num_threads = num_threads;
  clean.block_rows = 256;
  ASSERT_TRUE(ScanExecutor(clean).Run(source, {&consumer}).ok());
  EXPECT_EQ(Bits(consumer.total()), expected_bits);
  EXPECT_EQ(consumer.rows(), expected_rows);
}

TEST(CancelStressTest, CancelRaceMatrixAcrossThreadsAndSources) {
  Dataset ds = RandomDataset(4096, 6, 41);
  MemorySource memory(ds);
  const std::string path = TestTempPath("cancel_stress.bin");
  ASSERT_TRUE(WriteBinaryFile(ds, path).ok());
  auto disk = DiskSource::Open(path);
  ASSERT_TRUE(disk.ok());
  auto sharded = ShardedSource::FromDataset(ds, 4, 256);
  ASSERT_TRUE(sharded.ok());

  // Reference bits from a sequential in-memory scan; every configuration
  // below must reproduce them whenever it completes.
  SumConsumer reference;
  ScanOptions base;
  base.block_rows = 256;
  ASSERT_TRUE(ScanExecutor(base).Run(memory, {&reference}).ok());
  const uint64_t expected = Bits(reference.total());

  const PointSource* sources[] = {&memory, &*disk, &*sharded};
  const char* names[] = {"memory", "disk", "sharded"};
  const size_t thread_counts[] = {1, 2, 7, 16};
  // Delays straddle the scan duration so the cancellation lands before,
  // during, and after the scan across the matrix.
  const microseconds delays[] = {microseconds(0), microseconds(200),
                                 microseconds(1000), microseconds(5000)};
  for (size_t s = 0; s < 3; ++s) {
    for (size_t threads : thread_counts) {
      for (microseconds delay : delays) {
        SCOPED_TRACE(std::string(names[s]) + "/" +
                     std::to_string(threads) + "t/" +
                     std::to_string(delay.count()) + "us");
        RaceOnceThenVerifyClean(*sources[s], threads, delay, expected,
                                4096u);
      }
    }
  }
}

TEST(CancelStressTest, CancelRacesThePrefetchProducer) {
  Dataset ds = RandomDataset(8192, 4, 43);
  const std::string path = TestTempPath("cancel_prefetch.bin");
  ASSERT_TRUE(WriteBinaryFile(ds, path).ok());
  auto disk = DiskSource::Open(path);
  ASSERT_TRUE(disk.ok());

  uint64_t completed = 0;
  for (int round = 0; round < 16; ++round) {
    CancelToken token;
    std::thread canceller([&token, round] {
      std::this_thread::sleep_for(microseconds(100 * round));
      token.Cancel();
    });
    // Block by block, one Scan each, as the executor reads; the first
    // cancelled read ends the scan.
    size_t rows_delivered = 0;
    Status status;
    for (size_t first = 0; first < 8192 && status.ok(); first += 512) {
      ScanSpec spec;
      spec.first_row = first;
      spec.end_row = first + 512;
      spec.cancel.token = &token;
      status = disk->Scan(
          spec, [&rows_delivered](size_t, std::span<const double>,
                                  size_t rows) { rows_delivered += rows; });
    }
    canceller.join();
    ASSERT_TRUE(status.ok() || status.code() == StatusCode::kCancelled)
        << status.ToString();
    if (status.ok()) {
      EXPECT_EQ(rows_delivered, 8192u);
      ++completed;
    } else {
      // A cancelled read delivers nothing of its block.
      EXPECT_LT(rows_delivered, 8192u);
      EXPECT_EQ(rows_delivered % 512, 0u);
    }
    // The thread's read buffer is released before Scan returns either
    // way; the next read must start from a clean slate.
    size_t verify_rows = 0;
    ASSERT_TRUE(disk->Scan({}, [&verify_rows](size_t,
                                              std::span<const double>,
                                              size_t rows) {
      verify_rows += rows;
    }).ok());
    EXPECT_EQ(verify_rows, 8192u);
  }
  (void)completed;  // Any mix of outcomes is legal; the race decides.
}

TEST(CancelStressTest, DeadlineInterruptsRetryBackoff) {
  Dataset ds = RandomDataset(512, 4, 47);
  MemorySource memory(ds);
  FaultPlan plan;
  plan.fail_rate = 1.0;
  plan.max_consecutive = 100;  // Never force progress.
  FaultInjectingPointSource failing(memory, plan);

  RunStats stats;
  ScanOptions options;
  options.block_rows = 128;
  options.stats = &stats;
  options.retry.max_attempts = 4;
  // An hour-long backoff: only an interruptible sleep lets the deadline
  // end the run within the test timeout.
  options.retry.backoff_base = microseconds(3600000000LL);
  options.retry.backoff_cap = microseconds(3600000000LL);
  options.cancel.deadline = Deadline::After(milliseconds(50));

  SumConsumer consumer;
  const auto start = steady_clock::now();
  Status status = ScanExecutor(options).Run(failing, {&consumer});
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(steady_clock::now() - start, std::chrono::minutes(5));
  EXPECT_GE(stats.failed_scans, 1u);  // The transient failure came first.
}

TEST(CancelStressTest, CrossThreadCancelInterruptsRetryBackoff) {
  Dataset ds = RandomDataset(512, 4, 47);
  MemorySource memory(ds);
  FaultPlan plan;
  plan.fail_rate = 1.0;
  plan.max_consecutive = 100;
  FaultInjectingPointSource failing(memory, plan);

  CancelToken token;
  ScanOptions options;
  options.block_rows = 128;
  options.retry.max_attempts = 4;
  options.retry.backoff_base = microseconds(3600000000LL);
  options.retry.backoff_cap = microseconds(3600000000LL);
  options.cancel.token = &token;

  std::thread canceller([&token] {
    std::this_thread::sleep_for(milliseconds(20));
    token.Cancel();
  });
  SumConsumer consumer;
  const auto start = steady_clock::now();
  Status status = ScanExecutor(options).Run(failing, {&consumer});
  canceller.join();
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  EXPECT_LT(steady_clock::now() - start, std::chrono::minutes(5));
}

TEST(CancelStressTest, HedgingStaysBitIdenticalUnderConcurrentShards) {
  Dataset ds = RandomDataset(4096, 6, 53);
  MemorySource whole(ds);
  SumConsumer reference;
  ScanOptions base;
  base.block_rows = 256;
  ASSERT_TRUE(ScanExecutor(base).Run(whole, {&reference}).ok());

  // Two of four shards stall on every read; block reads run concurrently
  // on the pool, so hedged re-reads interleave with live first reads of
  // other blocks — the race TSan must find harmless.
  std::vector<std::unique_ptr<PointSource>> decorated;
  std::vector<std::unique_ptr<PointSource>> slices;
  const size_t shard_rows = 1024;
  for (size_t s = 0; s < 4; ++s) {
    slices.push_back(std::make_unique<MemorySource>(
        ds, s * shard_rows, shard_rows));
    FaultPlan plan;
    plan.seed = 100 + s;
    if (s % 2 == 1) {
      plan.stall_rate = 1.0;
      plan.stall = microseconds(30000);
    }
    decorated.push_back(std::make_unique<FaultInjectingPointSource>(
        *slices.back(), plan));
  }
  auto sharded = ShardedSource::Create(std::move(decorated));
  ASSERT_TRUE(sharded.ok());

  for (size_t threads : {2u, 7u}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    RunStats stats;
    ScanOptions options;
    options.num_threads = threads;
    options.block_rows = 256;
    options.stats = &stats;
    options.shard_soft_deadline = microseconds(8000);
    options.max_hedges_per_shard = 1;
    SumConsumer consumer;
    ASSERT_TRUE(
        ScanExecutor(options).Run(*sharded, {&consumer}).ok());
    EXPECT_EQ(Bits(consumer.total()), Bits(reference.total()));
    EXPECT_EQ(consumer.rows(), 4096u);
    EXPECT_GE(stats.hedged_scans, 2u);  // Both stalled shards hedged.
    EXPECT_EQ(stats.failed_scans, 0u);
  }
}

TEST(CancelStressTest, CancelDuringFusedFitLeavesACleanProcess) {
  Dataset ds = RandomDataset(4096, 8, 59);

  ProclusParams params;
  params.num_clusters = 3;
  params.avg_dims = 3.0;
  params.seed = 5;
  params.num_restarts = 1;
  params.max_iterations = 12;
  params.block_rows = 256;
  params.num_threads = 4;
  auto baseline = RunProclus(ds, params);
  ASSERT_TRUE(baseline.ok());

  for (int round = 0; round < 4; ++round) {
    CancelToken token;
    ProclusParams racing = params;
    racing.cancel.token = &token;
    std::thread canceller([&token, round] {
      std::this_thread::sleep_for(milliseconds(2 * round));
      token.Cancel();
    });
    auto result = RunProclus(ds, racing);
    canceller.join();
    ASSERT_TRUE(result.ok() ||
                result.status().code() == StatusCode::kCancelled)
        << result.status().ToString();

    // Whatever the race did to the pool workers mid-fit, a clean fit
    // right after must reproduce the baseline bits.
    auto clean = RunProclus(ds, params);
    ASSERT_TRUE(clean.ok());
    EXPECT_EQ(Bits(clean->objective), Bits(baseline->objective));
    EXPECT_EQ(clean->labels, baseline->labels);
    EXPECT_EQ(clean->medoids, baseline->medoids);
  }
}

}  // namespace
}  // namespace proclus
