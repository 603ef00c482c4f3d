#include "common/parallel.h"

#include <atomic>
#include <limits>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

namespace proclus {
namespace {

TEST(BlockCountTest, Rounding) {
  EXPECT_EQ(BlockCount(0, 10), 0u);
  EXPECT_EQ(BlockCount(1, 10), 1u);
  EXPECT_EQ(BlockCount(10, 10), 1u);
  EXPECT_EQ(BlockCount(11, 10), 2u);
  EXPECT_EQ(BlockCount(100, 10), 10u);
}

TEST(BlockCountTest, HugeBlockSizesDoNotWrap) {
  // Rounding up as (total + block_size - 1) / block_size wraps to zero
  // blocks once block_size > SIZE_MAX - total + 1.
  constexpr size_t kMax = std::numeric_limits<size_t>::max();
  EXPECT_EQ(BlockCount(3000, kMax), 1u);
  EXPECT_EQ(BlockCount(3000, kMax - 1), 1u);
  EXPECT_EQ(BlockCount(3000, size_t{1} << 40), 1u);
  EXPECT_EQ(BlockCount(0, kMax), 0u);
  EXPECT_EQ(BlockCount(1, kMax), 1u);
  EXPECT_EQ(BlockCount(kMax, kMax), 1u);
  EXPECT_EQ(BlockCount(kMax, kMax - 1), 2u);
  EXPECT_EQ(BlockCount(kMax, 1), kMax);
  EXPECT_EQ(BlockCount(kMax, 2), kMax / 2 + 1);
}

TEST(ParallelBlocksTest, CoversAllItemsExactlyOnce) {
  const size_t total = 1000;
  std::vector<std::atomic<int>> touched(total);
  ParallelBlocks(total, 64, 4,
                 [&](size_t, size_t first, size_t count) {
                   for (size_t i = first; i < first + count; ++i)
                     ++touched[i];
                 });
  for (size_t i = 0; i < total; ++i) EXPECT_EQ(touched[i].load(), 1);
}

TEST(ParallelBlocksTest, BlockIndicesConsistent) {
  std::vector<int> seen(BlockCount(500, 100), 0);
  ParallelBlocks(500, 100, 3,
                 [&](size_t block, size_t first, size_t count) {
                   EXPECT_EQ(block, first / 100);
                   EXPECT_LE(count, 100u);
                   seen[block] = static_cast<int>(count);
                 });
  for (int count : seen) EXPECT_GT(count, 0);
}

TEST(ParallelBlocksTest, LastBlockIsPartial) {
  std::vector<size_t> counts;
  ParallelBlocks(25, 10, 1, [&](size_t, size_t, size_t count) {
    counts.push_back(count);
  });
  EXPECT_EQ(counts, (std::vector<size_t>{10, 10, 5}));
}

TEST(ParallelBlocksTest, ZeroTotalIsNoop) {
  bool called = false;
  ParallelBlocks(0, 10, 4, [&](size_t, size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelBlocksTest, ZeroThreadsTreatedAsOne) {
  int calls = 0;
  ParallelBlocks(30, 10, 0, [&](size_t, size_t, size_t) { ++calls; });
  EXPECT_EQ(calls, 3);
}

TEST(ParallelBlocksTest, DeterministicSumsViaBlockOrderedMerge) {
  // The intended usage pattern: per-block partials merged in block
  // order give bit-identical results for any thread count.
  const size_t total = 100000;
  std::vector<double> values(total);
  for (size_t i = 0; i < total; ++i)
    values[i] = 1.0 / static_cast<double>(i + 1);

  auto run = [&](size_t threads) {
    const size_t block_size = 1024;
    std::vector<double> partials(BlockCount(total, block_size), 0.0);
    ParallelBlocks(total, block_size, threads,
                   [&](size_t block, size_t first, size_t count) {
                     double sum = 0.0;
                     for (size_t i = first; i < first + count; ++i)
                       sum += values[i];
                     partials[block] = sum;
                   });
    double result = 0.0;
    for (double partial : partials) result += partial;
    return result;
  };
  double sequential = run(1);
  for (size_t threads : {2, 4, 8}) {
    EXPECT_EQ(run(threads), sequential) << threads << " threads";
  }
}

}  // namespace
}  // namespace proclus
