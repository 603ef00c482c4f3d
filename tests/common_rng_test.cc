#include "common/rng.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <set>
#include <vector>

#include <gtest/gtest.h>

namespace proclus {
namespace {

TEST(SplitMix64Test, KnownSequenceIsDeterministic) {
  SplitMix64 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

// Known answers, computed by an independent transcription of SplitMix64
// seeding, xoshiro256** and Lemire's bounded draw (SplitMix64(0)'s first
// output is the published 0xe220a8397b1dcdaf). The reference PROCLUS in
// tests/reference_proclus.h shares this stream with the library, so it is
// pinned here rather than only compared with itself.
TEST(RngTest, KnownAnswerStream) {
  EXPECT_EQ(SplitMix64(0).Next(), 0xe220a8397b1dcdafULL);
  Rng raw(1);
  EXPECT_EQ(raw.Next(), 0xb3f2af6d0fc710c5ULL);
  EXPECT_EQ(raw.Next(), 0x853b559647364ceaULL);
  EXPECT_EQ(raw.Next(), 0x92f89756082a4514ULL);
  Rng bounded(7);
  for (uint64_t want : {7, 2, 8, 9, 9})
    EXPECT_EQ(bounded.UniformInt(10), want);
  Rng shuffler(7);
  std::vector<int> v{0, 1, 2, 3, 4, 5};
  shuffler.Shuffle(v);
  EXPECT_EQ(v, (std::vector<int>{0, 5, 2, 3, 1, 4}));
  Rng sampler(7);
  EXPECT_EQ(sampler.SampleWithoutReplacement(10, 4),
            (std::vector<size_t>{7, 3, 8, 9}));
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.Next() == b.Next()) ++same;
  EXPECT_LT(same, 3);
}

TEST(RngTest, ReseedRestartsStream) {
  Rng a(99);
  std::vector<uint64_t> first;
  for (int i = 0; i < 10; ++i) first.push_back(a.Next());
  a.Reseed(99);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.Next(), first[i]);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.UniformDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformDoubleMeanAndVariance) {
  Rng rng(11);
  const int n = 200000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    double u = rng.UniformDouble();
    sum += u;
    sum2 += u * u;
  }
  double mean = sum / n;
  double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.5, 0.005);
  EXPECT_NEAR(var, 1.0 / 12.0, 0.005);
}

TEST(RngTest, UniformIntRespectsBound) {
  Rng rng(5);
  for (uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.UniformInt(bound), bound);
  }
}

TEST(RngTest, UniformIntCoversAllValues) {
  Rng rng(17);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(uint64_t{10}));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, UniformIntRangeInclusive) {
  Rng rng(23);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformInt(int64_t{-3}, int64_t{3});
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    if (v == -3) saw_lo = true;
    if (v == 3) saw_hi = true;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NormalMomentsMatch) {
  Rng rng(29);
  const int n = 200000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    double x = rng.Normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  EXPECT_NEAR(sum2 / n, 1.0, 0.02);
}

TEST(RngTest, NormalWithParamsShiftsAndScales) {
  Rng rng(31);
  const int n = 100000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    double x = rng.Normal(10.0, 3.0);
    sum += x;
    sum2 += x * x;
  }
  double mean = sum / n;
  double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(var, 9.0, 0.2);
}

TEST(RngTest, ExponentialMeanMatches) {
  Rng rng(37);
  const int n = 200000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    double x = rng.Exponential(2.5);
    EXPECT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 2.5, 0.03);
}

class PoissonMeanTest : public ::testing::TestWithParam<double> {};

TEST_P(PoissonMeanTest, MeanAndVarianceMatch) {
  const double lambda = GetParam();
  Rng rng(41);
  const int n = 100000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    int x = rng.Poisson(lambda);
    ASSERT_GE(x, 0);
    sum += x;
    sum2 += static_cast<double>(x) * x;
  }
  double mean = sum / n;
  double var = sum2 / n - mean * mean;
  // Poisson: mean == variance == lambda.
  EXPECT_NEAR(mean, lambda, std::max(0.05, lambda * 0.03));
  EXPECT_NEAR(var, lambda, std::max(0.15, lambda * 0.08));
}

INSTANTIATE_TEST_SUITE_P(Lambdas, PoissonMeanTest,
                         ::testing::Values(0.5, 2.0, 7.0, 25.0, 40.0, 100.0));

TEST(RngTest, PoissonZeroMeanIsZero) {
  Rng rng(43);
  EXPECT_EQ(rng.Poisson(0.0), 0);
}

TEST(RngTest, PoissonSaturatesAtIntMax) {
  // From a mean near 2^31 on, the draw used to be converted to int out of
  // range; on x86-64 it came back negative, so a generator asked for
  // Poisson(3e9) cluster dimensionalities gave every cluster 2 dimensions
  // instead of all of them.
  Rng rng(43);
  for (double mean : {3e9, 1e18, 1e300})
    EXPECT_EQ(rng.Poisson(mean), std::numeric_limits<int>::max()) << mean;
  EXPECT_LT(rng.Poisson(1e9), std::numeric_limits<int>::max());
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(47);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  std::vector<int> orig = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(RngTest, ShuffleActuallyPermutes) {
  Rng rng(53);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  rng.Shuffle(v);
  bool moved = false;
  for (int i = 0; i < 100; ++i)
    if (v[static_cast<size_t>(i)] != i) moved = true;
  EXPECT_TRUE(moved);
}

class SampleWithoutReplacementTest
    : public ::testing::TestWithParam<std::pair<size_t, size_t>> {};

TEST_P(SampleWithoutReplacementTest, DistinctAndInRange) {
  auto [n, k] = GetParam();
  Rng rng(59);
  std::vector<size_t> sample = rng.SampleWithoutReplacement(n, k);
  EXPECT_EQ(sample.size(), k);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), k);
  for (size_t idx : sample) EXPECT_LT(idx, n);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SampleWithoutReplacementTest,
    ::testing::Values(std::pair<size_t, size_t>{10, 0},
                      std::pair<size_t, size_t>{10, 1},
                      std::pair<size_t, size_t>{10, 10},
                      std::pair<size_t, size_t>{100, 5},
                      std::pair<size_t, size_t>{100, 80},
                      std::pair<size_t, size_t>{100000, 50}));

TEST(RngTest, SampleWithoutReplacementIsUniform) {
  // Each element of [0, 10) should appear in a size-3 sample with
  // probability 3/10.
  Rng rng(61);
  std::vector<int> hits(10, 0);
  const int trials = 30000;
  for (int t = 0; t < trials; ++t) {
    for (size_t idx : rng.SampleWithoutReplacement(10, 3))
      ++hits[idx];
  }
  for (int h : hits)
    EXPECT_NEAR(static_cast<double>(h) / trials, 0.3, 0.02);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(67);
  Rng child = parent.Fork();
  // Parent and child streams should not coincide.
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (parent.Next() == child.Next()) ++same;
  EXPECT_LT(same, 3);
}

TEST(RngTest, BernoulliProbability) {
  Rng rng(71);
  const int n = 100000;
  int yes = 0;
  for (int i = 0; i < n; ++i)
    if (rng.Bernoulli(0.3)) ++yes;
  EXPECT_NEAR(static_cast<double>(yes) / n, 0.3, 0.01);
}

}  // namespace
}  // namespace proclus
