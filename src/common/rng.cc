#include "common/rng.h"

#include <algorithm>
#include <limits>
#include <unordered_set>

namespace proclus {

uint64_t Rng::UniformInt(uint64_t n) {
  PROCLUS_DCHECK(n > 0);
  // Lemire's method: multiply-shift with rejection to remove modulo bias.
  uint64_t x = Next();
  __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
  uint64_t l = static_cast<uint64_t>(m);
  if (l < n) {
    uint64_t t = -n % n;
    while (l < t) {
      x = Next();
      m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
      l = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

double Rng::Normal() {
  if (has_normal_spare_) {
    has_normal_spare_ = false;
    return normal_spare_;
  }
  // Marsaglia polar method.
  double u, v, s;
  do {
    u = Uniform(-1.0, 1.0);
    v = Uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  double factor = std::sqrt(-2.0 * std::log(s) / s);
  normal_spare_ = v * factor;
  has_normal_spare_ = true;
  return u * factor;
}

int Rng::Poisson(double mean) {
  PROCLUS_DCHECK(mean >= 0.0);
  if (mean <= 0.0) return 0;
  if (mean < 30.0) {
    // Knuth: count multiplications until the product drops below e^-mean.
    const double limit = std::exp(-mean);
    double product = UniformDouble();
    int count = 0;
    while (product > limit) {
      ++count;
      product *= UniformDouble();
    }
    return count;
  }
  // PTRS (Hörmann 1993) transformed rejection for large means. From a
  // mean near 2^31 on, k can exceed INT_MAX, where the conversion to int
  // would be undefined: the count saturates instead.
  constexpr double kMaxCount =
      static_cast<double>(std::numeric_limits<int>::max());
  const double b = 0.931 + 2.53 * std::sqrt(mean);
  const double a = -0.059 + 0.02483 * b;
  const double inv_alpha = 1.1239 + 1.1328 / (b - 3.4);
  const double v_r = 0.9277 - 3.6224 / (b - 2.0);
  for (;;) {
    double u = UniformDouble() - 0.5;
    double v = UniformDouble();
    double us = 0.5 - std::fabs(u);
    double k = std::floor((2.0 * a / us + b) * u + mean + 0.43);
    if (us >= 0.07 && v <= v_r)
      return static_cast<int>(std::min(k, kMaxCount));
    if (k < 0.0 || (us < 0.013 && v > us)) continue;
    double log_mean = std::log(mean);
    double lhs = std::log(v * inv_alpha / (a / (us * us) + b));
    double rhs = -mean + k * log_mean - std::lgamma(k + 1.0);
    if (lhs <= rhs) return static_cast<int>(std::min(k, kMaxCount));
  }
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  PROCLUS_CHECK(k <= n);
  std::vector<size_t> out;
  out.reserve(k);
  if (k == 0) return out;
  if (k * 3 >= n) {
    // Dense case: partial Fisher-Yates over the full index range.
    std::vector<size_t> idx(n);
    for (size_t i = 0; i < n; ++i) idx[i] = i;
    for (size_t i = 0; i < k; ++i) {
      size_t j = i + UniformInt(static_cast<uint64_t>(n - i));
      std::swap(idx[i], idx[j]);
    }
    idx.resize(k);
    return idx;
  }
  // Sparse case: rejection sampling with a hash set.
  std::unordered_set<size_t> seen;
  seen.reserve(k * 2);
  while (out.size() < k) {
    size_t candidate = UniformInt(static_cast<uint64_t>(n));
    if (seen.insert(candidate).second) out.push_back(candidate);
  }
  return out;
}

}  // namespace proclus
