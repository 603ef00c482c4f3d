// Deterministic random number generation for all randomized components.
//
// Every randomized algorithm in this library (the synthetic generator, the
// PROCLUS initialization/iterative phases, CLARANS, k-means init, sampling)
// takes an explicit 64-bit seed and draws from this generator, so identical
// seeds reproduce identical results bit-for-bit across runs. We implement
// xoshiro256** (Blackman & Vigna) seeded via SplitMix64 rather than relying
// on std::mt19937 so the stream is stable across standard libraries, plus
// the exact distributions the Section 4.1 data generator needs (uniform,
// normal, Poisson, exponential) with portable, documented algorithms.

#ifndef PROCLUS_COMMON_RNG_H_
#define PROCLUS_COMMON_RNG_H_

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"

namespace proclus {

/// SplitMix64: used to expand a single 64-bit seed into xoshiro state.
/// Also usable standalone as a cheap hash-like stream.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  /// Next 64 pseudo-random bits.
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  uint64_t state_;
};

/// Complete serializable snapshot of an Rng: the xoshiro256** state words
/// plus the cached Marsaglia-polar spare variate. Restoring a snapshot
/// continues the stream bit-for-bit, including the next Normal() draw.
struct RngState {
  uint64_t state[4] = {0, 0, 0, 0};
  double normal_spare = 0.0;
  bool has_normal_spare = false;

  bool operator==(const RngState& other) const {
    return state[0] == other.state[0] && state[1] == other.state[1] &&
           state[2] == other.state[2] && state[3] == other.state[3] &&
           normal_spare == other.normal_spare &&
           has_normal_spare == other.has_normal_spare;
  }
};

/// xoshiro256** PRNG with distribution helpers.
///
/// Not thread-safe; create one Rng per thread / per algorithm run.
class Rng {
 public:
  using result_type = uint64_t;

  /// Seeds the generator deterministically from `seed` via SplitMix64.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL) { Reseed(seed); }

  /// Re-initializes the state from `seed`.
  void Reseed(uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.Next();
    // Guard against the (astronomically unlikely) all-zero state.
    if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
  }

  /// Next 64 pseudo-random bits.
  uint64_t Next() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // UniformRandomBitGenerator interface (usable with std::shuffle etc.).
  static constexpr uint64_t min() { return 0; }
  static constexpr uint64_t max() { return ~0ULL; }
  uint64_t operator()() { return Next(); }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double UniformDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double Uniform(double lo, double hi) {
    PROCLUS_DCHECK(lo <= hi);
    return lo + (hi - lo) * UniformDouble();
  }

  /// Uniform integer in [0, n). Requires n > 0. Uses Lemire's unbiased
  /// multiply-shift rejection method.
  uint64_t UniformInt(uint64_t n);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    PROCLUS_DCHECK(lo <= hi);
    return lo + static_cast<int64_t>(
                    UniformInt(static_cast<uint64_t>(hi - lo) + 1));
  }

  /// Bernoulli draw with success probability p.
  bool Bernoulli(double p) { return UniformDouble() < p; }

  /// Standard normal via the Marsaglia polar method (exact, portable).
  double Normal();

  /// Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev) {
    return mean + stddev * Normal();
  }

  /// Exponential with the given mean (= 1/rate). Requires mean > 0.
  double Exponential(double mean) {
    PROCLUS_DCHECK(mean > 0.0);
    // Inversion: -mean * ln(U), U in (0,1].
    double u = 1.0 - UniformDouble();
    return -mean * std::log(u);
  }

  /// Poisson with the given mean. Uses Knuth's product method for small
  /// means and the PTRS transformed-rejection method for large means.
  /// A draw above INT_MAX returns INT_MAX.
  int Poisson(double mean);

  /// Fisher–Yates shuffle of `n` positions that the caller stores: for
  /// i = n … 2, draws j = UniformInt(i) and calls `swap(i - 1, j)` (j may
  /// equal i - 1). The draws depend on `n` alone, so a shuffle of rows
  /// held elsewhere follows the same stream as `Shuffle(v)`.
  template <typename SwapFn>
  void Shuffle(size_t n, SwapFn&& swap) {
    for (size_t i = n; i > 1; --i) {
      size_t j = UniformInt(static_cast<uint64_t>(i));
      swap(i - 1, j);
    }
  }

  /// Fisher–Yates shuffle of `v`.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    Shuffle(v.size(), [&v](size_t a, size_t b) { std::swap(v[a], v[b]); });
  }

  /// Draws `k` distinct indices uniformly from [0, n) (order randomized).
  /// Requires k <= n.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

  /// Derives an independent child generator (for parallel sub-streams).
  Rng Fork() { return Rng(Next() ^ 0xd1b54a32d192ed03ULL); }

  /// Captures the full generator state (for checkpointing).
  RngState SaveState() const {
    RngState s;
    s.state[0] = state_[0];
    s.state[1] = state_[1];
    s.state[2] = state_[2];
    s.state[3] = state_[3];
    s.normal_spare = normal_spare_;
    s.has_normal_spare = has_normal_spare_;
    return s;
  }

  /// Restores a state captured by SaveState(); the stream continues
  /// bit-for-bit from the capture point.
  void RestoreState(const RngState& s) {
    state_[0] = s.state[0];
    state_[1] = s.state[1];
    state_[2] = s.state[2];
    state_[3] = s.state[3];
    normal_spare_ = s.normal_spare;
    has_normal_spare_ = s.has_normal_spare;
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
  // Cached second variate from the polar method.
  double normal_spare_ = 0.0;
  bool has_normal_spare_ = false;
};

}  // namespace proclus

#endif  // PROCLUS_COMMON_RNG_H_
