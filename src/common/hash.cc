#include "common/hash.h"

#include <cstring>

namespace proclus {
namespace {

constexpr uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
constexpr uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr uint64_t kPrime3 = 0x165667B19E3779F9ULL;
constexpr uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
constexpr uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

uint64_t Rotl(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

uint64_t Read64(const unsigned char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;  // XXH64 is specified little-endian; all supported targets are.
}

uint32_t Read32(const unsigned char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint64_t Round(uint64_t acc, uint64_t input) {
  acc += input * kPrime2;
  acc = Rotl(acc, 31);
  return acc * kPrime1;
}

uint64_t MergeRound(uint64_t hash, uint64_t acc) {
  hash ^= Round(0, acc);
  return hash * kPrime1 + kPrime4;
}

uint64_t Avalanche(uint64_t hash) {
  hash ^= hash >> 33;
  hash *= kPrime2;
  hash ^= hash >> 29;
  hash *= kPrime3;
  hash ^= hash >> 32;
  return hash;
}

}  // namespace

void Xxh64::Reset(uint64_t seed) {
  seed_ = seed;
  acc_[0] = seed + kPrime1 + kPrime2;
  acc_[1] = seed + kPrime2;
  acc_[2] = seed;
  acc_[3] = seed - kPrime1;
  total_ = 0;
  buf_len_ = 0;
}

void Xxh64::Update(const void* data, size_t len) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  total_ += len;

  if (buf_len_ + len < 32) {
    if (len > 0) std::memcpy(buf_ + buf_len_, p, len);
    buf_len_ += len;
    return;
  }

  // The lanes live in locals across the stripe loop: `p` is an unsigned
  // char pointer, which may alias acc_, so updating the members directly
  // would store all four lanes back on every 32-byte stripe.
  uint64_t v0 = acc_[0];
  uint64_t v1 = acc_[1];
  uint64_t v2 = acc_[2];
  uint64_t v3 = acc_[3];
  if (buf_len_ > 0) {
    const size_t fill = 32 - buf_len_;
    std::memcpy(buf_ + buf_len_, p, fill);
    v0 = Round(v0, Read64(buf_));
    v1 = Round(v1, Read64(buf_ + 8));
    v2 = Round(v2, Read64(buf_ + 16));
    v3 = Round(v3, Read64(buf_ + 24));
    p += fill;
    len -= fill;
    buf_len_ = 0;
  }

  while (len >= 32) {
    v0 = Round(v0, Read64(p));
    v1 = Round(v1, Read64(p + 8));
    v2 = Round(v2, Read64(p + 16));
    v3 = Round(v3, Read64(p + 24));
    p += 32;
    len -= 32;
  }
  acc_[0] = v0;
  acc_[1] = v1;
  acc_[2] = v2;
  acc_[3] = v3;

  if (len > 0) std::memcpy(buf_, p, len);
  buf_len_ = len;
}

uint64_t Xxh64::Digest() const {
  uint64_t hash;
  if (total_ >= 32) {
    hash = Rotl(acc_[0], 1) + Rotl(acc_[1], 7) + Rotl(acc_[2], 12) +
           Rotl(acc_[3], 18);
    hash = MergeRound(hash, acc_[0]);
    hash = MergeRound(hash, acc_[1]);
    hash = MergeRound(hash, acc_[2]);
    hash = MergeRound(hash, acc_[3]);
  } else {
    hash = seed_ + kPrime5;
  }
  hash += total_;

  const unsigned char* p = buf_;
  size_t len = buf_len_;
  while (len >= 8) {
    hash ^= Round(0, Read64(p));
    hash = Rotl(hash, 27) * kPrime1 + kPrime4;
    p += 8;
    len -= 8;
  }
  if (len >= 4) {
    hash ^= static_cast<uint64_t>(Read32(p)) * kPrime1;
    hash = Rotl(hash, 23) * kPrime2 + kPrime3;
    p += 4;
    len -= 4;
  }
  while (len > 0) {
    hash ^= static_cast<uint64_t>(*p) * kPrime5;
    hash = Rotl(hash, 11) * kPrime1;
    ++p;
    --len;
  }
  return Avalanche(hash);
}

uint64_t Xxh64::Hash(const void* data, size_t len, uint64_t seed) {
  Xxh64 h(seed);
  h.Update(data, len);
  return h.Digest();
}

}  // namespace proclus
