// Known-answer and streaming tests for Xxh64 (common/hash.h). The digest
// is part of three on-disk formats (snapshot block checksums, shard
// manifests, checkpoint trailers), so it must never move: published
// answers pin it, and every length 0-100 fed at every split point must
// match an independent one-shot transcription of the XXH64 specification
// written below without reference to the library code.

#include "common/hash.h"

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace proclus {
namespace {

// ---- Spec transcription (xxHash specification, XXH64 section) ----

constexpr uint64_t P1 = 11400714785074694791ULL;
constexpr uint64_t P2 = 14029467366897019727ULL;
constexpr uint64_t P3 = 1609587929392839161ULL;
constexpr uint64_t P4 = 9650029242287828579ULL;
constexpr uint64_t P5 = 2870177450012600261ULL;

uint64_t RotateLeft(uint64_t value, unsigned bits) {
  return (value << bits) | (value >> (64 - bits));
}

// Little-endian lane reads, byte by byte.
uint64_t Lane64(const unsigned char* p) {
  uint64_t v = 0;
  for (int b = 7; b >= 0; --b) v = (v << 8) | p[b];
  return v;
}

uint64_t Lane32(const unsigned char* p) {
  uint64_t v = 0;
  for (int b = 3; b >= 0; --b) v = (v << 8) | p[b];
  return v;
}

uint64_t SpecRound(uint64_t acc, uint64_t lane) {
  acc = acc + lane * P2;
  acc = RotateLeft(acc, 31);
  return acc * P1;
}

uint64_t SpecXxh64(const unsigned char* input, size_t length, uint64_t seed) {
  size_t offset = 0;
  uint64_t acc;
  if (length >= 32) {
    uint64_t acc1 = seed + P1 + P2;
    uint64_t acc2 = seed + P2;
    uint64_t acc3 = seed + 0;
    uint64_t acc4 = seed - P1;
    while (length - offset >= 32) {
      acc1 = SpecRound(acc1, Lane64(input + offset));
      acc2 = SpecRound(acc2, Lane64(input + offset + 8));
      acc3 = SpecRound(acc3, Lane64(input + offset + 16));
      acc4 = SpecRound(acc4, Lane64(input + offset + 24));
      offset += 32;
    }
    acc = RotateLeft(acc1, 1) + RotateLeft(acc2, 7) + RotateLeft(acc3, 12) +
          RotateLeft(acc4, 18);
    for (uint64_t lane_acc : {acc1, acc2, acc3, acc4}) {
      acc = acc ^ SpecRound(0, lane_acc);
      acc = acc * P1 + P4;
    }
  } else {
    acc = seed + P5;
  }
  acc = acc + static_cast<uint64_t>(length);
  while (length - offset >= 8) {
    acc = acc ^ SpecRound(0, Lane64(input + offset));
    acc = RotateLeft(acc, 27) * P1 + P4;
    offset += 8;
  }
  if (length - offset >= 4) {
    acc = acc ^ (Lane32(input + offset) * P1);
    acc = RotateLeft(acc, 23) * P2 + P3;
    offset += 4;
  }
  while (offset < length) {
    acc = acc ^ (static_cast<uint64_t>(input[offset]) * P5);
    acc = RotateLeft(acc, 11) * P1;
    offset += 1;
  }
  acc = acc ^ (acc >> 33);
  acc = acc * P2;
  acc = acc ^ (acc >> 29);
  acc = acc * P3;
  acc = acc ^ (acc >> 32);
  return acc;
}

// ---- Tests ----

std::vector<unsigned char> Message(size_t length) {
  std::vector<unsigned char> bytes(length);
  for (size_t i = 0; i < length; ++i)
    bytes[i] = static_cast<unsigned char>((i * 131 + 7) ^ (i >> 3));
  return bytes;
}

TEST(HashTest, PublishedAnswers) {
  EXPECT_EQ(Xxh64::Hash("", 0), 0xef46db3751d8e999ULL);
  EXPECT_EQ(Xxh64::Hash("abc", 3), 0x44bc2cf5ad770999ULL);
  const auto* abc = reinterpret_cast<const unsigned char*>("abc");
  EXPECT_EQ(SpecXxh64(abc, 0, 0), 0xef46db3751d8e999ULL);
  EXPECT_EQ(SpecXxh64(abc, 3, 0), 0x44bc2cf5ad770999ULL);
}

TEST(HashTest, NonZeroSeedMatchesSpec) {
  const uint64_t seed = 0x9e3779b97f4a7c15ULL;
  for (size_t length : {size_t{0}, size_t{3}, size_t{31}, size_t{32},
                        size_t{33}, size_t{100}}) {
    const std::vector<unsigned char> bytes = Message(length);
    EXPECT_EQ(Xxh64::Hash(bytes.data(), length, seed),
              SpecXxh64(bytes.data(), length, seed))
        << "length " << length;
    EXPECT_NE(Xxh64::Hash(bytes.data(), length, seed),
              Xxh64::Hash(bytes.data(), length, 0))
        << "length " << length;
  }
}

TEST(HashTest, EveryLengthAndStreamingSplitMatchesSpec) {
  for (uint64_t seed : {uint64_t{0}, uint64_t{42}}) {
    for (size_t length = 0; length <= 100; ++length) {
      const std::vector<unsigned char> bytes = Message(length);
      const uint64_t want = SpecXxh64(bytes.data(), length, seed);
      ASSERT_EQ(Xxh64::Hash(bytes.data(), length, seed), want)
          << "length " << length << " seed " << seed;
      for (size_t split = 0; split <= length; ++split) {
        Xxh64 h(seed);
        h.Update(bytes.data(), split);
        h.Update(bytes.data() + split, length - split);
        ASSERT_EQ(h.Digest(), want)
            << "length " << length << " split " << split << " seed "
            << seed;
      }
      // One byte at a time, with Digest() called mid-stream.
      Xxh64 bytewise(seed);
      for (size_t i = 0; i < length; ++i) {
        bytewise.Update(bytes.data() + i, 1);
        if (i % 7 == 0) {
          ASSERT_EQ(bytewise.Digest(), SpecXxh64(bytes.data(), i + 1, seed));
        }
      }
      ASSERT_EQ(bytewise.Digest(), want) << "length " << length;
    }
  }
}

TEST(HashTest, ResetStartsANewMessage) {
  const std::vector<unsigned char> bytes = Message(77);
  Xxh64 h(5);
  h.Update(bytes.data(), 50);
  h.Reset(9);
  h.Update(bytes.data(), 77);
  EXPECT_EQ(h.Digest(), SpecXxh64(bytes.data(), 77, 9));
}

}  // namespace
}  // namespace proclus
