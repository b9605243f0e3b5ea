// Hashing used by the default MapReduce partitioner and the independent
// random-stream derivation.  FNV-1a for short keys; SplitMix64 as a cheap
// integer mixer; a 64-bit Murmur-style finalizer for combining streams;
// ContentHasher, the word-at-a-time checksum of bulk payloads.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace mrs {

/// FNV-1a 64-bit parameters, for hashers that feed bytes incrementally.
inline constexpr uint64_t kFnv1a64Offset = 0xcbf29ce484222325ull;
inline constexpr uint64_t kFnv1a64Prime = 0x100000001b3ull;

/// FNV-1a 64-bit over arbitrary bytes.  This is the default partitioner
/// hash: deterministic across runs (unlike std::hash), so task partitioning
/// is reproducible — a requirement for the serial/mock/parallel equivalence
/// invariant.
constexpr uint64_t Fnv1a64(std::string_view data) {
  uint64_t h = kFnv1a64Offset;
  for (char c : data) {
    h ^= static_cast<uint8_t>(c);
    h *= kFnv1a64Prime;
  }
  return h;
}

/// SplitMix64: bijective 64-bit mixer; good avalanche, one multiply chain.
constexpr uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Murmur3 fmix64 finalizer.
constexpr uint64_t Fmix64(uint64_t k) {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdull;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ull;
  k ^= k >> 33;
  return k;
}

/// Order-dependent combiner (boost-style but 64-bit).
constexpr uint64_t HashCombine(uint64_t seed, uint64_t v) {
  return seed ^ (Fmix64(v) + 0x9e3779b97f4a7c15ull + (seed << 12) + (seed >> 4));
}

/// Streaming 64-bit checksum of bulk bytes: bucket bodies on the wire and
/// spill-run payloads (http/message.h ContentChecksum).  Four independent
/// multiply-xor lanes each take one little-endian 8-byte word of every
/// 32-byte block, so the lanes' multiply chains overlap instead of
/// serialising on one byte at a time as FNV-1a does.  Tail bytes and the
/// total length are folded in at Finish, and the value is the same for
/// any split of the input across Feed calls.  Every step is a bijection in
/// the word it absorbs, so a change confined to one word (any single bit
/// flip included) always changes the result.  Not the partitioner hash:
/// that stays Fnv1a64, whose values partitioning depends on.
class ContentHasher {
 public:
  void Feed(std::string_view data) {
    const char* p = data.data();
    size_t n = data.size();
    if (n == 0) return;
    total_ += n;
    if (buffered_ > 0) {
      size_t take = n < kBlock - buffered_ ? n : kBlock - buffered_;
      std::memcpy(buf_ + buffered_, p, take);
      buffered_ += take;
      p += take;
      n -= take;
      if (buffered_ < kBlock) return;
      Block(buf_);
      buffered_ = 0;
    }
    for (; n >= kBlock; p += kBlock, n -= kBlock) Block(p);
    if (n > 0) std::memcpy(buf_, p, n);
    buffered_ = n;
  }

  uint64_t Finish() const {
    uint64_t h = total_ * kPrime5;
    for (uint64_t lane : lanes_) h = (h ^ Round(0, lane)) * kPrime1 + kPrime4;
    size_t i = 0;
    for (; i + 8 <= buffered_; i += 8) {
      h = std::rotl(h ^ Round(0, Load(buf_ + i)), 27) * kPrime1 + kPrime4;
    }
    if (i < buffered_) {
      char last[8] = {};
      std::memcpy(last, buf_ + i, buffered_ - i);
      h = std::rotl(h ^ Round(0, Load(last)), 27) * kPrime1 + kPrime4;
    }
    return Fmix64(h);
  }

 private:
  static constexpr size_t kBlock = 32;
  static constexpr uint64_t kPrime1 = 0x9E3779B185EBCA87ull;
  static constexpr uint64_t kPrime2 = 0xC2B2AE3D27D4EB4Full;
  static constexpr uint64_t kPrime4 = 0x85EBCA77C2B2AE63ull;
  static constexpr uint64_t kPrime5 = 0x27D4EB2F165667C5ull;

  static uint64_t Load(const char* p) {
    uint64_t w;
    std::memcpy(&w, p, sizeof(w));
    if constexpr (std::endian::native == std::endian::big) {
      w = __builtin_bswap64(w);
    }
    return w;
  }
  static uint64_t Round(uint64_t lane, uint64_t word) {
    return std::rotl(lane ^ (word * kPrime2), 31) * kPrime1;
  }
  void Block(const char* p) {
    for (int i = 0; i < 4; ++i) lanes_[i] = Round(lanes_[i], Load(p + 8 * i));
  }

  uint64_t lanes_[4] = {kPrime1 + kPrime2, kPrime2, 0, 0 - kPrime1};
  uint64_t total_ = 0;
  size_t buffered_ = 0;
  char buf_[kBlock];
};

}  // namespace mrs
