// Hashing used by the default MapReduce partitioner and the independent
// random-stream derivation.  FNV-1a for short keys; SplitMix64 as a cheap
// integer mixer; a 64-bit Murmur-style finalizer for combining streams.
#pragma once

#include <cstdint>
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

}  // namespace mrs
