// MT19937-64 implemented from scratch (Matsumoto & Nishimura / Nishimura's
// 64-bit variant), including the reference array-seeding routine
// `init_by_array64`.
//
// Mrs exposes a `random(a, b, c, ...)` method that derives an *independent*
// generator from a tuple of integers (paper §IV-A): because the Mersenne
// Twister's internal state is 312×64 bits, around 300 distinct 64-bit
// arguments can be absorbed losslessly by array seeding, which is exactly
// the mechanism reproduced here (see rng/streams.h).
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace mrs {

class MT19937_64 {
 public:
  static constexpr int kStateSize = 312;           // NN
  static constexpr uint64_t kDefaultSeed = 5489ull;

  /// Seed with a single 64-bit value (reference init_genrand64).
  explicit MT19937_64(uint64_t seed = kDefaultSeed) { SeedScalar(seed); }

  /// Seed with an array of 64-bit keys (reference init_by_array64).  Tuples
  /// that differ in any element, or in length, produce different states.
  explicit MT19937_64(std::span<const uint64_t> keys) { SeedByArray(keys); }

  void SeedScalar(uint64_t seed);
  void SeedByArray(std::span<const uint64_t> keys);

  /// Next uniform 64-bit integer.  Inline: record generators draw one per
  /// character, so the call must cost no more than the tempering.
  uint64_t NextU64() {
    if (mti_ >= kStateSize) Twist();
    uint64_t x = mt_[mti_++];
    x ^= (x >> 29) & 0x5555555555555555ull;
    x ^= (x << 17) & 0x71D67FFFEDA60000ull;
    x ^= (x << 37) & 0xFFF7EEE000000000ull;
    x ^= x >> 43;
    return x;
  }

  /// Uniform double in [0, 1) with 53-bit resolution (genrand64_real2).
  double NextDouble() { return static_cast<double>(NextU64() >> 11) * (1.0 / 9007199254740992.0); }

  /// Uniform integer in [0, bound) via rejection sampling (unbiased):
  /// draws below 2^64 mod bound are rejected.  That threshold is itself
  /// below `bound`, so a draw r >= bound is accepted without computing it,
  /// and the threshold's divide is paid only in the rare r < bound case.
  /// Inlined with a constant bound, `r % bound` becomes a multiply.
  uint64_t NextBounded(uint64_t bound) {
    if (bound <= 1) return 0;
    while (true) {
      uint64_t r = NextU64();
      if (r >= bound || r >= (~bound + 1) % bound) return r % bound;
    }
  }

  /// Uniform double in [lo, hi).
  double NextUniform(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

  /// Standard normal via Box-Muller (caches the second variate).
  double NextGaussian();

  // UniformRandomBitGenerator interface, so std::shuffle etc. work.
  using result_type = uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ull; }
  result_type operator()() { return NextU64(); }

  /// Expose raw state for equality checks in tests.
  const std::array<uint64_t, kStateSize>& state() const { return mt_; }

 private:
  void Twist();

  std::array<uint64_t, kStateSize> mt_{};
  int mti_ = kStateSize + 1;
  bool has_gauss_ = false;
  double gauss_ = 0.0;
};

}  // namespace mrs
