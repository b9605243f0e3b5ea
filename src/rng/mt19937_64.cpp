#include "rng/mt19937_64.h"

#include <cmath>

namespace mrs {

namespace {
constexpr int kNN = MT19937_64::kStateSize;
constexpr int kMM = 156;
constexpr uint64_t kMatrixA = 0xB5026F5AA96619E9ull;
constexpr uint64_t kUpperMask = 0xFFFFFFFF80000000ull;  // most significant 33 bits
constexpr uint64_t kLowerMask = 0x7FFFFFFFull;          // least significant 31 bits

/// One word of the reference twist: the upper bit of `cur`, the lower 31
/// of `next`, folded into `far`.  The matrix select is a mask, not a
/// branch: the low bit is a coin flip, so a branch mispredicts half the
/// time.
uint64_t TwistWord(uint64_t cur, uint64_t next, uint64_t far) {
  uint64_t x = (cur & kUpperMask) | (next & kLowerMask);
  return far ^ (x >> 1) ^ (-(x & 1) & kMatrixA);
}
}  // namespace

void MT19937_64::SeedScalar(uint64_t seed) {
  mt_[0] = seed;
  for (int i = 1; i < kNN; ++i) {
    mt_[i] = 6364136223846793005ull * (mt_[i - 1] ^ (mt_[i - 1] >> 62)) +
             static_cast<uint64_t>(i);
  }
  mti_ = kNN;
  has_gauss_ = false;
}

void MT19937_64::SeedByArray(std::span<const uint64_t> keys) {
  SeedScalar(19650218ull);
  size_t i = 1, j = 0;
  size_t k = (static_cast<size_t>(kNN) > keys.size()) ? static_cast<size_t>(kNN)
                                                      : keys.size();
  for (; k != 0; --k) {
    mt_[i] = (mt_[i] ^ ((mt_[i - 1] ^ (mt_[i - 1] >> 62)) * 3935559000370003845ull)) +
             (keys.empty() ? 0 : keys[j]) + static_cast<uint64_t>(j);
    ++i;
    ++j;
    if (i >= static_cast<size_t>(kNN)) {
      mt_[0] = mt_[kNN - 1];
      i = 1;
    }
    if (j >= keys.size()) j = 0;
    if (keys.empty()) j = 0;
  }
  for (k = kNN - 1; k != 0; --k) {
    mt_[i] = (mt_[i] ^ ((mt_[i - 1] ^ (mt_[i - 1] >> 62)) * 2862933555777941757ull)) -
             static_cast<uint64_t>(i);
    ++i;
    if (i >= static_cast<size_t>(kNN)) {
      mt_[0] = mt_[kNN - 1];
      i = 1;
    }
  }
  mt_[0] = 1ull << 63;  // MSB is 1, assuring a non-zero initial array
  mti_ = kNN;
  has_gauss_ = false;
}

void MT19937_64::Twist() {
  // The reference's three modulo-free loops: the same updates, in the same
  // order, as one loop indexing (i + 1) % NN and (i + MM) % NN.
  int i = 0;
  for (; i < kNN - kMM; ++i) {
    mt_[i] = TwistWord(mt_[i], mt_[i + 1], mt_[i + kMM]);
  }
  for (; i < kNN - 1; ++i) {
    mt_[i] = TwistWord(mt_[i], mt_[i + 1], mt_[i + kMM - kNN]);
  }
  mt_[kNN - 1] = TwistWord(mt_[kNN - 1], mt_[0], mt_[kMM - 1]);
  mti_ = 0;
}

double MT19937_64::NextGaussian() {
  if (has_gauss_) {
    has_gauss_ = false;
    return gauss_;
  }
  // Box-Muller with rejection of u1 == 0.
  double u1 = 0.0;
  do {
    u1 = NextDouble();
  } while (u1 <= 0.0);
  double u2 = NextDouble();
  double r = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * M_PI * u2;
  gauss_ = r * std::sin(theta);
  has_gauss_ = true;
  return r * std::cos(theta);
}

}  // namespace mrs
