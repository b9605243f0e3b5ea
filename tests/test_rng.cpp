// Tests for the from-scratch MT19937-64 and the Mrs independent-stream
// API, including the published reference vectors.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <utility>

#include "rng/mt19937_64.h"
#include "rng/streams.h"

namespace mrs {
namespace {

TEST(MT19937_64, ReferenceVectorsInitByArray) {
  // From Nishimura & Matsumoto's mt19937-64.out.txt: init_by_array64 with
  // {0x12345, 0x23456, 0x34567, 0x45678}; first ten outputs.
  const uint64_t keys[] = {0x12345ull, 0x23456ull, 0x34567ull, 0x45678ull};
  MT19937_64 rng{std::span<const uint64_t>(keys, 4)};
  const uint64_t expected[10] = {
      7266447313870364031ull,  4946485549665804864ull,
      16945909448695747420ull, 16394063075524226720ull,
      4873882236456199058ull,  14877448043947020171ull,
      6740343660852211943ull,  13857871200353263164ull,
      5249110015610582907ull,  10205081126064480383ull,
  };
  for (uint64_t e : expected) {
    EXPECT_EQ(rng.NextU64(), e);
  }
}

// Golden values recorded from the out-of-line, byte-per-call generator
// before NextU64/NextBounded were inlined and Twist was split into its
// modulo-free loops.  The reference test above stops at index 9, inside
// the first state block; these cross the first two twists.
TEST(MT19937_64, GoldenOutputsAcrossTwists) {
  const uint64_t keys[] = {0x12345ull, 0x23456ull, 0x34567ull, 0x45678ull};
  MT19937_64 rng{std::span<const uint64_t>(keys, 4)};
  const std::pair<int, uint64_t> expected[] = {
      {0, 7266447313870364031ull},    {1, 4946485549665804864ull},
      {2, 16945909448695747420ull},   {3, 16394063075524226720ull},
      {4, 4873882236456199058ull},    {5, 14877448043947020171ull},
      {6, 6740343660852211943ull},    {7, 13857871200353263164ull},
      {8, 5249110015610582907ull},    {9, 10205081126064480383ull},
      {311, 15531278677382192198ull}, {312, 3874303698666230242ull},
      {313, 3611366553819264523ull},  {623, 2429517644459056881ull},
      {624, 14361215588101587430ull}, {625, 11386164476149757528ull},
      {999, 994412663058993407ull},
  };
  int index = 0;
  for (const auto& [at, value] : expected) {
    uint64_t v = 0;
    while (index <= at) {
      v = rng.NextU64();
      ++index;
    }
    EXPECT_EQ(v, value) << "output " << at;
  }
}

// Twenty draws per bound from MT19937_64(2012), then the next raw output,
// which pins how many draws the rejection loop consumed.  The 2^63 + 12345
// bound rejects about half its draws.
TEST(MT19937_64, GoldenBoundedDraws) {
  struct Case {
    uint64_t bound;
    uint64_t draws[20];
    uint64_t next_raw;
  };
  const Case cases[] = {
      {62,
       {18, 31, 38, 2, 47, 2, 45, 49, 39, 40,
        25, 44, 6, 30, 54, 54, 8, 6, 52, 12},
       8804325344896966189ull},
      {7,
       {2, 3, 0, 4, 5, 0, 1, 2, 0, 6, 5, 6, 6, 5, 5, 6, 1, 2, 5, 0},
       8804325344896966189ull},
      {(1ull << 63) + 12345,
       {6818375042939888817ull, 5648650215815708316ull,
        4870259025148020639ull, 3345243356631815310ull,
        7700698817935261861ull, 3775293956735322696ull,
        7700931430295939712ull, 2211714651822163768ull,
        7964076748764148999ull, 8309320270358594113ull,
        8391544212997130745ull, 5692555528633767229ull,
        8036276624902403455ull, 6407933308357301194ull,
        1214464960626493510ull, 7534481070562441389ull,
        2950315122221476979ull, 9020483567997943241ull,
        4654356088381709972ull, 4338084620224491143ull},
       6082898652910010638ull},
  };
  for (const Case& c : cases) {
    MT19937_64 rng(2012);
    for (int i = 0; i < 20; ++i) {
      EXPECT_EQ(rng.NextBounded(c.bound), c.draws[i])
          << "bound " << c.bound << " draw " << i;
    }
    EXPECT_EQ(rng.NextU64(), c.next_raw) << "bound " << c.bound;
  }
}

// NextDouble is exact arithmetic on the raw draws; NextGaussian goes
// through libm's log/sin/cos, so it is held to a few ulps.
TEST(MT19937_64, GoldenDoublesAndGaussiansFromAStream) {
  MT19937_64 rng = RandomStreams(2012)(1, 2);
  const double doubles[] = {
      0x1.6426b4264fc89p-1, 0x1.b3e7ce93cb4b6p-1, 0x1.d32ceb68313f6p-2,
      0x1.841cdb4502aaep-2, 0x1.2db4be12ec97ap-1, 0x1.4479211e1cfafp-1,
      0x1.90ee9bf35eb88p-1, 0x1.aad3d870db158p-3, 0x1.e1a3784a0ab8p-3,
      0x1.546570fa9de8ep-1,
  };
  const double gaussians[] = {
      -0x1.3a5f6ac744644p+0, 0x1.eaffeeabc314p-5,   0x1.3bcb2eb557d1p-1,
      0x1.aba4183ab56b2p-3,  0x1.a98d4658af419p+0,  -0x1.e38c4f9345ff9p+0,
      0x1.80faebec8f0eep-1,  -0x1.67d9e123bdcabp+0, 0x1.91e486c450b11p+0,
      0x1.5adb2efc3ccd4p-1,
  };
  for (double d : doubles) EXPECT_EQ(rng.NextDouble(), d);
  for (double g : gaussians) EXPECT_DOUBLE_EQ(rng.NextGaussian(), g);
}

TEST(MT19937_64, ScalarSeedDeterministic) {
  MT19937_64 a(12345);
  MT19937_64 b(12345);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(MT19937_64, DifferentSeedsDiverge) {
  MT19937_64 a(1);
  MT19937_64 b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LE(same, 1);
}

TEST(MT19937_64, NextDoubleInHalfOpenUnitInterval) {
  MT19937_64 rng(7);
  for (int i = 0; i < 10000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(MT19937_64, NextDoubleMeanNearHalf) {
  MT19937_64 rng(11);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(MT19937_64, NextBoundedUnbiasedRange) {
  MT19937_64 rng(3);
  int histogram[7] = {0};
  const int n = 70000;
  for (int i = 0; i < n; ++i) {
    uint64_t v = rng.NextBounded(7);
    ASSERT_LT(v, 7u);
    ++histogram[v];
  }
  for (int count : histogram) {
    EXPECT_NEAR(count, n / 7, n / 70);  // within 10%
  }
}

TEST(MT19937_64, NextBoundedEdgeCases) {
  MT19937_64 rng(3);
  EXPECT_EQ(rng.NextBounded(0), 0u);
  EXPECT_EQ(rng.NextBounded(1), 0u);
}

TEST(MT19937_64, GaussianMomentsRoughlyStandard) {
  MT19937_64 rng(17);
  const int n = 200000;
  double sum = 0, sum_sq = 0;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(MT19937_64, WorksWithStdShuffleInterface) {
  static_assert(MT19937_64::min() == 0);
  static_assert(MT19937_64::max() == ~0ull);
  MT19937_64 rng(5);
  EXPECT_NE(rng(), rng());
}

// ---- RandomStreams (the Mrs random(...) API) ---------------------------

TEST(RandomStreams, SameArgsSameStream) {
  RandomStreams streams(42);
  MT19937_64 a = streams(1, 2, 3);
  MT19937_64 b = streams(1, 2, 3);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RandomStreams, DifferentArgsIndependentStreams) {
  RandomStreams streams(42);
  MT19937_64 a = streams(1, 2, 3);
  MT19937_64 b = streams(1, 2, 4);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_LE(same, 1);
}

TEST(RandomStreams, TupleLengthMatters) {
  // (1) and (1, 0) must be distinct streams.
  RandomStreams streams(42);
  MT19937_64 a = streams(uint64_t{1});
  MT19937_64 b = streams(uint64_t{1}, uint64_t{0});
  EXPECT_NE(a.NextU64(), b.NextU64());
}

TEST(RandomStreams, ProgramSeedMatters) {
  RandomStreams s1(1);
  RandomStreams s2(2);
  EXPECT_NE(s1(7, 7).NextU64(), s2(7, 7).NextU64());
}

TEST(RandomStreams, EmptyTupleWorks) {
  RandomStreams streams(42);
  MT19937_64 a = streams();
  MT19937_64 b = streams();
  EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RandomStreams, ManyArgumentsSupported) {
  // The paper: "the random method can accept around 300 arguments".
  RandomStreams streams(42);
  std::vector<uint64_t> args(300);
  for (size_t i = 0; i < args.size(); ++i) args[i] = i * 1234567ull;
  MT19937_64 a = streams.Get(args);
  args[299] += 1;
  MT19937_64 b = streams.Get(args);
  EXPECT_NE(a.NextU64(), b.NextU64());
}

TEST(RandomStreams, StreamsPairwiseDistinctOverGrid) {
  RandomStreams streams(42);
  std::set<uint64_t> firsts;
  for (uint64_t op = 0; op < 8; ++op) {
    for (uint64_t task = 0; task < 32; ++task) {
      firsts.insert(streams(op, task).NextU64());
    }
  }
  EXPECT_EQ(firsts.size(), 8u * 32u);
}

}  // namespace
}  // namespace mrs
