#include <gtest/gtest.h>

#include "src/cryptocore/bigint.h"
#include "src/sim/random.h"

namespace keypad {
namespace {

TEST(BigIntTest, ZeroAndOne) {
  EXPECT_TRUE(BigInt::Zero().IsZero());
  EXPECT_TRUE(BigInt::One().IsOne());
  EXPECT_TRUE(BigInt::One().IsOdd());
  EXPECT_FALSE(BigInt::Zero().IsOdd());
  EXPECT_EQ(BigInt::Zero().BitLength(), 0);
  EXPECT_EQ(BigInt::One().BitLength(), 1);
}

TEST(BigIntTest, U64RoundTrip) {
  for (uint64_t v : {uint64_t{0}, uint64_t{1}, uint64_t{0xFFFFFFFF},
                     uint64_t{0x100000000}, uint64_t{0xDEADBEEFCAFEBABE},
                     UINT64_MAX}) {
    EXPECT_EQ(BigInt::FromU64(v).ToU64(), v);
  }
}

TEST(BigIntTest, HexRoundTrip) {
  auto v = BigInt::FromHex("deadbeefcafebabe0123456789abcdef");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->ToHex(), "deadbeefcafebabe0123456789abcdef");
  EXPECT_EQ(BigInt::Zero().ToHex(), "0");
  // Odd-length hex is left-padded.
  auto odd = BigInt::FromHex("abc");
  ASSERT_TRUE(odd.ok());
  EXPECT_EQ(odd->ToU64(), 0xabcull);
}

TEST(BigIntTest, BytesRoundTripWithPadding) {
  BigInt v = BigInt::FromU64(0x0102);
  Bytes b = v.ToBytesBe(8);
  EXPECT_EQ(ToHex(b), "0000000000000102");
  EXPECT_EQ(BigInt::FromBytesBe(b), v);
}

TEST(BigIntTest, CompareOrdering) {
  BigInt a = BigInt::FromU64(5), b = BigInt::FromU64(7);
  EXPECT_LT(a, b);
  EXPECT_GT(b, a);
  EXPECT_LE(a, a);
  auto big = *BigInt::FromHex("ffffffffffffffffffffffffffffffff");
  EXPECT_LT(b, big);
}

TEST(BigIntTest, AddSubU64Agreement) {
  SimRandom rng(1);
  for (int i = 0; i < 2000; ++i) {
    uint64_t x = rng.NextU64() >> 1;
    uint64_t y = rng.NextU64() >> 1;
    if (x < y) {
      std::swap(x, y);
    }
    EXPECT_EQ(BigInt::Add(BigInt::FromU64(x), BigInt::FromU64(y)).ToU64(),
              x + y);
    EXPECT_EQ(BigInt::Sub(BigInt::FromU64(x), BigInt::FromU64(y)).ToU64(),
              x - y);
  }
}

TEST(BigIntTest, MulU64Agreement) {
  SimRandom rng(2);
  for (int i = 0; i < 2000; ++i) {
    uint64_t x = rng.NextU64() & 0xFFFFFFFF;
    uint64_t y = rng.NextU64() & 0xFFFFFFFF;
    EXPECT_EQ(BigInt::Mul(BigInt::FromU64(x), BigInt::FromU64(y)).ToU64(),
              x * y);
  }
}

TEST(BigIntTest, DivModU64Agreement) {
  SimRandom rng(3);
  for (int i = 0; i < 2000; ++i) {
    uint64_t x = rng.NextU64();
    uint64_t y = rng.NextU64() >> (rng.UniformU64(48));
    if (y == 0) {
      y = 1;
    }
    BigInt q, r;
    BigInt::DivMod(BigInt::FromU64(x), BigInt::FromU64(y), &q, &r);
    EXPECT_EQ(q.ToU64(), x / y) << x << " / " << y;
    EXPECT_EQ(r.ToU64(), x % y) << x << " % " << y;
  }
}

TEST(BigIntTest, DivModIdentityOnWideValues) {
  // Property: for random wide a, b: a = q*b + r with 0 <= r < b.
  SecureRandom srng(uint64_t{7});
  SimRandom rng(4);
  for (int i = 0; i < 300; ++i) {
    BigInt a = BigInt::RandomBits(srng, 20 + static_cast<int>(rng.UniformU64(500)));
    BigInt b = BigInt::RandomBits(srng, 10 + static_cast<int>(rng.UniformU64(300)));
    BigInt q, r;
    BigInt::DivMod(a, b, &q, &r);
    EXPECT_LT(BigInt::Cmp(r, b), 0);
    EXPECT_EQ(BigInt::Add(BigInt::Mul(q, b), r), a);
  }
}

TEST(BigIntTest, ShiftInverse) {
  SecureRandom srng(uint64_t{8});
  for (int i = 0; i < 100; ++i) {
    BigInt a = BigInt::RandomBits(srng, 200);
    for (int s : {1, 13, 32, 47, 64, 100}) {
      EXPECT_EQ(a.ShiftLeft(s).ShiftRight(s), a);
    }
  }
}

TEST(BigIntTest, BitAccessors) {
  BigInt v = BigInt::FromU64(0b1010);
  EXPECT_FALSE(v.Bit(0));
  EXPECT_TRUE(v.Bit(1));
  EXPECT_FALSE(v.Bit(2));
  EXPECT_TRUE(v.Bit(3));
  EXPECT_FALSE(v.Bit(64));
  EXPECT_EQ(v.BitLength(), 4);
}

TEST(BigIntTest, ModExpFermatLittleTheorem) {
  // a^(p-1) = 1 mod p for prime p and a not divisible by p.
  BigInt p = BigInt::FromU64(1000000007);
  SecureRandom srng(uint64_t{9});
  for (int i = 0; i < 20; ++i) {
    BigInt a = BigInt::Add(BigInt::RandomBelow(srng, BigInt::Sub(p, BigInt::One())),
                           BigInt::One());
    EXPECT_TRUE(
        BigInt::ModExp(a, BigInt::Sub(p, BigInt::One()), p).IsOne());
  }
}

TEST(BigIntTest, ModExpKnownValue) {
  // 2^10 mod 1000 = 24.
  EXPECT_EQ(BigInt::ModExp(BigInt::FromU64(2), BigInt::FromU64(10),
                           BigInt::FromU64(1000))
                .ToU64(),
            24u);
}

TEST(BigIntTest, PrimalityKnownPrimesAndComposites) {
  SecureRandom srng(uint64_t{11});
  for (uint64_t p : {2ull, 3ull, 5ull, 65537ull, 1000000007ull,
                     2305843009213693951ull /* 2^61-1, Mersenne prime */}) {
    EXPECT_TRUE(BigInt::IsProbablePrime(BigInt::FromU64(p), srng)) << p;
  }
  for (uint64_t c : {1ull, 4ull, 561ull /* Carmichael */, 1000000008ull,
                     2305843009213693953ull}) {
    EXPECT_FALSE(BigInt::IsProbablePrime(BigInt::FromU64(c), srng)) << c;
  }
}

TEST(BigIntTest, PrimalityLargeKnownPrime) {
  // 2^127 - 1 is a Mersenne prime.
  BigInt p = BigInt::Sub(BigInt::One().ShiftLeft(127), BigInt::One());
  SecureRandom srng(uint64_t{12});
  EXPECT_TRUE(BigInt::IsProbablePrime(p, srng));
  // 2^128 - 1 is composite.
  BigInt c = BigInt::Sub(BigInt::One().ShiftLeft(128), BigInt::One());
  EXPECT_FALSE(BigInt::IsProbablePrime(c, srng));
}

TEST(BigIntTest, RandomBitsHasExactBitLength) {
  SecureRandom srng(uint64_t{13});
  for (int bits : {1, 7, 8, 9, 63, 64, 65, 160, 512}) {
    for (int i = 0; i < 10; ++i) {
      EXPECT_EQ(BigInt::RandomBits(srng, bits).BitLength(), bits);
    }
  }
}

TEST(BigIntTest, MulDivAgreesWithInt128Reference) {
  // Differential fuzz: 64x64 -> 128-bit multiply and 128/64 divide checked
  // against the compiler's __int128.
  SimRandom rng(21);
  for (int i = 0; i < 3000; ++i) {
    uint64_t a = rng.NextU64();
    uint64_t b = rng.NextU64();
    unsigned __int128 ref = static_cast<unsigned __int128>(a) * b;
    BigInt product = BigInt::Mul(BigInt::FromU64(a), BigInt::FromU64(b));
    EXPECT_EQ(product.ToU64(), static_cast<uint64_t>(ref));
    EXPECT_EQ(product.ShiftRight(64).ToU64(),
              static_cast<uint64_t>(ref >> 64));

    uint64_t d = rng.NextU64() | 1;
    BigInt q, r;
    BigInt::DivMod(product, BigInt::FromU64(d), &q, &r);
    unsigned __int128 ref_q = ref / d;
    EXPECT_EQ(q.ToU64(), static_cast<uint64_t>(ref_q));
    EXPECT_EQ(q.ShiftRight(64).ToU64(), static_cast<uint64_t>(ref_q >> 64));
    EXPECT_EQ(r.ToU64(), static_cast<uint64_t>(ref % d));
  }
}

TEST(BigIntTest, RandomBelowInRange) {
  SecureRandom srng(uint64_t{14});
  BigInt bound = BigInt::FromU64(1000);
  for (int i = 0; i < 200; ++i) {
    EXPECT_LT(BigInt::RandomBelow(srng, bound), bound);
  }
}

}  // namespace
}  // namespace keypad
