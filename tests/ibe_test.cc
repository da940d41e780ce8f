// Tests for the from-scratch pairing and Boneh–Franklin IBE. These use the
// 256-bit test parameter set for speed; one test exercises the 512-bit
// production parameters end to end. The golden vectors pin every IBE output
// byte for byte at all three parameter sets, and the kernel differential
// test checks the Montgomery field arithmetic against BigInt.

#include <gtest/gtest.h>

#include "src/cryptocore/aes.h"
#include "src/cryptocore/hmac.h"
#include "src/ibe/bf_ibe.h"
#include "src/ibe/curve.h"
#include "src/ibe/fp.h"
#include "src/ibe/fp2.h"
#include "src/ibe/pairing.h"

namespace keypad {
namespace {

// The pairing of two points the test knows to be valid.
Fp2 Pair(const EcPoint& a, const EcPoint& b, const PairingParams& params) {
  auto e = TatePairing(a, b, params);
  EXPECT_TRUE(e.ok()) << e.status();
  return e.value_or(Fp2::Zero());
}

IbeCiphertext Encrypt(const IbePkg& pkg, std::string_view identity,
                      const Bytes& message, SecureRandom& rng) {
  auto ct = IbeEncrypt(pkg.public_params(), identity, message, rng);
  EXPECT_TRUE(ct.ok()) << ct.status();
  return ct.value_or(IbeCiphertext{});
}

class IbeTest : public ::testing::Test {
 protected:
  const PairingParams& params_ = TestPairingParams();
};

TEST_F(IbeTest, ParamsAreWellFormed) {
  SecureRandom rng(uint64_t{1});
  EXPECT_TRUE(BigInt::IsProbablePrime(params_.p, rng, 8));
  EXPECT_TRUE(BigInt::IsProbablePrime(params_.q, rng, 8));
  // p ≡ 3 (mod 4).
  EXPECT_TRUE(params_.p.Bit(0));
  EXPECT_TRUE(params_.p.Bit(1));
  // p + 1 = q * cofactor.
  EXPECT_EQ(BigInt::Mul(params_.q, params_.cofactor),
            BigInt::Add(params_.p, BigInt::One()));
  // Generator on curve with exact order q.
  EXPECT_TRUE(IsOnCurve(params_.g, params_));
  EXPECT_FALSE(params_.g.infinity);
  EXPECT_TRUE(EcScalarMul(params_.q, params_.g, params_).infinity);
}

TEST_F(IbeTest, Fp2FieldAxioms) {
  SecureRandom rng(uint64_t{2});
  const FpField& f = params_.field;
  auto random_fp = [&] { return f.FromBigInt(BigInt::RandomBelow(rng, params_.p)); };
  for (int i = 0; i < 20; ++i) {
    Fp2 a{random_fp(), random_fp()};
    Fp2 b{random_fp(), random_fp()};
    Fp2 c{random_fp(), random_fp()};
    // Commutativity and associativity of multiplication.
    EXPECT_EQ(Fp2Mul(a, b, params_), Fp2Mul(b, a, params_));
    EXPECT_EQ(Fp2Mul(Fp2Mul(a, b, params_), c, params_),
              Fp2Mul(a, Fp2Mul(b, c, params_), params_));
    // Distributivity.
    EXPECT_EQ(Fp2Mul(a, Fp2Add(b, c, params_), params_),
              Fp2Add(Fp2Mul(a, b, params_), Fp2Mul(a, c, params_), params_));
    EXPECT_EQ(Fp2Sub(Fp2Add(a, b, params_), b, params_), a);
    // Square matches mul.
    EXPECT_EQ(Fp2Square(a, params_), Fp2Mul(a, a, params_));
    // Inverse.
    auto inv = Fp2Inverse(a, params_);
    ASSERT_TRUE(inv.ok());
    EXPECT_TRUE(Fp2Mul(a, *inv, params_).IsOne(params_));
    // Conjugate is the Frobenius for p ≡ 3 mod 4: a^p == conj(a).
    EXPECT_EQ(Fp2Pow(a, params_.p, params_), Fp2Conjugate(a, params_));
  }
  EXPECT_FALSE(Fp2Inverse(Fp2::Zero(), params_).ok());
}

// The kernel's operations against BigInt::ModMul/ModExp on random and edge
// operands (0, 1, p−1 and R mod p), for the three parameter primes and for
// primes of 1, 2 and 3 limbs whose limbs are nearly all ones.
TEST_F(IbeTest, FieldKernelMatchesBigIntReference) {
  std::vector<BigInt> primes = {
      BenchPairingParams().p, TestPairingParams().p, DefaultPairingParams().p,
      // 2^61 − 1, 2^127 − 1 and the P-192 prime 2^192 − 2^64 − 1; all are
      // 3 mod 4.
      BigInt::Sub(BigInt::One().ShiftLeft(61), BigInt::One()),
      BigInt::Sub(BigInt::One().ShiftLeft(127), BigInt::One()),
      BigInt::Sub(BigInt::Sub(BigInt::One().ShiftLeft(192),
                              BigInt::One().ShiftLeft(64)),
                  BigInt::One()),
  };
  constexpr int kCases = 10000;
  SecureRandom rng(uint64_t{3});
  for (const BigInt& p : primes) {
    SCOPED_TRACE(p.ToHex());
    FpField f(p);
    const BigInt p_minus_1 = BigInt::Sub(p, BigInt::One());
    const BigInt sqrt_exp = BigInt::Add(p, BigInt::One()).ShiftRight(2);
    const std::vector<BigInt> edges = {
        BigInt::Zero(), BigInt::One(), p_minus_1,
        BigInt::Mod(BigInt::One().ShiftLeft(64 * f.limbs()), p)};
    auto operand = [&](int i) {
      int pick = i % 8;
      return pick < static_cast<int>(edges.size()) && i < 64
                 ? edges[pick]
                 : BigInt::RandomBelow(rng, p);
    };
    for (int i = 0; i < kCases; ++i) {
      BigInt a = operand(i);
      BigInt b = operand(i / 8);
      Fp fa = f.FromBigInt(a);
      Fp fb = f.FromBigInt(b);
      ASSERT_EQ(f.ToBigInt(fa), a);
      ASSERT_EQ(f.ToBigInt(f.Mul(fa, fb)), BigInt::ModMul(a, b, p));
      ASSERT_EQ(f.ToBigInt(f.Sqr(fa)), BigInt::ModMul(a, a, p));
      ASSERT_EQ(f.ToBigInt(f.Add(fa, fb)), BigInt::ModAdd(a, b, p));
      ASSERT_EQ(f.ToBigInt(f.Sub(fa, fb)), BigInt::ModSub(a, b, p));
      // Full-width exponents (the reference's slow path) every 100th case,
      // short ones otherwise.
      bool full_width = i % 100 == 0;
      BigInt e = full_width ? BigInt::RandomBelow(rng, p)
                            : BigInt::FromU64(rng.NextU64() >> (40 + i % 24));
      ASSERT_EQ(f.ToBigInt(f.Pow(fa, e)), BigInt::ModExp(a, e, p));
      if (a.IsZero()) {
        EXPECT_TRUE(f.Inv(fa).IsZero());
        continue;
      }
      ASSERT_TRUE(BigInt::ModMul(f.ToBigInt(f.Inv(fa)), a, p).IsOne());
      // a² is a square and −a² is not (−1 is a non-residue).
      BigInt square = BigInt::ModMul(a, a, p);
      Fp root;
      ASSERT_TRUE(f.Sqrt(f.Sqr(fa), &root));
      ASSERT_EQ(BigInt::ModMul(f.ToBigInt(root), f.ToBigInt(root), p), square);
      if (full_width) {
        ASSERT_EQ(f.ToBigInt(root), BigInt::ModExp(square, sqrt_exp, p));
      }
      ASSERT_FALSE(f.Sqrt(f.Neg(f.Sqr(fa)), &root));
    }
  }
}

TEST_F(IbeTest, EcGroupLaws) {
  const EcPoint& g = params_.g;
  EcPoint g2 = EcDouble(g, params_);
  EcPoint g3a = EcAdd(g2, g, params_);
  EcPoint g3b = EcAdd(g, g2, params_);
  EXPECT_EQ(g3a, g3b);
  EXPECT_TRUE(IsOnCurve(g2, params_));
  EXPECT_TRUE(IsOnCurve(g3a, params_));
  EXPECT_EQ(EcAdd(g, g, params_), g2);

  // P + (-P) = O; P + O = P.
  EXPECT_TRUE(EcAdd(g, EcNegate(g, params_), params_).infinity);
  EXPECT_EQ(EcAdd(g, EcPoint::Infinity(), params_), g);

  // Scalar arithmetic: (a+b)G = aG + bG.
  BigInt a = BigInt::FromU64(123456789);
  BigInt b = BigInt::FromU64(987654321);
  EcPoint lhs = EcScalarMul(BigInt::Add(a, b), g, params_);
  EcPoint rhs = EcAdd(EcScalarMul(a, g, params_), EcScalarMul(b, g, params_),
                      params_);
  EXPECT_EQ(lhs, rhs);
}

TEST_F(IbeTest, HashToPointLandsInSubgroup) {
  for (const char* id : {"alice", "bob", "/home/taxes_2011|0042"}) {
    EcPoint q = HashToPoint(id, params_);
    EXPECT_FALSE(q.infinity);
    EXPECT_TRUE(IsOnCurve(q, params_));
    EXPECT_TRUE(HasOrderQ(q, params_));
  }
  // Deterministic and identity-sensitive.
  EXPECT_EQ(HashToPoint("alice", params_), HashToPoint("alice", params_));
  EXPECT_FALSE(HashToPoint("alice", params_) == HashToPoint("alicf", params_));
}

TEST_F(IbeTest, PointSerializationRoundTrip) {
  EcPoint g2 = EcDouble(params_.g, params_);
  Bytes ser = SerializePoint(g2, params_);
  auto back = DeserializePoint(ser, params_);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, g2);

  Bytes inf_ser = SerializePoint(EcPoint::Infinity(), params_);
  auto inf = DeserializePoint(inf_ser, params_);
  ASSERT_TRUE(inf.ok());
  EXPECT_TRUE(inf->infinity);

  // Corrupted points are rejected.
  ser[5] ^= 1;
  EXPECT_FALSE(DeserializePoint(ser, params_).ok());
  EXPECT_FALSE(DeserializePoint(Bytes(3, 0), params_).ok());
  // So are coordinates that are not below p.
  Bytes big(1 + 2 * params_.FieldBytes(), 0xFF);
  big[0] = 1;
  EXPECT_FALSE(DeserializePoint(big, params_).ok());
}

TEST_F(IbeTest, PairingNonDegenerate) {
  Fp2 e = Pair(params_.g, params_.g, params_);
  EXPECT_FALSE(e.IsOne(params_));
  EXPECT_FALSE(e.IsZero());
  // Value lies in mu_q: e^q == 1.
  EXPECT_TRUE(Fp2Pow(e, params_.q, params_).IsOne(params_));
}

TEST_F(IbeTest, PairingBilinear) {
  BigInt a = BigInt::FromU64(31337);
  BigInt b = BigInt::FromU64(271828);
  EcPoint ag = EcScalarMul(a, params_.g, params_);
  EcPoint bg = EcScalarMul(b, params_.g, params_);

  Fp2 e_base = Pair(params_.g, params_.g, params_);
  Fp2 e_ab = Pair(ag, bg, params_);
  Fp2 e_base_ab = Fp2Pow(e_base, BigInt::Mul(a, b), params_);
  EXPECT_EQ(e_ab, e_base_ab);

  // e(aP, Q) == e(P, aQ).
  EXPECT_EQ(Pair(ag, params_.g, params_), Pair(params_.g, ag, params_));
}

TEST_F(IbeTest, PairingWithInfinityIsOne) {
  EXPECT_TRUE(Pair(EcPoint::Infinity(), params_.g, params_).IsOne(params_));
  EXPECT_TRUE(Pair(params_.g, EcPoint::Infinity(), params_).IsOne(params_));
}

TEST_F(IbeTest, PairingRejectsPointsNotOfOrderQ) {
  // (0, 0) is on y² = x³ + x and has order 2.
  EcPoint order_two{Fp{}, Fp{}, false};
  ASSERT_TRUE(IsOnCurve(order_two, params_));
  EXPECT_FALSE(HasOrderQ(order_two, params_));
  EXPECT_FALSE(TatePairing(order_two, params_.g, params_).ok());
  // A Q of order 2 makes every line value real, so the Miller value dies.
  auto e = TatePairing(params_.g, order_two, params_);
  EXPECT_TRUE(!e.ok() || e->IsOne(params_));
}

TEST_F(IbeTest, EncryptDecryptRoundTrip) {
  SecureRandom rng(uint64_t{77});
  IbePkg pkg(params_, rng);
  Bytes message = BytesOf("the wrapped per-file data key: 32 bytes here!!");

  IbeCiphertext ct = Encrypt(pkg, "/home/taxes_2011|id42", message, rng);
  IbePrivateKey key = pkg.Extract("/home/taxes_2011|id42");
  auto pt = IbeDecrypt(pkg.public_params(), key, ct);
  ASSERT_TRUE(pt.ok());
  EXPECT_EQ(*pt, message);
}

TEST_F(IbeTest, WrongIdentityFailsToDecrypt) {
  SecureRandom rng(uint64_t{78});
  IbePkg pkg(params_, rng);
  Bytes message = BytesOf("secret");

  IbeCiphertext ct = Encrypt(pkg, "/home/real_path|id1", message, rng);
  // The thief lies about the pathname; the PKG hands him a key for the
  // bogus identity, which cannot unlock the file.
  IbePrivateKey bogus = pkg.Extract("/tmp/download|id1");
  auto pt = IbeDecrypt(pkg.public_params(), bogus, ct);
  EXPECT_FALSE(pt.ok());
  EXPECT_EQ(pt.status().code(), StatusCode::kDataLoss);
}

TEST_F(IbeTest, TamperedCiphertextRejected) {
  SecureRandom rng(uint64_t{79});
  IbePkg pkg(params_, rng);
  IbeCiphertext ct = Encrypt(pkg, "id", BytesOf("payload"), rng);
  IbePrivateKey key = pkg.Extract("id");

  IbeCiphertext bad = ct;
  bad.ct[0] ^= 1;
  EXPECT_FALSE(IbeDecrypt(pkg.public_params(), key, bad).ok());

  bad = ct;
  bad.tag[0] ^= 1;
  EXPECT_FALSE(IbeDecrypt(pkg.public_params(), key, bad).ok());
}

// A header writer who sets U = O knows the pairing value (1) and hence the
// DEM keys, so without the order check this blob would decrypt under every
// identity to a data key of the forger's choosing.
TEST_F(IbeTest, ForgedInfinityCiphertextRejected) {
  SecureRandom rng(uint64_t{83});
  IbePkg pkg(params_, rng);
  Bytes okm = Hkdf(Fp2::One(params_).Serialize(params_), /*salt=*/{},
                   "keypad-ibe-dem", 80);
  Bytes enc_key(okm.begin(), okm.begin() + 32);
  Bytes mac_key(okm.begin() + 32, okm.begin() + 64);
  Bytes iv(okm.begin() + 64, okm.end());

  IbeCiphertext forged;
  forged.u = EcPoint::Infinity();
  forged.ct = Aes256::Create(enc_key)->CtrXor(iv, 0, BytesOf("chosen key"));
  Bytes mac_input = SerializePoint(forged.u, params_);
  Append(mac_input, forged.ct);
  forged.tag = HmacSha256(mac_key, mac_input);

  EXPECT_FALSE(IbeCiphertext::Deserialize(forged.Serialize(params_), params_)
                   .ok());
  auto pt = IbeDecrypt(pkg.public_params(), pkg.Extract("anyone"), forged);
  EXPECT_FALSE(pt.ok());
}

TEST_F(IbeTest, OrderTwoPrivateKeyRejected) {
  SecureRandom rng(uint64_t{84});
  IbePkg pkg(params_, rng);
  IbeCiphertext ct = Encrypt(pkg, "id", BytesOf("payload"), rng);

  Bytes order_two(1 + 2 * params_.FieldBytes(), 0);
  order_two[0] = 1;  // The affine point (0, 0).
  EXPECT_FALSE(IbePrivateKey::Deserialize("id", order_two, params_).ok());

  IbePrivateKey key;
  key.identity = "id";
  key.d = EcPoint{Fp{}, Fp{}, false};
  auto pt = IbeDecrypt(pkg.public_params(), key, ct);
  EXPECT_FALSE(pt.ok());
  EXPECT_EQ(pt.status().code(), StatusCode::kInvalidArgument);

  // A ciphertext whose U has order 2 is rejected the same way.
  Bytes ser = ct.Serialize(params_);
  std::copy(order_two.begin(), order_two.end(), ser.begin());
  EXPECT_FALSE(IbeCiphertext::Deserialize(ser, params_).ok());
}

TEST_F(IbeTest, CiphertextSerializationRoundTrip) {
  SecureRandom rng(uint64_t{80});
  IbePkg pkg(params_, rng);
  IbeCiphertext ct = Encrypt(pkg, "id", BytesOf("some payload"), rng);
  Bytes ser = ct.Serialize(params_);
  auto back = IbeCiphertext::Deserialize(ser, params_);
  ASSERT_TRUE(back.ok());
  IbePrivateKey key = pkg.Extract("id");
  auto pt = IbeDecrypt(pkg.public_params(), key, *back);
  ASSERT_TRUE(pt.ok());
  EXPECT_EQ(StringOf(*pt), "some payload");
}

TEST_F(IbeTest, PrivateKeySerializationRoundTrip) {
  SecureRandom rng(uint64_t{81});
  IbePkg pkg(params_, rng);
  IbePrivateKey key = pkg.Extract("alice");
  Bytes ser = key.Serialize(params_);
  auto back = IbePrivateKey::Deserialize("alice", ser, params_);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->d, key.d);
}

TEST_F(IbeTest, DistinctPkgsProduceIncompatibleKeys) {
  SecureRandom rng(uint64_t{82});
  IbePkg pkg1(params_, rng);
  IbePkg pkg2(params_, rng);
  IbeCiphertext ct = Encrypt(pkg1, "id", BytesOf("x"), rng);
  IbePrivateKey foreign = pkg2.Extract("id");
  EXPECT_FALSE(IbeDecrypt(pkg1.public_params(), foreign, ct).ok());
}

// Outputs of the affine-BigInt implementation this kernel replaced, recorded
// before the switch: every hash, point, pairing value, key and ciphertext
// must stay byte-identical.
struct GoldenVectors {
  const PairingParams& (*params)();
  const char* hash_alice;     // SerializePoint(HashToPoint("alice")).
  const char* k_times_g;      // SerializePoint([kGoldenScalar]G).
  const char* pairing;        // TatePairing(G, HashToPoint("alice")).
  const char* extracted_key;  // Extract("alice") from IbePkg(seed 1234).
  const char* ciphertext;     // IbeEncrypt("alice", ...) with seed 5678.
};

constexpr const char* kGoldenScalar = "5eedc0ffee123456789abcdef0";

const GoldenVectors kGolden[] = {
    {&BenchPairingParams,
      /*hash_alice=*/
      "019dc92c0527af73d8fa4206923d863c2d8b287e748951f9dc9c0a3e68c2f211"
      "2212cd0a627192cc846010c6ede9be18a9",
      /*k_times_g=*/
      "010ac8f628342e93a41e214afde7c7f2e16d727b46e5bc651979d02c8acc1916"
      "8d1f41fbdc731d02f8c826f3962e48a811",
      /*pairing=*/
      "bc0ccd37c8d6d40a8927f0e04b45e77e109879f9a50650c39bbb731837b573c3"
      "1974c998c62d9cb96a45764b1fbe4e0f",
      /*extracted_key=*/
      "01e0cf79d39fb6ff1306df093f4c00d156ec621fd2c4d519340506385c04cff9"
      "5f55fa56042e397faedb020a3e26421ce5",
      /*ciphertext=*/
      "018d795077c3d00bdb90d13f9bbb2419ab7977f1a54e17db25167bcd80790901"
      "2c0d4a27e04b465a18b56f8dca6f12e07d00000010301988907a18e444781892"
      "a2c56081e500000020602ae0b21d50888cc3055c45e2b3755c57dff0997980f4"
      "a652b5bededdabddb3"},
    {&TestPairingParams,
      /*hash_alice=*/
      "01321309fc27ff6f32e4ebdad04422438308f8ff7ff4f1d5e2b23911897b0ca7"
      "92281cd4c6df963716e7b15c0b32a750de3486f15399f9015016d09231462673"
      "38",
      /*k_times_g=*/
      "0141f9a8572ebcf38b9bbd6479abdfdba6592eff1d29848a5807ec01122552ca"
      "4fa183a40af386ad3484d640b91ca8c0e83ab4f4cdaf6508545a1e807350c47f"
      "6c",
      /*pairing=*/
      "513956bd09767e4fa1176a56940e229973866a3f37ab5b3864c8468650acea7a"
      "158dd2daf9adf5864feea4a20bef56c1079a03e86e843098271c55de1b417d0a",
      /*extracted_key=*/
      "017bb6c19f1feeca9acde6c93dd4d72a520fb68e779e82d4af90df0ed6c56020"
      "17081771f8a21e5609e48d8d885d0679cfc4a625e310c0c6f649e44203b7a7d1"
      "5c",
      /*ciphertext=*/
      "0114098bd46aba352817df862b4d13869038bab37801e2f1df488d5d8f476485"
      "be67e02b577c6d75f9f577f4e7f7263350e1daa2f7435b300adec3c40281a4f7"
      "38000000105323360e514946e4cb9729fdd3d3bc4e00000020ee2bf05a7012bc"
      "5a5bad1221e168c38ff2f06a9f18bd95b084c14ca14fed388c"},
    {&DefaultPairingParams,
      /*hash_alice=*/
      "019e6f179162b7eb55eedb52768fe170e977be7e7f1d9d7ebb8fc4cafb821676"
      "3a26fe7821e18f9ddaac1789766e2ce7174b7c0cd3010557c03ff8417ca81791"
      "7dcaac24f55fc8079ed3c480f38cb44fe60e02ffd24cbb69f1a597633d85d550"
      "264f66e68e3bdd136faa1f1fc933d8987daf91de2dd234d1e9cc640d7fa74248"
      "59",
      /*k_times_g=*/
      "01dca4d948aa3aff6278004365e40af60db929542e14d6c4a49e718bd1a4f98b"
      "7f1d857197919cbdd323bcb7e7534db63162846488096c3ee556904cd4e08725"
      "e31f9cf4b423e9b06904627ba8389f2554ce7934dc0afb253907d0c34d0aa6fc"
      "a98e422c96d29cb78640a2d67a135a5def238e830028b5d0fb5054aa526bb4f5"
      "a0",
      /*pairing=*/
      "af60196274986ac69644833c1de7429aba4a6f75f5290ccee9834f92bbf9dc23"
      "13304d8d7f6e212871f772fcaf755f60436fbc03acb467aed5176966445a6560"
      "2a85e78389476d5500191c752a82cfc11c2f297c2f324ff4af3bff5fe7c4500c"
      "5ef2b61dee9485a76bfd39fc1c256f70808f19acdc10c4a12570cf3ffe52fc02",
      /*extracted_key=*/
      "013a3c0d9441ff0df579368e2324799d7814cb8a1a1f1c40b65342c9bdcea54b"
      "108f692600a9266b89b31a025d6973fcfdbc535d1aac9c6e0914749968e2b9f8"
      "72c9ef98a25c064a4f111f1d887741fe6d61be43935d35c882fd715967e3bbf7"
      "1ef4a2d17587f538f06038130e6f23df8bdacba556d90d2d4ca1deb1df9391de"
      "fc",
      /*ciphertext=*/
      "018c2be61313da1d3676378fa5c72a2031e9aecd0d7df8439c8ddd3656693118"
      "ccf916bd5354076c70bca01e6e8d9df8f72a3486cd458973b9f88d9c2102bfe4"
      "5a5157df735fb97d861cfd6449e47fd97d60880ede3405c18d5a53255cec8dea"
      "5e51e16cdaa1032f5a004dd0c7a513af0d72e330d1a28bb8e928fd264c583d54"
      "4600000010f68e41c1bd8fc678239705a7c02bb7a90000002007b5d4f719668a"
      "2d65d203a177e949384b1da15291dec1c5ddb557c97bf2095a"},
};

TEST(IbeGoldenTest, OutputsMatchRecordedVectors) {
  for (const GoldenVectors& golden : kGolden) {
    const PairingParams& params = golden.params();
    SCOPED_TRACE(params.p.BitLength());
    EcPoint h = HashToPoint("alice", params);
    EXPECT_EQ(ToHex(SerializePoint(h, params)), golden.hash_alice);
    BigInt k = *BigInt::FromHex(kGoldenScalar);
    EXPECT_EQ(ToHex(SerializePoint(EcScalarMul(k, params.g, params), params)),
              golden.k_times_g);
    EXPECT_EQ(ToHex(Pair(params.g, h, params).Serialize(params)),
              golden.pairing);

    SecureRandom pkg_rng(uint64_t{1234});
    IbePkg pkg(params, pkg_rng);
    EXPECT_EQ(ToHex(pkg.Extract("alice").Serialize(params)),
              golden.extracted_key);
    SecureRandom enc_rng(uint64_t{5678});
    IbeCiphertext ct =
        Encrypt(pkg, "alice", BytesOf("golden plaintext"), enc_rng);
    EXPECT_EQ(ToHex(ct.Serialize(params)), golden.ciphertext);
  }
}

TEST(IbeProductionParamsTest, FullRoundTripAt512Bits) {
  const PairingParams& params = DefaultPairingParams();
  EXPECT_EQ(params.p.BitLength(), 512);
  EXPECT_EQ(params.q.BitLength(), 160);
  SecureRandom rng(uint64_t{99});
  IbePkg pkg(params, rng);
  Bytes message(48, 0xAB);
  IbeCiphertext ct = Encrypt(pkg, "prod-id", message, rng);
  auto pt = IbeDecrypt(pkg.public_params(), pkg.Extract("prod-id"), ct);
  ASSERT_TRUE(pt.ok());
  EXPECT_EQ(*pt, message);
}

TEST(IbeParamGenTest, CustomSmallParams) {
  SecureRandom rng(uint64_t{123});
  auto params = GeneratePairingParams(rng, 192, 96);
  ASSERT_TRUE(params.ok());
  EXPECT_EQ(params->p.BitLength(), 192);
  EXPECT_TRUE(EcScalarMul(params->q, params->g, *params).infinity);
  // Pairing is non-degenerate on the fresh group too.
  EXPECT_FALSE(Pair(params->g, params->g, *params).IsOne(*params));
}

TEST(IbeParamGenTest, RejectsBadSizes) {
  SecureRandom rng(uint64_t{124});
  EXPECT_FALSE(GeneratePairingParams(rng, 100, 96).ok());
  EXPECT_FALSE(GeneratePairingParams(rng, 512, 16).ok());
  // Wider than the field kernel's eight limbs.
  EXPECT_FALSE(GeneratePairingParams(rng, 576, 160).ok());
}

}  // namespace
}  // namespace keypad
