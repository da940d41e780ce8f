#include "src/ibe/curve.h"

#include <cstdlib>

#include "src/cryptocore/sha256.h"
#include "src/util/logging.h"

namespace keypad {

namespace {

// y^2 = x^3 + x  =>  rhs(x) = x^3 + x.
Fp CurveRhs(const Fp& x, const FpField& f) {
  return f.Add(f.Mul(f.Sqr(x), x), x);
}

// Jacobian projective point: x = X/Z^2, y = Y/Z^3. Scalar multiplication in
// Jacobian coordinates avoids the per-step modular inversion of affine
// arithmetic (one inversion total, at the end).
struct JacPoint {
  Fp x;
  Fp y;
  Fp z;  // Zero => point at infinity.

  bool IsInfinity() const { return z.IsZero(); }
};

JacPoint JacFromAffine(const EcPoint& pt, const FpField& f) {
  if (pt.infinity) {
    return {Fp{}, f.One(), Fp{}};
  }
  return {pt.x, pt.y, f.One()};
}

// Doubling for curve y^2 = x^3 + a x + b with a = 1.
JacPoint JacDouble(const JacPoint& pt, const FpField& f) {
  if (pt.IsInfinity() || pt.y.IsZero()) {
    return {Fp{}, f.One(), Fp{}};
  }
  Fp y2 = f.Sqr(pt.y);
  Fp s = f.Dbl(f.Dbl(f.Mul(pt.x, y2)));  // S = 4 X Y^2.
  Fp z2 = f.Sqr(pt.z);
  Fp x2 = f.Sqr(pt.x);
  Fp m = f.Add(f.Add(f.Dbl(x2), x2), f.Sqr(z2));  // M = 3 X^2 + a Z^4.
  Fp x3 = f.Sub(f.Sqr(m), f.Dbl(s));
  Fp y4_8 = f.Dbl(f.Dbl(f.Dbl(f.Sqr(y2))));
  Fp y3 = f.Sub(f.Mul(m, f.Sub(s, x3)), y4_8);
  Fp z3 = f.Mul(f.Dbl(pt.y), pt.z);
  return {x3, y3, z3};
}

// Mixed addition: Jacobian + affine.
JacPoint JacAddAffine(const JacPoint& a, const EcPoint& b, const FpField& f) {
  if (b.infinity) {
    return a;
  }
  if (a.IsInfinity()) {
    return JacFromAffine(b, f);
  }
  Fp z2 = f.Sqr(a.z);
  Fp u2 = f.Mul(b.x, z2);
  Fp s2 = f.Mul(b.y, f.Mul(z2, a.z));
  Fp h = f.Sub(u2, a.x);
  Fp r = f.Sub(s2, a.y);
  if (h.IsZero()) {
    if (r.IsZero()) {
      return JacDouble(a, f);
    }
    return {Fp{}, f.One(), Fp{}};  // a + (-a).
  }
  Fp h2 = f.Sqr(h);
  Fp h3 = f.Mul(h2, h);
  Fp v = f.Mul(a.x, h2);
  Fp x3 = f.Sub(f.Sub(f.Sqr(r), h3), f.Dbl(v));
  Fp y3 = f.Sub(f.Mul(r, f.Sub(v, x3)), f.Mul(a.y, h3));
  Fp z3 = f.Mul(a.z, h);
  return {x3, y3, z3};
}

EcPoint JacToAffine(const JacPoint& pt, const FpField& f) {
  if (pt.IsInfinity()) {
    return EcPoint::Infinity();
  }
  Fp z_inv = f.Inv(pt.z);  // Non-zero: the point is finite.
  Fp z_inv2 = f.Sqr(z_inv);
  return {f.Mul(pt.x, z_inv2), f.Mul(pt.y, f.Mul(z_inv2, z_inv)), false};
}

}  // namespace

bool IsOnCurve(const EcPoint& pt, const PairingParams& params) {
  if (pt.infinity) {
    return true;
  }
  const FpField& f = params.field;
  return f.Sqr(pt.y) == CurveRhs(pt.x, f);
}

bool HasOrderQ(const EcPoint& pt, const PairingParams& params) {
  return !pt.infinity && IsOnCurve(pt, params) &&
         EcScalarMul(params.q, pt, params).infinity;
}

EcPoint EcNegate(const EcPoint& a, const PairingParams& params) {
  if (a.infinity) {
    return a;
  }
  return {a.x, params.field.Neg(a.y), false};
}

EcPoint EcDouble(const EcPoint& a, const PairingParams& params) {
  const FpField& f = params.field;
  return JacToAffine(JacDouble(JacFromAffine(a, f), f), f);
}

EcPoint EcAdd(const EcPoint& a, const EcPoint& b,
              const PairingParams& params) {
  const FpField& f = params.field;
  return JacToAffine(JacAddAffine(JacFromAffine(a, f), b, f), f);
}

EcPoint EcScalarMul(const BigInt& k, const EcPoint& pt,
                    const PairingParams& params) {
  if (k.IsZero() || pt.infinity) {
    return EcPoint::Infinity();
  }
  const FpField& f = params.field;
  JacPoint result{Fp{}, f.One(), Fp{}};
  int bits = k.BitLength();
  for (int i = bits - 1; i >= 0; --i) {
    result = JacDouble(result, f);
    if (k.Bit(i)) {
      result = JacAddAffine(result, pt, f);
    }
  }
  return JacToAffine(result, f);
}

EcPoint HashToPoint(std::string_view id, const PairingParams& params) {
  const FpField& f = params.field;
  for (uint32_t counter = 0;; ++counter) {
    // x = H("kp-ibe-h1" || counter || id) expanded to field width, mod p.
    Bytes seed;
    Append(seed, "kp-ibe-h1");
    AppendU32Be(seed, counter);
    Append(seed, id);
    Bytes wide;
    // Expand to FieldBytes()+8 bytes via counter-mode hashing so the value
    // is statistically uniform mod p.
    uint32_t block = 0;
    while (wide.size() < params.FieldBytes() + 8) {
      Bytes in = seed;
      AppendU32Be(in, block++);
      Sha256::Digest d = Sha256::Hash(in);
      wide.insert(wide.end(), d.begin(), d.end());
    }
    Fp x = f.FromBigInt(BigInt::Mod(BigInt::FromBytesBe(wide), params.p));
    Fp rhs = CurveRhs(x, f);
    Fp y;
    if (rhs.IsZero() || !f.Sqrt(rhs, &y)) {
      continue;
    }
    // Use the hash to pick the sign of y deterministically.
    if ((wide.back() & 1) != 0) {
      y = f.Neg(y);
    }
    EcPoint q = EcScalarMul(params.cofactor, EcPoint{x, y, false}, params);
    if (q.infinity) {
      continue;
    }
    return q;
  }
}

Result<PairingParams> GeneratePairingParams(SecureRandom& rng, int p_bits,
                                            int q_bits) {
  if (p_bits < q_bits + 8 || q_bits < 32 || p_bits > 64 * kFpMaxLimbs) {
    return InvalidArgumentError("pairing params: bad bit sizes");
  }
  // Find prime q.
  BigInt q;
  while (true) {
    q = BigInt::RandomBits(rng, q_bits);
    if (!q.IsOdd()) {
      q = BigInt::Add(q, BigInt::One());
    }
    if (BigInt::IsProbablePrime(q, rng, 24)) {
      break;
    }
  }

  // Find c such that p = 12*q*c - 1 is prime with the requested bit length.
  BigInt twelve_q = BigInt::Mul(BigInt::FromU64(12), q);
  int c_bits = p_bits - twelve_q.BitLength() + 1;
  if (c_bits < 1) {
    return InvalidArgumentError("pairing params: q too large for p");
  }
  BigInt p, cofactor;
  while (true) {
    BigInt c = BigInt::RandomBits(rng, c_bits);
    p = BigInt::Sub(BigInt::Mul(twelve_q, c), BigInt::One());
    if (p.BitLength() != p_bits) {
      continue;
    }
    if (!BigInt::IsProbablePrime(p, rng, 4)) {
      continue;
    }
    if (!BigInt::IsProbablePrime(p, rng, 24)) {
      continue;
    }
    cofactor = BigInt::Mul(BigInt::FromU64(12), c);
    break;
  }
  // p = 12qc - 1 ≡ 3 (mod 4) by construction; F_{p^2} = F_p[i] and the
  // square root in HashToPoint both rely on it.
  if (!p.Bit(0) || !p.Bit(1)) {
    return InternalError("pairing params: p is not 3 mod 4");
  }

  PairingParams params;
  params.p = p;
  params.q = q;
  params.cofactor = cofactor;
  params.field = FpField(p);
  // Derive a generator deterministically from the parameters.
  params.g = HashToPoint("keypad-pairing-generator", params);
  // Sanity: generator must have exact order q.
  if (!HasOrderQ(params.g, params)) {
    return InternalError("pairing params: generator order check failed");
  }
  return params;
}

namespace {
const PairingParams* NewParamsOrDie(uint64_t seed, int p_bits, int q_bits) {
  SecureRandom rng(seed);
  auto params = GeneratePairingParams(rng, p_bits, q_bits);
  if (!params.ok()) {
    KP_LOG(kError) << "pairing parameter generation failed: "
                   << params.status();
    abort();
  }
  return new PairingParams(std::move(*params));
}
}  // namespace

const PairingParams& DefaultPairingParams() {
  static const PairingParams* params =
      NewParamsOrDie(/*seed=*/0x4B455950414431ull, /*p_bits=*/512,
                     /*q_bits=*/160);
  return *params;
}

const PairingParams& TestPairingParams() {
  static const PairingParams* params =
      NewParamsOrDie(/*seed=*/0x4B455950414432ull, /*p_bits=*/256,
                     /*q_bits=*/150);
  return *params;
}

const PairingParams& BenchPairingParams() {
  static const PairingParams* params =
      NewParamsOrDie(/*seed=*/0x4B455950414433ull, /*p_bits=*/192,
                     /*q_bits=*/96);
  return *params;
}

Bytes SerializePoint(const EcPoint& pt, const PairingParams& params) {
  Bytes out;
  if (pt.infinity) {
    out.push_back(0);
    out.resize(1 + 2 * params.FieldBytes(), 0);
    return out;
  }
  out.push_back(1);
  Append(out, params.field.ToBytesBe(pt.x, params.FieldBytes()));
  Append(out, params.field.ToBytesBe(pt.y, params.FieldBytes()));
  return out;
}

Result<EcPoint> DeserializePoint(const Bytes& data,
                                 const PairingParams& params) {
  size_t fb = params.FieldBytes();
  if (data.size() != 1 + 2 * fb) {
    return InvalidArgumentError("point: bad length");
  }
  if (data[0] == 0) {
    return EcPoint::Infinity();
  }
  if (data[0] != 1) {
    return InvalidArgumentError("point: bad marker");
  }
  EcPoint pt;
  if (!params.field.FromBytesBe(data.data() + 1, fb, &pt.x) ||
      !params.field.FromBytesBe(data.data() + 1 + fb, fb, &pt.y) ||
      !IsOnCurve(pt, params)) {
    return InvalidArgumentError("point: not on curve");
  }
  return pt;
}

}  // namespace keypad
