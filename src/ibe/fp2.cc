#include "src/ibe/fp2.h"

namespace keypad {

Bytes Fp2::Serialize(const PairingParams& params) const {
  Bytes out = params.field.ToBytesBe(re, params.FieldBytes());
  Append(out, params.field.ToBytesBe(im, params.FieldBytes()));
  return out;
}

Fp2 Fp2Add(const Fp2& a, const Fp2& b, const PairingParams& params) {
  const FpField& f = params.field;
  return {f.Add(a.re, b.re), f.Add(a.im, b.im)};
}

Fp2 Fp2Sub(const Fp2& a, const Fp2& b, const PairingParams& params) {
  const FpField& f = params.field;
  return {f.Sub(a.re, b.re), f.Sub(a.im, b.im)};
}

Fp2 Fp2Mul(const Fp2& a, const Fp2& b, const PairingParams& params) {
  // (a0 + a1 i)(b0 + b1 i) = (a0 b0 - a1 b1) + (a0 b1 + a1 b0) i.
  // Karatsuba-style: three multiplications.
  const FpField& f = params.field;
  Fp t0 = f.Mul(a.re, b.re);
  Fp t1 = f.Mul(a.im, b.im);
  Fp t2 = f.Mul(f.Add(a.re, a.im), f.Add(b.re, b.im));
  return {f.Sub(t0, t1), f.Sub(f.Sub(t2, t0), t1)};
}

Fp2 Fp2Square(const Fp2& a, const PairingParams& params) {
  // (a0 + a1 i)^2 = (a0+a1)(a0-a1) + 2 a0 a1 i.
  const FpField& f = params.field;
  Fp cross = f.Mul(a.re, a.im);
  return {f.Mul(f.Add(a.re, a.im), f.Sub(a.re, a.im)), f.Dbl(cross)};
}

Fp2 Fp2Conjugate(const Fp2& a, const PairingParams& params) {
  return {a.re, params.field.Neg(a.im)};
}

Result<Fp2> Fp2Inverse(const Fp2& a, const PairingParams& params) {
  if (a.IsZero()) {
    return InvalidArgumentError("fp2: zero has no inverse");
  }
  // 1/(a0 + a1 i) = (a0 - a1 i) / (a0^2 + a1^2); the norm is non-zero
  // because -1 is not a square mod p.
  const FpField& f = params.field;
  Fp norm_inv = f.Inv(f.Add(f.Sqr(a.re), f.Sqr(a.im)));
  return Fp2{f.Mul(a.re, norm_inv), f.Neg(f.Mul(a.im, norm_inv))};
}

Fp2 Fp2Pow(const Fp2& a, const BigInt& e, const PairingParams& params) {
  Fp2 result = Fp2::One(params);
  for (int i = e.BitLength() - 1; i >= 0; --i) {
    result = Fp2Square(result, params);
    if (e.Bit(i)) {
      result = Fp2Mul(result, a, params);
    }
  }
  return result;
}

}  // namespace keypad
