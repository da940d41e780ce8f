// Arithmetic in F_{p^2} = F_p[i] / (i^2 + 1), for primes p ≡ 3 (mod 4)
// (so that -1 is a quadratic non-residue and the extension is a field).
//
// Elements are re + im·i with re, im in F_p, held in the Montgomery form of
// the params' field kernel (fp.h). This is the target group of the Tate
// pairing used by the Boneh–Franklin IBE.

#ifndef SRC_IBE_FP2_H_
#define SRC_IBE_FP2_H_

#include "src/cryptocore/bigint.h"
#include "src/ibe/curve.h"
#include "src/ibe/fp.h"
#include "src/util/bytes.h"
#include "src/util/result.h"

namespace keypad {

struct Fp2 {
  Fp re;
  Fp im;

  static Fp2 Zero() { return {}; }
  static Fp2 One(const PairingParams& params) {
    return {params.field.One(), Fp{}};
  }

  bool IsZero() const { return re.IsZero() && im.IsZero(); }
  bool IsOne(const PairingParams& params) const { return *this == One(params); }
  bool operator==(const Fp2& o) const = default;

  // Fixed-width big-endian serialization (re || im), each padded to the
  // byte length of p.
  Bytes Serialize(const PairingParams& params) const;
};

Fp2 Fp2Add(const Fp2& a, const Fp2& b, const PairingParams& params);
Fp2 Fp2Sub(const Fp2& a, const Fp2& b, const PairingParams& params);
Fp2 Fp2Mul(const Fp2& a, const Fp2& b, const PairingParams& params);
Fp2 Fp2Square(const Fp2& a, const PairingParams& params);
// Conjugate re - im·i; equals the Frobenius map a^p for p ≡ 3 (mod 4).
Fp2 Fp2Conjugate(const Fp2& a, const PairingParams& params);
// Multiplicative inverse; fails for zero.
Result<Fp2> Fp2Inverse(const Fp2& a, const PairingParams& params);
Fp2 Fp2Pow(const Fp2& a, const BigInt& e, const PairingParams& params);

}  // namespace keypad

#endif  // SRC_IBE_FP2_H_
