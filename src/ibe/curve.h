// The supersingular elliptic curve E: y^2 = x^3 + x over F_p, p ≡ 3 (mod 4),
// used by the Boneh–Franklin IBE ("type A" pairing group).
//
// For such p the curve is supersingular with #E(F_p) = p + 1. Parameters are
// generated as p = 12·q·c − 1 for a prime q (the pairing group order), which
// guarantees p ≡ 3 (mod 4) and q | p + 1. The distortion map
// φ(x, y) = (−x, i·y) sends E(F_p)[q] into a linearly independent q-torsion
// subgroup over F_{p^2}, making the modified Tate pairing
// ê(P, Q) = e(P, φ(Q)) non-degenerate on E(F_p)[q] × E(F_p)[q].

#ifndef SRC_IBE_CURVE_H_
#define SRC_IBE_CURVE_H_

#include <string_view>

#include "src/cryptocore/bigint.h"
#include "src/cryptocore/secure_random.h"
#include "src/ibe/fp.h"
#include "src/util/result.h"

namespace keypad {

// Affine point on E(F_p), coordinates in Montgomery form (see fp.h);
// (0, 0, infinity=true) is the identity.
struct EcPoint {
  Fp x;
  Fp y;
  bool infinity = false;

  static EcPoint Infinity() { return {Fp{}, Fp{}, true}; }
  bool operator==(const EcPoint& o) const {
    if (infinity || o.infinity) {
      return infinity == o.infinity;
    }
    return x == o.x && y == o.y;
  }
};

// Pairing group parameters.
struct PairingParams {
  BigInt p;         // Field prime, p = 12·q·c − 1.
  BigInt q;         // Prime group order, q | p + 1.
  BigInt cofactor;  // (p + 1) / q = 12·c.
  FpField field;    // Montgomery context for p, built with the params.
  EcPoint g;        // Generator of E(F_p)[q].

  // Byte length of one field element.
  size_t FieldBytes() const {
    return (static_cast<size_t>(p.BitLength()) + 7) / 8;
  }
};

// Generates fresh parameters: a `q_bits`-bit prime q and `p_bits`-bit prime
// p = 12qc − 1, plus a generator. Deterministic for a given rng state.
// p_bits may not exceed 64·kFpMaxLimbs.
Result<PairingParams> GeneratePairingParams(SecureRandom& rng, int p_bits,
                                            int q_bits);

// Shared default parameter sets, generated once (lazily) from fixed seeds:
// Production-strength: 512-bit p, 160-bit q (as in the Boneh–Franklin
// suggested parameters of the era). Test-strength: 256-bit p, 150-bit q,
// used by unit tests that don't measure security; a pairing costs 5–8x less
// than at production strength (bench_crypto_micro medians, which vary that
// much between runs; DESIGN.md §16).
const PairingParams& DefaultPairingParams();
const PairingParams& TestPairingParams();
// Minimal-size group (192-bit p, 96-bit q) for the workload benches, where
// thousands of IBE operations run per data point and only the mechanism —
// not the security margin — matters; a pairing costs 12–15x less than at
// production strength.
const PairingParams& BenchPairingParams();

// True if P satisfies the curve equation (or is the identity).
bool IsOnCurve(const EcPoint& pt, const PairingParams& params);
// True if P is a point of order exactly q: on the curve, not the identity,
// and [q]P = O. This is what a pairing input received from outside must
// pass; costs one scalar multiplication.
bool HasOrderQ(const EcPoint& pt, const PairingParams& params);

EcPoint EcAdd(const EcPoint& a, const EcPoint& b, const PairingParams& params);
EcPoint EcDouble(const EcPoint& a, const PairingParams& params);
EcPoint EcNegate(const EcPoint& a, const PairingParams& params);
EcPoint EcScalarMul(const BigInt& k, const EcPoint& pt,
                    const PairingParams& params);

// Hashes an arbitrary identity string onto E(F_p)[q] (try-and-increment on
// the x-coordinate, then cofactor multiplication). Never returns infinity.
EcPoint HashToPoint(std::string_view id, const PairingParams& params);

// Fixed-width serialization: a marker byte (0 = infinity, 1 = affine)
// followed by x || y, each FieldBytes() long. Round-trips with
// DeserializePoint, which also validates curve membership (but not the
// order: callers that pair the point check HasOrderQ).
Bytes SerializePoint(const EcPoint& pt, const PairingParams& params);
Result<EcPoint> DeserializePoint(const Bytes& data,
                                 const PairingParams& params);

}  // namespace keypad

#endif  // SRC_IBE_CURVE_H_
