#include "src/ibe/pairing.h"

namespace keypad {

namespace {

// Miller's loop keeps the running point V = (X, Y, Z) in Jacobian
// coordinates (x = X/Z², y = Y/Z³) and evaluates each line at the distorted
// point φ(Q) = (−x_Q, i·y_Q). The affine line value
//   l(φQ) = i·y_Q − y_V − λ(−x_Q − x_V)
// has a slope λ with a denominator; each step multiplies l by that
// denominator (times a power of Z) instead of inverting it. The factor lies
// in F_p*, and the final exponentiation (p²−1)/q = (p−1)·(p+1)/q sends every
// element of F_p* to 1, so the reduced pairing is the same field element as
// the affine loop's and only the final exponentiation inverts.
struct JacPoint {
  Fp x;
  Fp y;
  Fp z;
};

// V ← 2V; returns the tangent line at the old V scaled by Z_{2V}·Z². With
// M = 3X² + Z⁴ (curve coefficient a = 1), λ = M / (2YZ) and Z_{2V} = 2YZ:
//   Z_{2V}·Z²·l = M·(X + x_Q·Z²) − 2Y²  +  Z_{2V}·Z²·y_Q · i.
// V must have y ≠ 0.
Fp2 DoubleStep(JacPoint* v, const Fp& x_q, const Fp& y_q, const FpField& f) {
  Fp y2 = f.Sqr(v->y);
  Fp z2 = f.Sqr(v->z);
  Fp x2 = f.Sqr(v->x);
  Fp m = f.Add(f.Add(f.Dbl(x2), x2), f.Sqr(z2));
  Fp s = f.Dbl(f.Dbl(f.Mul(v->x, y2)));  // S = 4XY².
  Fp line_re = f.Sub(f.Mul(m, f.Add(v->x, f.Mul(x_q, z2))), f.Dbl(y2));
  Fp x3 = f.Sub(f.Sqr(m), f.Dbl(s));
  Fp y3 = f.Sub(f.Mul(m, f.Sub(s, x3)), f.Dbl(f.Dbl(f.Dbl(f.Sqr(y2)))));
  Fp z3 = f.Mul(f.Dbl(v->y), v->z);
  *v = {x3, y3, z3};
  return {line_re, f.Mul(f.Mul(z3, z2), y_q)};
}

// V ← V + P for affine P; returns false, leaving V alone, if x_V = x_P
// (V = ±P, where the chord is undefined or vertical). Otherwise returns the
// chord through V and P scaled by Z_{V+P} = Z·H, where H = x_P·Z² − X,
// R = y_P·Z³ − Y and λ = R / (Z·H):
//   Z_{V+P}·l = R·(x_P + x_Q) − Z_{V+P}·y_P  +  Z_{V+P}·y_Q · i.
bool AddStep(JacPoint* v, const EcPoint& pt, const Fp& x_pq, const Fp& y_q,
             const FpField& f, Fp2* line) {
  Fp z2 = f.Sqr(v->z);
  Fp h = f.Sub(f.Mul(pt.x, z2), v->x);
  if (h.IsZero()) {
    return false;
  }
  Fp r = f.Sub(f.Mul(pt.y, f.Mul(z2, v->z)), v->y);
  Fp h2 = f.Sqr(h);
  Fp h3 = f.Mul(h2, h);
  Fp u = f.Mul(v->x, h2);
  Fp x3 = f.Sub(f.Sub(f.Sqr(r), h3), f.Dbl(u));
  Fp y3 = f.Sub(f.Mul(r, f.Sub(u, x3)), f.Mul(v->y, h3));
  Fp z3 = f.Mul(v->z, h);
  *v = {x3, y3, z3};
  *line = {f.Sub(f.Mul(r, x_pq), f.Mul(z3, pt.y)), f.Mul(z3, y_q)};
  return true;
}

// True if Jacobian V is the affine point −P.
bool IsNegationOf(const JacPoint& v, const EcPoint& pt, const FpField& f) {
  Fp z2 = f.Sqr(v.z);
  return !v.z.IsZero() && v.x == f.Mul(pt.x, z2) &&
         v.y == f.Neg(f.Mul(pt.y, f.Mul(z2, v.z)));
}

Status NotOrderQ() {
  return InvalidArgumentError("pairing: P is not a point of order q");
}

}  // namespace

Result<Fp2> TatePairing(const EcPoint& pt_p, const EcPoint& pt_q,
                        const PairingParams& params) {
  if (pt_p.infinity || pt_q.infinity) {
    return Fp2::One(params);
  }
  const FpField& f = params.field;
  const BigInt& q = params.q;
  Fp x_pq = f.Add(pt_p.x, pt_q.x);

  Fp2 acc = Fp2::One(params);
  JacPoint v{pt_p.x, pt_p.y, f.One()};
  for (int i = q.BitLength() - 2; i >= 0; --i) {
    // acc <- acc^2 * l_{V,V}(φQ); V <- 2V.
    if (v.y.IsZero()) {
      return NotOrderQ();  // V has order 2.
    }
    acc = Fp2Mul(Fp2Square(acc, params), DoubleStep(&v, pt_q.x, pt_q.y, f),
                 params);
    if (!q.Bit(i)) {
      continue;
    }
    if (i == 0) {
      // The last addition: for P of order q, V = [q−1]P = −P and the chord
      // is the vertical line, whose value lies in F_p and dies in the
      // final exponentiation. Any other V means [q]P ≠ O.
      if (!IsNegationOf(v, pt_p, f)) {
        return NotOrderQ();
      }
      break;
    }
    // acc <- acc * l_{V,P}(φQ); V <- V + P.
    Fp2 line;
    if (!AddStep(&v, pt_p, x_pq, pt_q.y, f, &line)) {
      return NotOrderQ();  // V = ±P before the last bit.
    }
    acc = Fp2Mul(acc, line, params);
  }

  // Final exponentiation: acc^((p^2−1)/q) = (acc^(p−1))^((p+1)/q).
  // Frobenius: acc^p = conj(acc) for p ≡ 3 (mod 4), so acc^(p−1) =
  // conj(acc)/acc. acc is zero only if a line vanished at φ(Q), which a Q of
  // order q rules out.
  KP_ASSIGN_OR_RETURN(Fp2 inv, Fp2Inverse(acc, params));
  Fp2 g = Fp2Mul(Fp2Conjugate(acc, params), inv, params);
  return Fp2Pow(g, params.cofactor, params);
}

}  // namespace keypad
