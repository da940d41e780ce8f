// Modified Tate pairing ê: E(F_p)[q] × E(F_p)[q] → μ_q ⊂ F_{p^2}^*.
//
// ê(P, Q) = e_q(P, φ(Q)) where e_q is the reduced Tate pairing computed via
// Miller's algorithm, and φ(x, y) = (−x, i·y) is the distortion map of the
// supersingular curve y² = x³ + x. The distorted point has x-coordinate in
// F_p, which makes all vertical-line values lie in F_p and thus vanish under
// the final exponentiation (denominator elimination).
//
// Properties (tested): bilinearity ê(aP, bQ) = ê(P, Q)^{ab}, non-degeneracy
// for points of order q, and ê(P, Q) ∈ μ_q (value^q = 1).

#ifndef SRC_IBE_PAIRING_H_
#define SRC_IBE_PAIRING_H_

#include "src/ibe/curve.h"
#include "src/ibe/fp2.h"

namespace keypad {

// Both P and Q must lie in E(F_p)[q]. Returns 1 if either is infinity.
// Fails, instead of returning a meaningless value, when the loop shows that
// a finite P does not have order q, or when a line vanishes at φ(Q) (Q of
// order 2). A finite Q is not otherwise checked: callers pairing a point
// from outside the program check it with HasOrderQ first.
Result<Fp2> TatePairing(const EcPoint& pt_p, const EcPoint& pt_q,
                        const PairingParams& params);

}  // namespace keypad

#endif  // SRC_IBE_PAIRING_H_
