// The prime-field kernel under the pairing: elements of F_p as at most eight
// 64-bit limbs on the stack, in Montgomery form.
//
// An `FpField` is the per-prime context (p, −p⁻¹ mod 2⁶⁴, R mod p and
// R² mod p, with R = 2^(64·n) for an n-limb p). It is built once with the
// `PairingParams` and carried by them. Multiplication and squaring are
// Montgomery products over `unsigned __int128` — CIOS for the product,
// separated operand scanning for the square — with the limb count fixed at
// compile time for each supported width, so no operation touches the heap
// and none divides.
//
// `BigInt` appears only at the edges: building the context, converting
// parameters and test values in and out, and exponents (which are read bit
// by bit, never copied).

#ifndef SRC_IBE_FP_H_
#define SRC_IBE_FP_H_

#include <cstddef>
#include <cstdint>

#include "src/cryptocore/bigint.h"
#include "src/util/bytes.h"

namespace keypad {

inline constexpr int kFpMaxLimbs = 8;  // Up to 512-bit primes.

// An element a of F_p stored as a·R mod p: fully reduced, little-endian,
// with the limbs at and above the field's limb count kept zero. The
// representation is canonical, so limb equality is field equality and the
// all-zero value is the field's zero.
struct Fp {
  uint64_t limb[kFpMaxLimbs] = {};

  bool IsZero() const;
  bool operator==(const Fp& o) const = default;
};

class FpField {
 public:
  FpField() = default;
  // p must be an odd prime of at most 64·kFpMaxLimbs bits (and 3 mod 4
  // for Sqrt).
  explicit FpField(const BigInt& p);

  int limbs() const { return n_; }
  const Fp& One() const { return one_; }

  // Conversions at the edges. FromBigInt requires v < p.
  Fp FromBigInt(const BigInt& v) const;
  BigInt ToBigInt(const Fp& a) const;
  // Big-endian, left-padded to `len` bytes (len must hold p).
  Bytes ToBytesBe(const Fp& a, size_t len) const;
  // Parses `len` big-endian bytes; false if the value is not below p.
  bool FromBytesBe(const uint8_t* data, size_t len, Fp* out) const;

  // Defined inline: these sit on every hot path, and the kernel itself is
  // reached through one indirect call chosen by the limb count.
  Fp Add(const Fp& a, const Fp& b) const {
    Fp r;
    add_(r.limb, a.limb, b.limb, *this);
    return r;
  }
  Fp Sub(const Fp& a, const Fp& b) const {
    Fp r;
    sub_(r.limb, a.limb, b.limb, *this);
    return r;
  }
  Fp Neg(const Fp& a) const { return Sub(Fp{}, a); }
  Fp Dbl(const Fp& a) const { return Add(a, a); }
  Fp Mul(const Fp& a, const Fp& b) const {
    Fp r;
    mul_(r.limb, a.limb, b.limb, *this);
    return r;
  }
  Fp Sqr(const Fp& a) const {
    Fp r;
    sqr_(r.limb, a.limb, nullptr, *this);
    return r;
  }
  // a^e for a plain (non-Montgomery) exponent; 0^0 = 1.
  Fp Pow(const Fp& a, const BigInt& e) const;
  // a^(p−2): the inverse of a non-zero a, and 0 for a = 0 — callers that can
  // see a zero must test for it first.
  Fp Inv(const Fp& a) const;
  // If a is a square, sets *root = a^((p+1)/4) (a square root, since
  // p ≡ 3 mod 4) and returns true; otherwise returns false.
  bool Sqrt(const Fp& a, Fp* root) const;

 private:
  using BinaryOp = void (*)(uint64_t* r, const uint64_t* a, const uint64_t* b,
                            const FpField& f);

  int n_ = 0;
  uint64_t p_[kFpMaxLimbs] = {};
  uint64_t n0_ = 0;  // −p⁻¹ mod 2⁶⁴.
  Fp one_;           // R mod p.
  Fp r2_;            // R² mod p.
  BigInt p_minus_2_;
  BigInt sqrt_exp_;  // (p + 1) / 4.
  BinaryOp add_ = nullptr;
  BinaryOp sub_ = nullptr;
  BinaryOp mul_ = nullptr;
  BinaryOp sqr_ = nullptr;  // Ignores its second operand.

  template <int N>
  friend struct FpKernel;
};

}  // namespace keypad

#endif  // SRC_IBE_FP_H_
