// Arbitrary-precision unsigned integers, from scratch. The pairing-based
// IBE uses them at its edges — parameter generation (Miller–Rabin), random
// scalars, exponents and conversions; its field arithmetic runs in the
// fixed-width Montgomery kernel of src/ibe/fp.h.
//
// Representation: little-endian vector of 32-bit limbs, normalized (no
// leading zero limbs; zero is the empty vector). All arithmetic is
// value-semantics; modular helpers and Miller–Rabin primality live here too.
//
// This is NOT constant-time; the simulation threat model does not include
// side channels on the simulated client (see DESIGN.md).

#ifndef SRC_CRYPTOCORE_BIGINT_H_
#define SRC_CRYPTOCORE_BIGINT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/cryptocore/secure_random.h"
#include "src/util/bytes.h"
#include "src/util/result.h"

namespace keypad {

class BigInt {
 public:
  BigInt() = default;

  static BigInt Zero() { return BigInt(); }
  static BigInt One() { return FromU64(1); }
  static BigInt FromU64(uint64_t v);
  static Result<BigInt> FromHex(std::string_view hex);
  static BigInt FromBytesBe(const Bytes& bytes);

  // Uniform random integer with exactly `bits` bits (top bit set).
  static BigInt RandomBits(SecureRandom& rng, int bits);
  // Uniform random integer in [0, bound).
  static BigInt RandomBelow(SecureRandom& rng, const BigInt& bound);

  bool IsZero() const { return limbs_.empty(); }
  bool IsOdd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  bool IsOne() const { return limbs_.size() == 1 && limbs_[0] == 1; }

  // Number of significant bits; 0 for zero.
  int BitLength() const;
  // Bit i (0 = least significant).
  bool Bit(int i) const;

  uint64_t ToU64() const;  // Low 64 bits.
  std::string ToHex() const;
  // Big-endian bytes, left-padded with zeros to at least `min_len`.
  Bytes ToBytesBe(size_t min_len = 0) const;

  // Comparison: -1, 0, +1.
  static int Cmp(const BigInt& a, const BigInt& b);
  bool operator==(const BigInt& o) const { return Cmp(*this, o) == 0; }
  bool operator!=(const BigInt& o) const { return Cmp(*this, o) != 0; }
  bool operator<(const BigInt& o) const { return Cmp(*this, o) < 0; }
  bool operator<=(const BigInt& o) const { return Cmp(*this, o) <= 0; }
  bool operator>(const BigInt& o) const { return Cmp(*this, o) > 0; }
  bool operator>=(const BigInt& o) const { return Cmp(*this, o) >= 0; }

  static BigInt Add(const BigInt& a, const BigInt& b);
  // Requires a >= b.
  static BigInt Sub(const BigInt& a, const BigInt& b);
  static BigInt Mul(const BigInt& a, const BigInt& b);
  // Knuth Algorithm D. b must be non-zero.
  static void DivMod(const BigInt& a, const BigInt& b, BigInt* quotient,
                     BigInt* remainder);
  static BigInt Mod(const BigInt& a, const BigInt& m);

  BigInt ShiftLeft(int bits) const;
  BigInt ShiftRight(int bits) const;

  // Modular arithmetic; all inputs must already be reduced mod m (except
  // ModExp's exponent).
  static BigInt ModAdd(const BigInt& a, const BigInt& b, const BigInt& m);
  static BigInt ModSub(const BigInt& a, const BigInt& b, const BigInt& m);
  static BigInt ModMul(const BigInt& a, const BigInt& b, const BigInt& m);
  static BigInt ModExp(const BigInt& base, const BigInt& exp, const BigInt& m);

  // Miller–Rabin with `rounds` random bases (plus base-2), preceded by
  // trial division by small primes.
  static bool IsProbablePrime(const BigInt& n, SecureRandom& rng,
                              int rounds = 24);

 private:
  void Normalize();

  std::vector<uint32_t> limbs_;
};

}  // namespace keypad

#endif  // SRC_CRYPTOCORE_BIGINT_H_
