#include "src/cryptocore/bigint.h"

#include <algorithm>
#include <cassert>

namespace keypad {

namespace {
constexpr uint64_t kBase = 1ull << 32;

// Small primes for trial division in IsProbablePrime.
constexpr uint32_t kSmallPrimes[] = {
    3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,  43,  47,
    53,  59,  61,  67,  71,  73,  79,  83,  89,  97,  101, 103, 107, 109,
    113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191,
    193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269,
    271, 277, 281, 283, 293, 307, 311, 313, 317, 331, 337, 347, 349, 353,
    359, 367, 373, 379, 383, 389, 397, 401, 409, 419, 421, 431, 433, 439,
    443, 449, 457, 461, 463, 467, 479, 487, 491, 499, 503, 509, 521, 523,
    541, 547, 557, 563, 569, 571, 577, 587, 593, 599, 601, 607, 613, 617,
    619, 631, 641, 643, 647, 653, 659, 661, 673, 677, 683, 691, 701, 709,
    719, 727, 733, 739, 743, 751, 757, 761, 769, 773, 787, 797, 809, 811,
    821, 823, 827, 829, 839, 853, 857, 859, 863, 877, 881, 883, 887, 907,
    911, 919, 929, 937, 941, 947, 953, 967, 971, 977, 983, 991, 997};
}  // namespace

void BigInt::Normalize() {
  while (!limbs_.empty() && limbs_.back() == 0) {
    limbs_.pop_back();
  }
}

BigInt BigInt::FromU64(uint64_t v) {
  BigInt out;
  if (v != 0) {
    out.limbs_.push_back(static_cast<uint32_t>(v));
    if (v >> 32) {
      out.limbs_.push_back(static_cast<uint32_t>(v >> 32));
    }
  }
  return out;
}

Result<BigInt> BigInt::FromHex(std::string_view hex) {
  if (hex.size() % 2 != 0) {
    // Left-pad to even length.
    std::string padded = "0";
    padded += hex;
    KP_ASSIGN_OR_RETURN(Bytes bytes, keypad::FromHex(padded));
    return FromBytesBe(bytes);
  }
  KP_ASSIGN_OR_RETURN(Bytes bytes, keypad::FromHex(hex));
  return FromBytesBe(bytes);
}

BigInt BigInt::FromBytesBe(const Bytes& bytes) {
  BigInt out;
  out.limbs_.assign((bytes.size() + 3) / 4, 0);
  for (size_t i = 0; i < bytes.size(); ++i) {
    size_t bit_pos = (bytes.size() - 1 - i) * 8;
    out.limbs_[bit_pos / 32] |= static_cast<uint32_t>(bytes[i])
                                << (bit_pos % 32);
  }
  out.Normalize();
  return out;
}

BigInt BigInt::RandomBits(SecureRandom& rng, int bits) {
  assert(bits > 0);
  size_t nbytes = (static_cast<size_t>(bits) + 7) / 8;
  Bytes bytes = rng.NextBytes(nbytes);
  // Mask excess top bits, then force the top bit on.
  int top_bits = bits % 8 == 0 ? 8 : bits % 8;
  bytes[0] &= static_cast<uint8_t>((1 << top_bits) - 1);
  bytes[0] |= static_cast<uint8_t>(1 << (top_bits - 1));
  return FromBytesBe(bytes);
}

BigInt BigInt::RandomBelow(SecureRandom& rng, const BigInt& bound) {
  assert(!bound.IsZero());
  int bits = bound.BitLength();
  size_t nbytes = (static_cast<size_t>(bits) + 7) / 8;
  int top_bits = bits % 8 == 0 ? 8 : bits % 8;
  while (true) {
    Bytes bytes = rng.NextBytes(nbytes);
    bytes[0] &= static_cast<uint8_t>((1 << top_bits) - 1);
    BigInt candidate = FromBytesBe(bytes);
    if (candidate < bound) {
      return candidate;
    }
  }
}

int BigInt::BitLength() const {
  if (limbs_.empty()) {
    return 0;
  }
  uint32_t top = limbs_.back();
  int bits = static_cast<int>(limbs_.size() - 1) * 32;
  while (top != 0) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

bool BigInt::Bit(int i) const {
  size_t limb = static_cast<size_t>(i) / 32;
  if (limb >= limbs_.size()) {
    return false;
  }
  return (limbs_[limb] >> (i % 32)) & 1;
}

uint64_t BigInt::ToU64() const {
  uint64_t v = 0;
  if (!limbs_.empty()) {
    v = limbs_[0];
  }
  if (limbs_.size() > 1) {
    v |= static_cast<uint64_t>(limbs_[1]) << 32;
  }
  return v;
}

std::string BigInt::ToHex() const {
  if (IsZero()) {
    return "0";
  }
  Bytes bytes = ToBytesBe();
  std::string hex = keypad::ToHex(bytes);
  // Strip leading zeros (keep at least one digit).
  size_t pos = hex.find_first_not_of('0');
  return hex.substr(pos == std::string::npos ? hex.size() - 1 : pos);
}

Bytes BigInt::ToBytesBe(size_t min_len) const {
  size_t nbytes = (static_cast<size_t>(BitLength()) + 7) / 8;
  if (nbytes < min_len) {
    nbytes = min_len;
  }
  if (nbytes == 0) {
    nbytes = 1;
  }
  Bytes out(nbytes, 0);
  for (size_t i = 0; i < nbytes; ++i) {
    size_t bit_pos = (nbytes - 1 - i) * 8;
    size_t limb = bit_pos / 32;
    if (limb < limbs_.size()) {
      out[i] = static_cast<uint8_t>(limbs_[limb] >> (bit_pos % 32));
    }
  }
  return out;
}

int BigInt::Cmp(const BigInt& a, const BigInt& b) {
  if (a.limbs_.size() != b.limbs_.size()) {
    return a.limbs_.size() < b.limbs_.size() ? -1 : 1;
  }
  for (size_t i = a.limbs_.size(); i > 0; --i) {
    if (a.limbs_[i - 1] != b.limbs_[i - 1]) {
      return a.limbs_[i - 1] < b.limbs_[i - 1] ? -1 : 1;
    }
  }
  return 0;
}

BigInt BigInt::Add(const BigInt& a, const BigInt& b) {
  BigInt out;
  size_t n = std::max(a.limbs_.size(), b.limbs_.size());
  out.limbs_.resize(n + 1, 0);
  uint64_t carry = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t sum = carry;
    if (i < a.limbs_.size()) {
      sum += a.limbs_[i];
    }
    if (i < b.limbs_.size()) {
      sum += b.limbs_[i];
    }
    out.limbs_[i] = static_cast<uint32_t>(sum);
    carry = sum >> 32;
  }
  out.limbs_[n] = static_cast<uint32_t>(carry);
  out.Normalize();
  return out;
}

BigInt BigInt::Sub(const BigInt& a, const BigInt& b) {
  assert(Cmp(a, b) >= 0);
  BigInt out;
  out.limbs_.resize(a.limbs_.size(), 0);
  int64_t borrow = 0;
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    int64_t diff = static_cast<int64_t>(a.limbs_[i]) - borrow;
    if (i < b.limbs_.size()) {
      diff -= b.limbs_[i];
    }
    if (diff < 0) {
      diff += static_cast<int64_t>(kBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.limbs_[i] = static_cast<uint32_t>(diff);
  }
  out.Normalize();
  return out;
}

BigInt BigInt::Mul(const BigInt& a, const BigInt& b) {
  if (a.IsZero() || b.IsZero()) {
    return Zero();
  }
  BigInt out;
  out.limbs_.assign(a.limbs_.size() + b.limbs_.size(), 0);
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    uint64_t carry = 0;
    uint64_t ai = a.limbs_[i];
    for (size_t j = 0; j < b.limbs_.size(); ++j) {
      uint64_t cur = out.limbs_[i + j] + ai * b.limbs_[j] + carry;
      out.limbs_[i + j] = static_cast<uint32_t>(cur);
      carry = cur >> 32;
    }
    out.limbs_[i + b.limbs_.size()] += static_cast<uint32_t>(carry);
  }
  out.Normalize();
  return out;
}

void BigInt::DivMod(const BigInt& a, const BigInt& b, BigInt* quotient,
                    BigInt* remainder) {
  assert(!b.IsZero());
  if (Cmp(a, b) < 0) {
    if (quotient != nullptr) {
      *quotient = Zero();
    }
    if (remainder != nullptr) {
      *remainder = a;
    }
    return;
  }
  if (b.limbs_.size() == 1) {
    // Short division.
    uint64_t d = b.limbs_[0];
    BigInt q;
    q.limbs_.resize(a.limbs_.size(), 0);
    uint64_t rem = 0;
    for (size_t i = a.limbs_.size(); i > 0; --i) {
      uint64_t cur = (rem << 32) | a.limbs_[i - 1];
      q.limbs_[i - 1] = static_cast<uint32_t>(cur / d);
      rem = cur % d;
    }
    q.Normalize();
    if (quotient != nullptr) {
      *quotient = std::move(q);
    }
    if (remainder != nullptr) {
      *remainder = FromU64(rem);
    }
    return;
  }

  // Knuth Algorithm D (TAOCP Vol. 2, 4.3.1).
  // Normalize so the divisor's top limb has its high bit set.
  int shift = 0;
  uint32_t top = b.limbs_.back();
  while ((top & 0x80000000u) == 0) {
    top <<= 1;
    ++shift;
  }
  BigInt u = a.ShiftLeft(shift);
  BigInt v = b.ShiftLeft(shift);
  size_t n = v.limbs_.size();
  size_t m = u.limbs_.size() - n;
  u.limbs_.push_back(0);  // Extra headroom limb u[m+n].

  BigInt q;
  q.limbs_.assign(m + 1, 0);

  for (size_t j = m + 1; j > 0; --j) {
    size_t jj = j - 1;
    // Estimate q_hat = (u[jj+n]*B + u[jj+n-1]) / v[n-1].
    uint64_t numerator =
        (static_cast<uint64_t>(u.limbs_[jj + n]) << 32) | u.limbs_[jj + n - 1];
    uint64_t q_hat = numerator / v.limbs_[n - 1];
    uint64_t r_hat = numerator % v.limbs_[n - 1];
    while (q_hat >= kBase ||
           q_hat * v.limbs_[n - 2] > ((r_hat << 32) | u.limbs_[jj + n - 2])) {
      --q_hat;
      r_hat += v.limbs_[n - 1];
      if (r_hat >= kBase) {
        break;
      }
    }
    // Multiply-subtract: u[jj..jj+n] -= q_hat * v.
    int64_t borrow = 0;
    uint64_t carry = 0;
    for (size_t i = 0; i < n; ++i) {
      uint64_t prod = q_hat * v.limbs_[i] + carry;
      carry = prod >> 32;
      int64_t diff = static_cast<int64_t>(u.limbs_[jj + i]) -
                     static_cast<int64_t>(prod & 0xFFFFFFFFu) - borrow;
      if (diff < 0) {
        diff += static_cast<int64_t>(kBase);
        borrow = 1;
      } else {
        borrow = 0;
      }
      u.limbs_[jj + i] = static_cast<uint32_t>(diff);
    }
    int64_t diff = static_cast<int64_t>(u.limbs_[jj + n]) -
                   static_cast<int64_t>(carry) - borrow;
    bool negative = diff < 0;
    u.limbs_[jj + n] = static_cast<uint32_t>(diff);

    if (negative) {
      // Add back (q_hat was one too large).
      --q_hat;
      uint64_t add_carry = 0;
      for (size_t i = 0; i < n; ++i) {
        uint64_t sum =
            static_cast<uint64_t>(u.limbs_[jj + i]) + v.limbs_[i] + add_carry;
        u.limbs_[jj + i] = static_cast<uint32_t>(sum);
        add_carry = sum >> 32;
      }
      u.limbs_[jj + n] += static_cast<uint32_t>(add_carry);
    }
    q.limbs_[jj] = static_cast<uint32_t>(q_hat);
  }

  q.Normalize();
  if (quotient != nullptr) {
    *quotient = std::move(q);
  }
  if (remainder != nullptr) {
    u.limbs_.resize(n);
    u.Normalize();
    *remainder = u.ShiftRight(shift);
  }
}

BigInt BigInt::Mod(const BigInt& a, const BigInt& m) {
  BigInt r;
  DivMod(a, m, nullptr, &r);
  return r;
}

BigInt BigInt::ShiftLeft(int bits) const {
  if (IsZero() || bits == 0) {
    return *this;
  }
  int limb_shift = bits / 32;
  int bit_shift = bits % 32;
  BigInt out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (size_t i = 0; i < limbs_.size(); ++i) {
    uint64_t v = static_cast<uint64_t>(limbs_[i]) << bit_shift;
    out.limbs_[i + limb_shift] |= static_cast<uint32_t>(v);
    out.limbs_[i + limb_shift + 1] |= static_cast<uint32_t>(v >> 32);
  }
  out.Normalize();
  return out;
}

BigInt BigInt::ShiftRight(int bits) const {
  if (IsZero() || bits == 0) {
    return *this;
  }
  size_t limb_shift = static_cast<size_t>(bits) / 32;
  int bit_shift = bits % 32;
  if (limb_shift >= limbs_.size()) {
    return Zero();
  }
  BigInt out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (size_t i = 0; i < out.limbs_.size(); ++i) {
    uint64_t v = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size()) {
      v |= static_cast<uint64_t>(limbs_[i + limb_shift + 1])
           << (32 - bit_shift);
    }
    out.limbs_[i] = static_cast<uint32_t>(v);
  }
  out.Normalize();
  return out;
}

BigInt BigInt::ModAdd(const BigInt& a, const BigInt& b, const BigInt& m) {
  BigInt sum = Add(a, b);
  if (Cmp(sum, m) >= 0) {
    sum = Sub(sum, m);
  }
  return sum;
}

BigInt BigInt::ModSub(const BigInt& a, const BigInt& b, const BigInt& m) {
  if (Cmp(a, b) >= 0) {
    return Sub(a, b);
  }
  return Sub(Add(a, m), b);
}

BigInt BigInt::ModMul(const BigInt& a, const BigInt& b, const BigInt& m) {
  return Mod(Mul(a, b), m);
}

BigInt BigInt::ModExp(const BigInt& base, const BigInt& exp, const BigInt& m) {
  if (m.IsOne()) {
    return Zero();
  }
  BigInt result = One();
  BigInt b = Mod(base, m);
  int bits = exp.BitLength();
  for (int i = bits - 1; i >= 0; --i) {
    result = ModMul(result, result, m);
    if (exp.Bit(i)) {
      result = ModMul(result, b, m);
    }
  }
  return result;
}

bool BigInt::IsProbablePrime(const BigInt& n, SecureRandom& rng, int rounds) {
  if (n.BitLength() <= 1) {
    return false;  // 0, 1.
  }
  if (n == FromU64(2)) {
    return true;
  }
  if (!n.IsOdd()) {
    return false;
  }
  for (uint32_t p : kSmallPrimes) {
    BigInt bp = FromU64(p);
    if (n == bp) {
      return true;
    }
    BigInt r;
    DivMod(n, bp, nullptr, &r);
    if (r.IsZero()) {
      return false;
    }
  }

  // Write n-1 = d * 2^s.
  BigInt n_minus_1 = Sub(n, One());
  BigInt d = n_minus_1;
  int s = 0;
  while (!d.IsOdd()) {
    d = d.ShiftRight(1);
    ++s;
  }

  BigInt two = FromU64(2);
  auto witness_passes = [&](const BigInt& a) {
    BigInt x = ModExp(a, d, n);
    if (x.IsOne() || x == n_minus_1) {
      return true;
    }
    for (int i = 1; i < s; ++i) {
      x = ModMul(x, x, n);
      if (x == n_minus_1) {
        return true;
      }
    }
    return false;
  };

  if (!witness_passes(two)) {
    return false;
  }
  for (int round = 0; round < rounds; ++round) {
    BigInt a = Add(RandomBelow(rng, Sub(n, FromU64(4))), two);
    if (!witness_passes(a)) {
      return false;
    }
  }
  return true;
}

}  // namespace keypad
