#include "src/ibe/fp.h"

#include <cassert>

namespace keypad {

namespace {

using u128 = unsigned __int128;

// Reads `len` big-endian bytes into `n` little-endian limbs; false if the
// value needs more than n limbs.
bool LoadBe(const uint8_t* data, size_t len, int n, uint64_t* limbs) {
  for (int i = 0; i < n; ++i) {
    limbs[i] = 0;
  }
  for (size_t i = 0; i < len; ++i) {
    size_t byte = len - 1 - i;  // Significance of data[i], in bytes.
    if (byte / 8 >= static_cast<size_t>(n)) {
      if (data[i] != 0) {
        return false;
      }
      continue;
    }
    limbs[byte / 8] |= static_cast<uint64_t>(data[i]) << (8 * (byte % 8));
  }
  return true;
}

void StoreBe(const uint64_t* limbs, int n, size_t len, uint8_t* out) {
  for (size_t i = 0; i < len; ++i) {
    size_t byte = len - 1 - i;
    out[i] = byte / 8 < static_cast<size_t>(n)
                 ? static_cast<uint8_t>(limbs[byte / 8] >> (8 * (byte % 8)))
                 : 0;
  }
}

}  // namespace

// The arithmetic for an N-limb prime. Every operand is fully reduced and
// every result is too.
template <int N>
struct FpKernel {
  static void Install(FpField* f) {
    f->add_ = &Add;
    f->sub_ = &Sub;
    f->mul_ = &Mul;
    f->sqr_ = &Sqr;
  }

  // r = s + hi·2^(64N) − p if that is non-negative, else s; for s < 2p.
  static void ReduceOnce(uint64_t* r, const uint64_t* s, uint64_t hi,
                         const uint64_t* p) {
    uint64_t d[N];
    uint64_t borrow = 0;
    for (int i = 0; i < N; ++i) {
      u128 t = static_cast<u128>(s[i]) - p[i] - borrow;
      d[i] = static_cast<uint64_t>(t);
      borrow = static_cast<uint64_t>(t >> 127);
    }
    const uint64_t* src = (hi != 0 || borrow == 0) ? d : s;
    for (int i = 0; i < N; ++i) {
      r[i] = src[i];
    }
  }

  static void Add(uint64_t* r, const uint64_t* a, const uint64_t* b,
                  const FpField& f) {
    uint64_t s[N];
    uint64_t carry = 0;
    for (int i = 0; i < N; ++i) {
      u128 t = static_cast<u128>(a[i]) + b[i] + carry;
      s[i] = static_cast<uint64_t>(t);
      carry = static_cast<uint64_t>(t >> 64);
    }
    ReduceOnce(r, s, carry, f.p_);
  }

  static void Sub(uint64_t* r, const uint64_t* a, const uint64_t* b,
                  const FpField& f) {
    uint64_t borrow = 0;
    for (int i = 0; i < N; ++i) {
      u128 t = static_cast<u128>(a[i]) - b[i] - borrow;
      r[i] = static_cast<uint64_t>(t);
      borrow = static_cast<uint64_t>(t >> 127);
    }
    if (borrow != 0) {
      uint64_t carry = 0;
      for (int i = 0; i < N; ++i) {
        u128 t = static_cast<u128>(r[i]) + f.p_[i] + carry;
        r[i] = static_cast<uint64_t>(t);
        carry = static_cast<uint64_t>(t >> 64);
      }
    }
  }

  // CIOS Montgomery product: r = a·b·R⁻¹ mod p. Each outer step adds
  // a·b[i], then one multiple of p that clears the low limb, and shifts
  // down a limb; the running value stays below 2p.
  static void Mul(uint64_t* r, const uint64_t* a, const uint64_t* b,
                  const FpField& f) {
    const uint64_t* p = f.p_;
    uint64_t t[N + 2] = {};
    for (int i = 0; i < N; ++i) {
      uint64_t carry = 0;
      for (int j = 0; j < N; ++j) {
        u128 s = static_cast<u128>(a[j]) * b[i] + t[j] + carry;
        t[j] = static_cast<uint64_t>(s);
        carry = static_cast<uint64_t>(s >> 64);
      }
      u128 s = static_cast<u128>(t[N]) + carry;
      t[N] = static_cast<uint64_t>(s);
      t[N + 1] = static_cast<uint64_t>(s >> 64);

      uint64_t m = t[0] * f.n0_;
      s = static_cast<u128>(m) * p[0] + t[0];
      carry = static_cast<uint64_t>(s >> 64);
      for (int j = 1; j < N; ++j) {
        s = static_cast<u128>(m) * p[j] + t[j] + carry;
        t[j - 1] = static_cast<uint64_t>(s);
        carry = static_cast<uint64_t>(s >> 64);
      }
      s = static_cast<u128>(t[N]) + carry;
      t[N - 1] = static_cast<uint64_t>(s);
      t[N] = t[N + 1] + static_cast<uint64_t>(s >> 64);
    }
    ReduceOnce(r, t, t[N], p);
  }

  // Montgomery square: the 2N-limb square computes each cross product
  // once and doubles it, then N reduction steps divide by R.
  static void Sqr(uint64_t* r, const uint64_t* a, const uint64_t*,
                  const FpField& f) {
    const uint64_t* p = f.p_;
    uint64_t t[2 * N + 1] = {};
    for (int i = 0; i + 1 < N; ++i) {
      uint64_t carry = 0;
      for (int j = i + 1; j < N; ++j) {
        u128 s = static_cast<u128>(a[i]) * a[j] + t[i + j] + carry;
        t[i + j] = static_cast<uint64_t>(s);
        carry = static_cast<uint64_t>(s >> 64);
      }
      t[i + N] = carry;
    }
    uint64_t top = 0;
    for (int k = 0; k < 2 * N; ++k) {
      uint64_t v = t[k];
      t[k] = (v << 1) | top;
      top = v >> 63;
    }
    uint64_t carry = 0;
    for (int i = 0; i < N; ++i) {
      u128 sq = static_cast<u128>(a[i]) * a[i];
      u128 s = static_cast<u128>(t[2 * i]) + static_cast<uint64_t>(sq) + carry;
      t[2 * i] = static_cast<uint64_t>(s);
      s = static_cast<u128>(t[2 * i + 1]) + static_cast<uint64_t>(sq >> 64) +
          static_cast<uint64_t>(s >> 64);
      t[2 * i + 1] = static_cast<uint64_t>(s);
      carry = static_cast<uint64_t>(s >> 64);
    }
    for (int i = 0; i < N; ++i) {
      uint64_t m = t[i] * f.n0_;
      uint64_t c = 0;
      for (int j = 0; j < N; ++j) {
        u128 s = static_cast<u128>(m) * p[j] + t[i + j] + c;
        t[i + j] = static_cast<uint64_t>(s);
        c = static_cast<uint64_t>(s >> 64);
      }
      for (int k = i + N; c != 0 && k <= 2 * N; ++k) {
        u128 s = static_cast<u128>(t[k]) + c;
        t[k] = static_cast<uint64_t>(s);
        c = static_cast<uint64_t>(s >> 64);
      }
    }
    ReduceOnce(r, t + N, t[2 * N], p);
  }
};

bool Fp::IsZero() const {
  uint64_t any = 0;
  for (uint64_t l : limb) {
    any |= l;
  }
  return any == 0;
}

FpField::FpField(const BigInt& p) {
  n_ = (p.BitLength() + 63) / 64;
  assert(p.IsOdd() && n_ >= 1 && n_ <= kFpMaxLimbs);
  Bytes p_bytes = p.ToBytesBe(8 * static_cast<size_t>(n_));
  LoadBe(p_bytes.data(), p_bytes.size(), n_, p_);

  // Newton's iteration for p⁻¹ mod 2⁶⁴: p·p ≡ 1 (mod 8) for odd p, and
  // each step doubles the number of correct low bits (3 → 96).
  uint64_t inv = p_[0];
  for (int i = 0; i < 5; ++i) {
    inv *= 2 - p_[0] * inv;
  }
  n0_ = 0 - inv;

  BigInt r_mod_p = BigInt::Mod(BigInt::One().ShiftLeft(64 * n_), p);
  BigInt r2_mod_p = BigInt::ModMul(r_mod_p, r_mod_p, p);
  Bytes one_bytes = r_mod_p.ToBytesBe(8 * static_cast<size_t>(n_));
  Bytes r2_bytes = r2_mod_p.ToBytesBe(8 * static_cast<size_t>(n_));
  LoadBe(one_bytes.data(), one_bytes.size(), n_, one_.limb);
  LoadBe(r2_bytes.data(), r2_bytes.size(), n_, r2_.limb);

  p_minus_2_ = BigInt::Sub(p, BigInt::FromU64(2));
  sqrt_exp_ = BigInt::Add(p, BigInt::One()).ShiftRight(2);

  static void (*const kInstall[kFpMaxLimbs + 1])(FpField*) = {
      nullptr,
      &FpKernel<1>::Install,
      &FpKernel<2>::Install,
      &FpKernel<3>::Install,
      &FpKernel<4>::Install,
      &FpKernel<5>::Install,
      &FpKernel<6>::Install,
      &FpKernel<7>::Install,
      &FpKernel<8>::Install,
  };
  kInstall[n_](this);
}

Fp FpField::FromBigInt(const BigInt& v) const {
  assert(v.BitLength() <= 64 * n_);
  Bytes bytes = v.ToBytesBe(8 * static_cast<size_t>(n_));
  Fp raw;
  LoadBe(bytes.data(), bytes.size(), n_, raw.limb);
  Fp out;
  mul_(out.limb, raw.limb, r2_.limb, *this);
  return out;
}

BigInt FpField::ToBigInt(const Fp& a) const {
  return BigInt::FromBytesBe(ToBytesBe(a, 8 * static_cast<size_t>(n_)));
}

Bytes FpField::ToBytesBe(const Fp& a, size_t len) const {
  Fp unit;
  unit.limb[0] = 1;
  Fp plain;
  mul_(plain.limb, a.limb, unit.limb, *this);  // a·R·1·R⁻¹ = a.
  Bytes out(len);
  StoreBe(plain.limb, n_, len, out.data());
  return out;
}

bool FpField::FromBytesBe(const uint8_t* data, size_t len, Fp* out) const {
  Fp raw;
  if (!LoadBe(data, len, n_, raw.limb)) {
    return false;
  }
  uint64_t borrow = 0;
  for (int i = 0; i < n_; ++i) {
    u128 t = static_cast<u128>(raw.limb[i]) - p_[i] - borrow;
    borrow = static_cast<uint64_t>(t >> 127);
  }
  if (borrow == 0) {
    return false;  // raw ≥ p.
  }
  *out = Fp{};
  mul_(out->limb, raw.limb, r2_.limb, *this);
  return true;
}

Fp FpField::Pow(const Fp& a, const BigInt& e) const {
  Fp r = one_;
  for (int i = e.BitLength() - 1; i >= 0; --i) {
    r = Sqr(r);
    if (e.Bit(i)) {
      r = Mul(r, a);
    }
  }
  return r;
}

Fp FpField::Inv(const Fp& a) const { return Pow(a, p_minus_2_); }

bool FpField::Sqrt(const Fp& a, Fp* root) const {
  Fp c = Pow(a, sqrt_exp_);
  if (Sqr(c) != a) {
    return false;
  }
  *root = c;
  return true;
}

}  // namespace keypad
