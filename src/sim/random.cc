#include "src/sim/random.h"

#include <cmath>

namespace keypad {

namespace {
uint64_t SplitMix64(uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

SimRandom::SimRandom(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) {
    s = SplitMix64(sm);
  }
}

uint64_t SimRandom::NextU64() {
  uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t SimRandom::UniformU64(uint64_t bound) {
  // Rejection sampling to avoid modulo bias.
  uint64_t threshold = -bound % bound;
  while (true) {
    uint64_t r = NextU64();
    if (r >= threshold) {
      return r % bound;
    }
  }
}

int64_t SimRandom::UniformInt(int64_t lo, int64_t hi) {
  return lo + static_cast<int64_t>(
                  UniformU64(static_cast<uint64_t>(hi - lo) + 1));
}

double SimRandom::UniformDouble() {
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

bool SimRandom::Bernoulli(double p) {
  if (p <= 0) {
    return false;
  }
  if (p >= 1) {
    return true;
  }
  return UniformDouble() < p;
}

double SimRandom::Exponential(double mean) {
  double u = UniformDouble();
  // Guard against log(0).
  if (u <= 0) {
    u = 0x1.0p-53;
  }
  return -mean * std::log(u);
}

size_t SimRandom::Zipf(size_t n, double theta) {
  // Inverse-CDF on the (unnormalized) harmonic weights, computed by linear
  // scan. n is small (directory sizes, file counts) so this is fine.
  double total = 0;
  for (size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), theta);
  }
  double target = UniformDouble() * total;
  double acc = 0;
  for (size_t r = 0; r < n; ++r) {
    acc += 1.0 / std::pow(static_cast<double>(r + 1), theta);
    if (acc >= target) {
      return r;
    }
  }
  return n - 1;
}

}  // namespace keypad
