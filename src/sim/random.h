// Deterministic PRNG for simulation decisions (workload generation, jitter,
// failure injection). NOT for cryptographic material — key generation uses
// crypto::SecureRandom (ChaCha20 DRBG) instead.
//
// Implementation: xoshiro256** seeded via SplitMix64.

#ifndef SRC_SIM_RANDOM_H_
#define SRC_SIM_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace keypad {

class SimRandom {
 public:
  explicit SimRandom(uint64_t seed);

  uint64_t NextU64();

  // Uniform in [0, bound). bound must be > 0.
  uint64_t UniformU64(uint64_t bound);

  // Uniform in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi);

  // Uniform in [0, 1).
  double UniformDouble();

  // True with probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  // Exponentially distributed with the given mean (> 0).
  double Exponential(double mean);

  // Zipf-like rank selection in [0, n): rank r chosen with weight
  // 1/(r+1)^theta. Used to model skewed file popularity.
  size_t Zipf(size_t n, double theta);

  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) {
      size_t j = UniformU64(i);
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  uint64_t s_[4];
};

}  // namespace keypad

#endif  // SRC_SIM_RANDOM_H_
