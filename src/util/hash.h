// Hashing helpers for the hashed tables on the service request path
// (DESIGN.md §28).

#ifndef SRC_UTIL_HASH_H_
#define SRC_UTIL_HASH_H_

#include <cstdint>

namespace keypad {

// splitmix64 finalizer: a bijection on 64 bits with full avalanche, so two
// inputs that differ anywhere land apart.
inline uint64_t HashMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace keypad

#endif  // SRC_UTIL_HASH_H_
