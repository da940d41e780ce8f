// Identifier types shared by the Keypad client and the audit services.
//
// AuditId: the per-file identifier stored in a file's header and used as the
// key-service lookup handle. Per the paper (§4) it is a randomly generated
// 192-bit integer, which makes it infeasible for an attacker to probe the
// services for valid IDs without first obtaining the device.
//
// DirId: the per-directory identifier the metadata service uses to keep
// pathnames current ("directoryID/filename" tuples, §4).

#ifndef SRC_UTIL_IDS_H_
#define SRC_UTIL_IDS_H_

#include <array>
#include <compare>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>

#include "src/cryptocore/secure_random.h"
#include "src/util/bytes.h"
#include "src/util/hash.h"
#include "src/util/result.h"

namespace keypad {

template <size_t N>
struct FixedId {
  std::array<uint8_t, N> v{};

  static FixedId Random(SecureRandom& rng) {
    FixedId id;
    rng.Fill(id.v.data(), N);
    return id;
  }

  static Result<FixedId> FromHex(std::string_view hex) {
    KP_ASSIGN_OR_RETURN(Bytes bytes, keypad::FromHex(hex));
    if (bytes.size() != N) {
      return InvalidArgumentError("id: wrong length");
    }
    FixedId id;
    std::copy(bytes.begin(), bytes.end(), id.v.begin());
    return id;
  }

  static Result<FixedId> FromBytes(const Bytes& bytes) {
    if (bytes.size() != N) {
      return InvalidArgumentError("id: wrong length");
    }
    FixedId id;
    std::copy(bytes.begin(), bytes.end(), id.v.begin());
    return id;
  }

  std::string ToHex() const { return keypad::ToHex(v.data(), N); }
  Bytes ToBytes() const { return Bytes(v.begin(), v.end()); }
  bool IsZero() const {
    for (uint8_t b : v) {
      if (b != 0) {
        return false;
      }
    }
    return true;
  }

  // Mixes every byte, eight at a time, through a bijective finalizer: ids
  // that differ in any one word hash apart, so a client choosing ids that
  // share a prefix cannot pile them into one bucket. Unseeded, so hashing
  // draws nothing from any random stream.
  size_t Hash() const {
    uint64_t h = N;
    for (size_t i = 0; i < N; i += 8) {
      uint64_t word = 0;
      std::memcpy(&word, v.data() + i, N - i < 8 ? N - i : 8);
      h = HashMix64(h ^ word);
    }
    return static_cast<size_t>(h);
  }

  auto operator<=>(const FixedId&) const = default;
};

// 192-bit audit ID (paper §4).
using AuditId = FixedId<24>;
// 128-bit directory ID.
using DirId = FixedId<16>;

}  // namespace keypad

template <size_t N>
struct std::hash<keypad::FixedId<N>> {
  size_t operator()(const keypad::FixedId<N>& id) const noexcept {
    return id.Hash();
  }
};

#endif  // SRC_UTIL_IDS_H_
