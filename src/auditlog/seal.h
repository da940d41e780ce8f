// Seal — one commit-group seal of a hash-chained log: a SHA-256 digest held
// inline (DESIGN.md §27).
//
// Every audit row carries two seals, the one entering its commit group and
// the group's own. Held inline they cost no allocation when a row is
// appended or copied. On the wire a seal is still a 32-byte blob, so every
// encoding (wire structs, flat rows, snapshots, replication deltas) keeps
// its bytes. Decoding refuses a blob of any other width: a row whose seal is
// not 32 bytes cannot be part of any chain.

#ifndef SRC_AUDITLOG_SEAL_H_
#define SRC_AUDITLOG_SEAL_H_

#include <algorithm>

#include "src/cryptocore/sha256.h"
#include "src/util/bytes.h"
#include "src/util/result.h"

namespace keypad {

struct Seal {
  Sha256::Digest v{};  // All zeros: the seal entering genesis.

  Seal() = default;
  explicit Seal(const Sha256::Digest& digest) : v(digest) {}

  // kDataLoss unless `bytes` is exactly one digest wide.
  static Result<Seal> FromBytes(const Bytes& bytes) {
    if (bytes.size() != Sha256::kDigestSize) {
      return DataLossError("seal: wrong length " +
                           std::to_string(bytes.size()));
    }
    Seal seal;
    std::copy(bytes.begin(), bytes.end(), seal.v.begin());
    return seal;
  }

  Bytes ToBytes() const { return Bytes(v.begin(), v.end()); }
  // Callers that keep a chain tip (tests, benches) hold it as Bytes.
  operator Bytes() const { return ToBytes(); }

  // The flat-row layout (AppendBlob's): a u32 length, always 32, then the
  // digest. ReadBlob fails on a short input or any other length.
  void AppendBlob(Bytes* out) const {
    AppendU32Be(*out, static_cast<uint32_t>(v.size()));
    out->insert(out->end(), v.begin(), v.end());
  }
  static bool ReadBlob(ByteReader& in, Seal* seal) {
    uint32_t len = 0;
    return in.U32(&len) && len == seal->v.size() &&
           in.Copy(seal->v.data(), seal->v.size());
  }

  void HashInto(Sha256& hasher) const { hasher.Update(v.data(), v.size()); }

  bool operator==(const Seal&) const = default;
  bool operator==(const Bytes& bytes) const {
    return std::equal(v.begin(), v.end(), bytes.begin(), bytes.end());
  }
};

}  // namespace keypad

#endif  // SRC_AUDITLOG_SEAL_H_
