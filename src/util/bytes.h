// Byte-buffer helpers shared across the codebase.

#ifndef SRC_UTIL_BYTES_H_
#define SRC_UTIL_BYTES_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/result.h"

namespace keypad {

using Bytes = std::vector<uint8_t>;

// Lowercase hex encoding of `data`.
std::string ToHex(const Bytes& data);
std::string ToHex(const uint8_t* data, size_t len);

// Parses lowercase/uppercase hex. Fails on odd length or non-hex characters.
Result<Bytes> FromHex(std::string_view hex);

// Byte-wise conversions between strings and Bytes (no encoding applied).
Bytes BytesOf(std::string_view s);
std::string StringOf(const Bytes& b);

// Appends `src` to `dst`.
void Append(Bytes& dst, const Bytes& src);
void Append(Bytes& dst, std::string_view src);

// Fixed-width big-endian integer append/read used by wire formats and hashes.
void AppendU32Be(Bytes& dst, uint32_t v);
void AppendU64Be(Bytes& dst, uint64_t v);
// A u32 big-endian length prefix, then `src` (ByteReader::Blob/Str read it).
void AppendBlob(Bytes& dst, const Bytes& src);
void AppendBlob(Bytes& dst, std::string_view src);
uint32_t ReadU32Be(const uint8_t* p);
uint64_t ReadU64Be(const uint8_t* p);

// Bounds-checked big-endian cursor for fixed-layout decoders. Every getter
// returns false (or nullptr) once the input runs short, so a decoder can
// chain them and turn one failure into DataLoss.
class ByteReader {
 public:
  explicit ByteReader(const Bytes& data)
      : p_(data.data()), end_(data.data() + data.size()) {}
  // The reader borrows its input; a temporary would dangle.
  explicit ByteReader(Bytes&&) = delete;

  // Borrows the next `n` bytes (no copy); nullptr if fewer remain.
  const uint8_t* Take(size_t n) {
    if (n > static_cast<size_t>(end_ - p_)) {
      return nullptr;
    }
    const uint8_t* at = p_;
    p_ += n;
    return at;
  }
  bool U8(uint8_t* v) {
    const uint8_t* at = Take(1);
    if (at == nullptr) {
      return false;
    }
    *v = *at;
    return true;
  }
  bool U32(uint32_t* v) {
    const uint8_t* at = Take(4);
    if (at == nullptr) {
      return false;
    }
    *v = ReadU32Be(at);
    return true;
  }
  bool U64(uint64_t* v) {
    const uint8_t* at = Take(8);
    if (at == nullptr) {
      return false;
    }
    *v = ReadU64Be(at);
    return true;
  }
  // A u32 length prefix, then that many bytes (AppendBlob writes it).
  bool Blob(Bytes* out) {
    uint32_t len = 0;
    const uint8_t* at = U32(&len) ? Take(len) : nullptr;
    if (at == nullptr) {
      return false;
    }
    out->assign(at, at + len);
    return true;
  }
  bool Str(std::string* out) {
    uint32_t len = 0;
    const uint8_t* at = U32(&len) ? Take(len) : nullptr;
    if (at == nullptr) {
      return false;
    }
    out->assign(reinterpret_cast<const char*>(at), len);
    return true;
  }
  // Copies exactly `n` bytes into `out` (fixed-size ids).
  bool Copy(uint8_t* out, size_t n) {
    const uint8_t* at = Take(n);
    if (at == nullptr) {
      return false;
    }
    std::copy(at, at + n, out);
    return true;
  }
  bool at_end() const { return p_ == end_; }

 private:
  const uint8_t* p_;
  const uint8_t* end_;
};

// A u32 row count, then each row's flat encoding — the audit RPC bodies
// (DESIGN.md §19). `Row` provides `void AppendFlat(Bytes*) const` and
// `static bool ReadFlat(ByteReader&, Row*)`.
template <typename Row>
Bytes EncodeFlatRows(const std::vector<Row>& rows) {
  Bytes out;
  AppendU32Be(out, static_cast<uint32_t>(rows.size()));
  for (const Row& row : rows) {
    row.AppendFlat(&out);
  }
  return out;
}

// Parses EncodeFlatRows output. A short input, a malformed row or trailing
// bytes is DataLoss; nothing is read past the end.
template <typename Row>
Result<std::vector<Row>> DecodeFlatRows(const Bytes& data) {
  ByteReader in(data);
  uint32_t count = 0;
  if (!in.U32(&count)) {
    return DataLossError("flat rows: missing row count");
  }
  std::vector<Row> rows;
  for (uint32_t i = 0; i < count; ++i) {
    Row row;
    if (!Row::ReadFlat(in, &row)) {
      return DataLossError("flat rows: malformed row " + std::to_string(i));
    }
    rows.push_back(std::move(row));
  }
  if (!in.at_end()) {
    return DataLossError("flat rows: trailing bytes");
  }
  return rows;
}

// Returns a Bytes of size `len` whose contents are NOT zero-initialized.
// For output buffers that are about to be fully overwritten (keystream XOR,
// digest fill) the value-initializing Bytes(len) constructor memsets bytes
// that are immediately rewritten; this skips that pass where the standard
// library's layout permits and degrades to Bytes(len) everywhere else
// (including sanitizer builds). Callers MUST write every byte before
// reading any.
Bytes UninitializedBytes(size_t len);

// Overwrites the buffer with zeros. Used for secure erase of key material;
// routed through a volatile pointer so the compiler cannot elide it.
void SecureZero(Bytes& data);
void SecureZero(uint8_t* data, size_t len);

}  // namespace keypad

#endif  // SRC_UTIL_BYTES_H_
