#include "src/util/bytes.h"

namespace keypad {

namespace {
constexpr char kHexDigits[] = "0123456789abcdef";

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}
}  // namespace

std::string ToHex(const uint8_t* data, size_t len) {
  std::string out;
  out.reserve(len * 2);
  for (size_t i = 0; i < len; ++i) {
    out.push_back(kHexDigits[data[i] >> 4]);
    out.push_back(kHexDigits[data[i] & 0xF]);
  }
  return out;
}

std::string ToHex(const Bytes& data) { return ToHex(data.data(), data.size()); }

Result<Bytes> FromHex(std::string_view hex) {
  if (hex.size() % 2 != 0) {
    return InvalidArgumentError("hex string has odd length");
  }
  Bytes out;
  out.reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    int hi = HexValue(hex[i]);
    int lo = HexValue(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      return InvalidArgumentError("non-hex character in input");
    }
    out.push_back(static_cast<uint8_t>((hi << 4) | lo));
  }
  return out;
}

Bytes BytesOf(std::string_view s) { return Bytes(s.begin(), s.end()); }

std::string StringOf(const Bytes& b) { return std::string(b.begin(), b.end()); }

void Append(Bytes& dst, const Bytes& src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

void Append(Bytes& dst, std::string_view src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

void AppendU32Be(Bytes& dst, uint32_t v) {
  dst.push_back(static_cast<uint8_t>(v >> 24));
  dst.push_back(static_cast<uint8_t>(v >> 16));
  dst.push_back(static_cast<uint8_t>(v >> 8));
  dst.push_back(static_cast<uint8_t>(v));
}

void AppendU64Be(Bytes& dst, uint64_t v) {
  AppendU32Be(dst, static_cast<uint32_t>(v >> 32));
  AppendU32Be(dst, static_cast<uint32_t>(v));
}

void AppendBlob(Bytes& dst, const Bytes& src) {
  AppendU32Be(dst, static_cast<uint32_t>(src.size()));
  Append(dst, src);
}

void AppendBlob(Bytes& dst, std::string_view src) {
  AppendU32Be(dst, static_cast<uint32_t>(src.size()));
  Append(dst, src);
}

uint32_t ReadU32Be(const uint8_t* p) {
  return (static_cast<uint32_t>(p[0]) << 24) |
         (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
}

uint64_t ReadU64Be(const uint8_t* p) {
  return (static_cast<uint64_t>(ReadU32Be(p)) << 32) | ReadU32Be(p + 4);
}

// Uninitialized growth is only attempted on libstdc++ with ASan container
// annotations off; the annotated vector tracks its own bounds and a raw
// size bump would trip it.
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define KEYPAD_ASAN 1
#endif
#elif defined(__SANITIZE_ADDRESS__)
#define KEYPAD_ASAN 1
#endif

Bytes UninitializedBytes(size_t len) {
#if defined(__GLIBCXX__) && !defined(_GLIBCXX_SANITIZE_VECTOR) && \
    !defined(KEYPAD_ASAN)
  // libstdc++'s std::vector is ABI-stable as three pointers
  // (start, finish, end_of_storage); bumping `finish` after reserve() sets
  // the size without the value-initialization pass resize() would do. The
  // layout is verified against the public API at runtime and the slow path
  // taken on any mismatch, so a libstdc++ that ever changes shape degrades
  // to correct-but-slower rather than corrupting memory.
  struct VecRep {
    uint8_t* start;
    uint8_t* finish;
    uint8_t* end_of_storage;
  };
  static_assert(sizeof(Bytes) == sizeof(VecRep));
  Bytes out;
  out.reserve(len);
  auto* rep = reinterpret_cast<VecRep*>(&out);
  if (rep->start == out.data() && rep->finish == out.data() &&
      rep->end_of_storage == out.data() + out.capacity()) {
    rep->finish = rep->start + len;
    return out;
  }
#endif
  return Bytes(len);
}

void SecureZero(uint8_t* data, size_t len) {
  volatile uint8_t* p = data;
  for (size_t i = 0; i < len; ++i) {
    p[i] = 0;
  }
}

void SecureZero(Bytes& data) { SecureZero(data.data(), data.size()); }

}  // namespace keypad
