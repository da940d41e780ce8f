// Differential fuzz over the two wire codecs (DESIGN.md §11): random
// WireValue trees must survive encode/decode through XML-RPC and through the
// binary TLV framing *identically* — same values, same faults, same method
// names. Clients of either codec share servers (echo rule, codec.h), so any
// divergence between the codecs is a silent cross-fleet corruption.

#include <gtest/gtest.h>

#include <string>

#include "src/sim/random.h"
#include "src/wire/binary_codec.h"
#include "src/wire/codec.h"
#include "src/wire/value.h"
#include "src/wire/xmlrpc.h"

namespace keypad {
namespace {

// Depth-bounded random WireValue tree. Leans on leaves (the RPC surface is
// mostly scalars) but nests arrays-of-structs like the real snapshot and
// audit-fetch responses do.
WireValue RandomTree(SimRandom& rng, int depth) {
  uint64_t kind = rng.UniformU64(depth > 0 ? 7 : 5);
  switch (kind) {
    case 0:
      return WireValue(static_cast<int64_t>(rng.NextU64()));
    case 1:
      return WireValue(rng.Bernoulli(0.5));
    case 2:
      // precision(17) round-trips any finite double through the XML text.
      return WireValue(rng.UniformDouble() * 1e12 - 5e11);
    case 3: {
      std::string s;
      size_t len = rng.UniformU64(40);
      for (size_t i = 0; i < len; ++i) {
        // Mix in the XML-escaped characters deliberately.
        static const char kAlphabet[] =
            "abc<>&XYZ0123456789 /._-\"'\t\n";
        s.push_back(kAlphabet[rng.UniformU64(sizeof(kAlphabet) - 1)]);
      }
      return WireValue(std::move(s));
    }
    case 4: {
      Bytes b;
      size_t len = rng.UniformU64(70);
      for (size_t i = 0; i < len; ++i) {
        b.push_back(static_cast<uint8_t>(rng.UniformU64(256)));
      }
      return WireValue(std::move(b));
    }
    case 5: {
      WireValue::Array a;
      size_t len = rng.UniformU64(5);
      for (size_t i = 0; i < len; ++i) {
        a.push_back(RandomTree(rng, depth - 1));
      }
      return WireValue(std::move(a));
    }
    default: {
      WireValue::Struct s;
      size_t len = rng.UniformU64(4);
      for (size_t i = 0; i < len; ++i) {
        s.emplace("field" + std::to_string(i), RandomTree(rng, depth - 1));
      }
      return WireValue(std::move(s));
    }
  }
}

TEST(WireCodecDifferentialTest, RandomCallsRoundTripIdentically) {
  SimRandom rng(0xC0DEC);
  for (int iter = 0; iter < 300; ++iter) {
    XmlRpcCall call;
    call.method = "svc.method" + std::to_string(rng.UniformU64(1000));
    size_t argc = rng.UniformU64(5);
    for (size_t i = 0; i < argc; ++i) {
      call.params.push_back(RandomTree(rng, 3));
    }

    std::string xml, bin;
    EncodeCallInto(WireCodec::kXml, call, xml);
    EncodeCallInto(WireCodec::kBinary, call, bin);
    ASSERT_EQ(DetectCodec(xml), WireCodec::kXml);
    ASSERT_EQ(DetectCodec(bin), WireCodec::kBinary);
    // Binary must actually be the compact one.
    ASSERT_LT(bin.size(), xml.size());

    auto from_xml = DecodeCallAuto(xml);
    auto from_bin = DecodeCallAuto(bin);
    ASSERT_TRUE(from_xml.ok()) << from_xml.status().message();
    ASSERT_TRUE(from_bin.ok()) << from_bin.status().message();
    EXPECT_EQ(from_xml->method, call.method);
    EXPECT_EQ(from_bin->method, call.method);
    ASSERT_EQ(from_xml->params.size(), call.params.size());
    ASSERT_EQ(from_bin->params.size(), call.params.size());
    for (size_t i = 0; i < call.params.size(); ++i) {
      EXPECT_EQ(from_xml->params[i], call.params[i]) << "iter " << iter;
      EXPECT_EQ(from_bin->params[i], call.params[i]) << "iter " << iter;
      EXPECT_EQ(from_xml->params[i], from_bin->params[i]);
    }
  }
}

TEST(WireCodecDifferentialTest, RandomResponsesRoundTripIdentically) {
  SimRandom rng(0xFEED);
  for (int iter = 0; iter < 300; ++iter) {
    WireValue value = RandomTree(rng, 3);
    auto from_xml = DecodeResponseAuto(EncodeResponse(WireCodec::kXml, value));
    auto from_bin =
        DecodeResponseAuto(EncodeResponse(WireCodec::kBinary, value));
    ASSERT_TRUE(from_xml.ok()) << from_xml.status().message();
    ASSERT_TRUE(from_bin.ok()) << from_bin.status().message();
    EXPECT_TRUE(from_xml->fault.ok());
    EXPECT_TRUE(from_bin->fault.ok());
    EXPECT_EQ(from_xml->value, value) << "iter " << iter;
    EXPECT_EQ(from_bin->value, value) << "iter " << iter;
  }
}

TEST(WireCodecDifferentialTest, FaultEnvelopesRoundTripIdentically) {
  const StatusCode kCodes[] = {
      StatusCode::kNotFound,         StatusCode::kPermissionDenied,
      StatusCode::kUnavailable,      StatusCode::kInvalidArgument,
      StatusCode::kDataLoss,         StatusCode::kResourceExhausted,
      StatusCode::kFailedPrecondition};
  SimRandom rng(0xFA17);
  for (StatusCode code : kCodes) {
    for (int iter = 0; iter < 20; ++iter) {
      std::string msg;
      size_t len = rng.UniformU64(60);
      for (size_t i = 0; i < len; ++i) {
        msg.push_back(static_cast<char>('!' + rng.UniformU64(90)));
      }
      Status fault(code, msg);
      auto from_xml = DecodeResponseAuto(EncodeFault(WireCodec::kXml, fault));
      auto from_bin =
          DecodeResponseAuto(EncodeFault(WireCodec::kBinary, fault));
      ASSERT_TRUE(from_xml.ok());
      ASSERT_TRUE(from_bin.ok());
      EXPECT_EQ(from_xml->fault.code(), code);
      EXPECT_EQ(from_bin->fault.code(), code);
      EXPECT_EQ(from_xml->fault.message(), msg);
      EXPECT_EQ(from_bin->fault.message(), msg);
    }
  }
}

TEST(WireCodecDifferentialTest, Base64EdgeLengthsAgree) {
  // Byte blobs at every length mod 3 (the base64 padding cases), including
  // zero and the 255/256/257 boundary — XML goes through base64, binary
  // ships raw, and both must reproduce the exact bytes.
  SimRandom rng(0xB64);
  for (size_t len :
       {0u, 1u, 2u, 3u, 4u, 5u, 63u, 64u, 65u, 255u, 256u, 257u}) {
    Bytes b;
    for (size_t i = 0; i < len; ++i) {
      b.push_back(static_cast<uint8_t>(rng.UniformU64(256)));
    }
    WireValue value{b};
    auto from_xml = DecodeResponseAuto(EncodeResponse(WireCodec::kXml, value));
    auto from_bin =
        DecodeResponseAuto(EncodeResponse(WireCodec::kBinary, value));
    ASSERT_TRUE(from_xml.ok());
    ASSERT_TRUE(from_bin.ok());
    EXPECT_EQ(*from_xml->value.AsBytes(), b) << "len " << len;
    EXPECT_EQ(*from_bin->value.AsBytes(), b) << "len " << len;
  }
}

TEST(WireCodecDifferentialTest, TruncatedBinaryFramesFailCleanly) {
  // Every strict prefix of a valid binary frame must decode to an error —
  // never crash, never succeed with partial data.
  XmlRpcCall call;
  call.method = "key.get";
  call.params.push_back(WireValue(std::string("device-7")));
  call.params.push_back(WireValue(Bytes{9, 8, 7, 6, 5}));
  call.params.push_back(WireValue(int64_t{-42}));
  std::string frame;
  EncodeCallInto(WireCodec::kBinary, call, frame);
  ASSERT_TRUE(DecodeBinaryCall(frame).ok());
  for (size_t cut = 0; cut < frame.size(); ++cut) {
    EXPECT_FALSE(DecodeBinaryCall(frame.substr(0, cut)).ok())
        << "prefix of length " << cut << " decoded";
  }
}

}  // namespace
}  // namespace keypad
