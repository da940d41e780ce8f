// Wire-codec selection for the RPC layer (DESIGN.md §11).
//
// The paper's prototype speaks XML-RPC, and XML-RPC marshalling is the
// dominant Keypad cost on a LAN (~0.5 ms/call, Fig. 6a). The compact binary
// TLV codec (binary_codec.h) removes most of that cost; this header makes
// it a first-class framing: each RPC client speaks the codec it was built
// with, and XML-RPC stays the paper-compatible default.
//
// Frames are self-describing: a binary frame starts with the magic "KPB1",
// anything else is treated as XML. A server always answers in the codec of
// the request (the echo rule), so XML and binary clients share servers.

#ifndef SRC_WIRE_CODEC_H_
#define SRC_WIRE_CODEC_H_

#include <string>
#include <string_view>

#include "src/util/result.h"
#include "src/wire/value.h"
#include "src/wire/xmlrpc.h"

namespace keypad {

enum class WireCodec : uint8_t {
  kXml = 0,     // Paper-compatible XML-RPC text framing (the default).
  kBinary = 1,  // Compact TLV framing, magic "KPB1".
};

const char* WireCodecName(WireCodec codec);

// Classifies a frame by its leading bytes. Messages that are not
// binary-magic-prefixed are XML (possibly malformed — the XML decoder
// reports that).
WireCodec DetectCodec(std::string_view message);

// Encodes a call in `codec`, appending to `out` — callers assemble the
// dedup frame and payload in one buffer with no intermediate copies.
void EncodeCallInto(WireCodec codec, const XmlRpcCall& call, std::string& out);
void EncodeCallInto(WireCodec codec, std::string_view method,
                    const WireValue::Array& params, std::string& out);

std::string EncodeResponse(WireCodec codec, const WireValue& value);
std::string EncodeFault(WireCodec codec, const Status& status);

// Decoders auto-detect the codec, so responses can be consumed regardless
// of what the local end would itself send.
Result<XmlRpcCall> DecodeCallAuto(std::string_view message);
Result<XmlRpcResponse> DecodeResponseAuto(std::string_view message);

}  // namespace keypad

#endif  // SRC_WIRE_CODEC_H_
