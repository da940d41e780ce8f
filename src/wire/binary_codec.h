// Compact binary codec for WireValue — a tag/varint TLV format — plus the
// binary RPC frame built on it (magic "KPB1", DESIGN.md §11).
//
// The paper attributes the visible Keypad cost on LAN to XML-RPC
// marshalling; this codec removes that cost for clients built with it
// (RpcOptions::codec, see codec.h) and feeds the marshalling ablation
// benches.
//
// Frame layout: "KPB1" || kind u8, then
//   kind 0 (call):     varint method-len || method || varint argc || values
//   kind 1 (response): one value
//   kind 2 (fault):    varint status-code || varint msg-len || msg

#ifndef SRC_WIRE_BINARY_CODEC_H_
#define SRC_WIRE_BINARY_CODEC_H_

#include <string>
#include <string_view>

#include "src/util/result.h"
#include "src/wire/value.h"
#include "src/wire/xmlrpc.h"

namespace keypad {

// --- Bare value round trip. ------------------------------------------------

Bytes BinaryEncode(const WireValue& value);
Result<WireValue> BinaryDecode(const Bytes& data);

// Appending variants over std::string, so a caller can assemble prefix +
// payload in one reused buffer with no intermediate copies.
void BinaryEncodeInto(std::string& out, const WireValue& value);
Result<WireValue> BinaryDecode(std::string_view data);

// --- RPC frames. -----------------------------------------------------------

// True if `message` carries the binary frame magic.
bool IsBinaryFrame(std::string_view message);

void EncodeBinaryCallInto(std::string& out, std::string_view method,
                          const WireValue::Array& params);
void EncodeBinaryCallInto(std::string& out, const XmlRpcCall& call);
std::string EncodeBinaryResponse(const WireValue& value);
std::string EncodeBinaryFault(const Status& status);
Result<XmlRpcCall> DecodeBinaryCall(std::string_view message);
Result<XmlRpcResponse> DecodeBinaryResponse(std::string_view message);

}  // namespace keypad

#endif  // SRC_WIRE_BINARY_CODEC_H_
