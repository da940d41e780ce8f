#include "src/wire/codec.h"

#include "src/wire/binary_codec.h"

namespace keypad {

const char* WireCodecName(WireCodec codec) {
  return codec == WireCodec::kBinary ? "binary" : "xml";
}

WireCodec DetectCodec(std::string_view message) {
  return IsBinaryFrame(message) ? WireCodec::kBinary : WireCodec::kXml;
}

void EncodeCallInto(WireCodec codec, const XmlRpcCall& call,
                    std::string& out) {
  EncodeCallInto(codec, call.method, call.params, out);
}

void EncodeCallInto(WireCodec codec, std::string_view method,
                    const WireValue::Array& params, std::string& out) {
  if (codec == WireCodec::kBinary) {
    EncodeBinaryCallInto(out, method, params);
  } else {
    EncodeXmlRpcCallInto(out, method, params);
  }
}

std::string EncodeResponse(WireCodec codec, const WireValue& value) {
  return codec == WireCodec::kBinary ? EncodeBinaryResponse(value)
                                     : EncodeXmlRpcResponse(value);
}

std::string EncodeFault(WireCodec codec, const Status& status) {
  return codec == WireCodec::kBinary ? EncodeBinaryFault(status)
                                     : EncodeXmlRpcFault(status);
}

Result<XmlRpcCall> DecodeCallAuto(std::string_view message) {
  return DetectCodec(message) == WireCodec::kBinary
             ? DecodeBinaryCall(message)
             : DecodeXmlRpcCall(message);
}

Result<XmlRpcResponse> DecodeResponseAuto(std::string_view message) {
  return DetectCodec(message) == WireCodec::kBinary
             ? DecodeBinaryResponse(message)
             : DecodeXmlRpcResponse(message);
}

}  // namespace keypad
