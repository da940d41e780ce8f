// Device-to-service request authentication.
//
// At registration a device receives a random secret; every subsequent RPC
// carries an HMAC tag over (method || canonically-encoded payload). This
// implements the paper's requirement that probing the services for valid
// audit IDs is "additionally thwarted by authenticating the device to the
// servers" (§6). Both audit services share this helper.

#ifndef SRC_KEYSERVICE_AUTH_H_
#define SRC_KEYSERVICE_AUTH_H_

#include <string>

#include "src/util/bytes.h"
#include "src/util/ids.h"
#include "src/wire/value.h"

namespace keypad {

// Computes the auth tag for a call: HMAC-SHA256(secret, method || payload)
// where payload is the binary encoding of the param array *after* the
// device-id and tag slots.
Bytes ComputeAuthTag(const Bytes& device_secret, const std::string& method,
                     const WireValue::Array& payload);

// Convention: params[0] = device id (string), params[1] = auth tag (bytes),
// params[2..] = payload. These helpers build/split that frame.
WireValue::Array FrameAuthedCall(const std::string& device_id,
                                 const Bytes& device_secret,
                                 const std::string& method,
                                 WireValue::Array payload);

struct AuthedCall {
  std::string device_id;
  Bytes tag;
  WireValue::Array payload;
};

Result<AuthedCall> SplitAuthedCall(const WireValue::Array& params);

// Verifies the tag; kPermissionDenied on mismatch.
Status VerifyAuthTag(const Bytes& device_secret, const std::string& method,
                     const AuthedCall& call);

// The check every authenticated method runs, on the services and the phone
// alike (DESIGN.md §32): split the call, map its device to its secret
// (`secret_of` returns it, or the caller's own refusal), verify the tag,
// check the arity. A template: no std::function on the request path.
template <typename SecretOf>
Result<AuthedCall> CheckAuthedCall(const WireValue::Array& params,
                                   const std::string& method, size_t arity,
                                   const SecretOf& secret_of) {
  KP_ASSIGN_OR_RETURN(AuthedCall call, SplitAuthedCall(params));
  KP_ASSIGN_OR_RETURN(const Bytes* secret, secret_of(call.device_id));
  KP_RETURN_IF_ERROR(VerifyAuthTag(*secret, method, call));
  if (call.payload.size() != arity) {
    return InvalidArgumentError(method + ": bad arity");
  }
  return call;
}

// An id argument off the wire: a wrong-length id is refused with
// InvalidArgument, never dereferenced.
template <typename Id>
Result<Id> IdArg(const WireValue& value) {
  KP_ASSIGN_OR_RETURN(Bytes bytes, value.AsBytes());
  return Id::FromBytes(bytes);
}

}  // namespace keypad

#endif  // SRC_KEYSERVICE_AUTH_H_
