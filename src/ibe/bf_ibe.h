// Boneh–Franklin identity-based encryption (BasicIdent + DEM), from scratch.
//
// Keypad uses IBE to take metadata updates off the critical path (§3.4 of
// the paper): on rename(F, G) the client IBE-encrypts ("locks") the file's
// wrapped data key under the public-key string "<dir-id>/<new-name>|<audit
// id>" and ships the new pathname to the metadata service asynchronously.
// The metadata service is the PKG: it releases the matching IBE private key
// only after durably logging the pathname binding, so a thief cannot unlock
// the file without registering truthful metadata.
//
// Scheme (BF BasicIdent over the type-A pairing group):
//   Setup:    master secret s ∈ Z_q*, P_pub = s·P.
//   Extract:  d_id = s·H1(id)  where H1 hashes onto E(F_p)[q].
//   Encrypt:  r ∈ Z_q*, U = r·P, g = ê(H1(id), P_pub)^r,
//             (k_enc, k_mac) = HKDF(H2(g)); ct = AES-CTR(k_enc, m),
//             tag = HMAC(k_mac, U || ct).
//   Decrypt:  g = ê(d_id, U); same KDF; verify tag; decrypt.
// BasicIdent gives IND-ID-CPA; the HMAC tag adds ciphertext integrity
// (encrypt-then-MAC), which is what the file-lock format needs.

#ifndef SRC_IBE_BF_IBE_H_
#define SRC_IBE_BF_IBE_H_

#include <string>
#include <string_view>

#include "src/cryptocore/secure_random.h"
#include "src/ibe/curve.h"
#include "src/util/result.h"

namespace keypad {

// Public parameters published by the PKG.
struct IbePublicParams {
  const PairingParams* group = nullptr;  // Not owned.
  EcPoint p_pub;                         // s·P.
};

// Extracted per-identity private key.
struct IbePrivateKey {
  std::string identity;
  EcPoint d;  // s·H1(identity).

  Bytes Serialize(const PairingParams& group) const;
  // Rejects any d that is not a point of order q.
  static Result<IbePrivateKey> Deserialize(std::string identity,
                                           const Bytes& data,
                                           const PairingParams& group);
};

struct IbeCiphertext {
  EcPoint u;  // r·P.
  Bytes ct;   // AES-CTR body.
  Bytes tag;  // HMAC-SHA256 over U || ct.

  Bytes Serialize(const PairingParams& group) const;
  // Rejects any U that is not a point of order q, including U = O.
  static Result<IbeCiphertext> Deserialize(const Bytes& data,
                                           const PairingParams& group);
};

// The private key generator. The metadata service owns one of these.
class IbePkg {
 public:
  // Creates a PKG with a fresh master secret drawn from `rng`.
  IbePkg(const PairingParams& group, SecureRandom& rng);

  const IbePublicParams& public_params() const { return public_params_; }

  // Extracts the private key for an identity string.
  IbePrivateKey Extract(std::string_view identity) const;

 private:
  const PairingParams& group_;
  BigInt master_secret_;
  IbePublicParams public_params_;
};

// Client-side operations (no master secret required). Encrypt fails only if
// params.p_pub is not a point of order q, which an IbePkg never publishes.
Result<IbeCiphertext> IbeEncrypt(const IbePublicParams& params,
                                 std::string_view identity,
                                 const Bytes& plaintext, SecureRandom& rng);

// Fails with kDataLoss if the tag does not verify (wrong key / identity /
// tampered ciphertext), and with kInvalidArgument if either point is the
// identity or the key is not a point of order q.
Result<Bytes> IbeDecrypt(const IbePublicParams& params,
                         const IbePrivateKey& key,
                         const IbeCiphertext& ciphertext);

}  // namespace keypad

#endif  // SRC_IBE_BF_IBE_H_
