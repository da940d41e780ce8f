#include "src/ibe/bf_ibe.h"

#include "src/cryptocore/aes.h"
#include "src/cryptocore/hmac.h"
#include "src/cryptocore/sha256.h"
#include "src/ibe/fp2.h"
#include "src/ibe/pairing.h"

namespace keypad {

namespace {

// H2: pairing value -> (enc key, mac key, iv).
struct DemKeys {
  Bytes enc_key;  // 32 bytes.
  Bytes mac_key;  // 32 bytes.
  Bytes iv;       // 16 bytes.
};

DemKeys DeriveDemKeys(const Fp2& g, const PairingParams& group) {
  Bytes ikm = g.Serialize(group);
  Bytes okm = Hkdf(ikm, /*salt=*/{}, "keypad-ibe-dem", 80);
  DemKeys keys;
  keys.enc_key.assign(okm.begin(), okm.begin() + 32);
  keys.mac_key.assign(okm.begin() + 32, okm.begin() + 64);
  keys.iv.assign(okm.begin() + 64, okm.begin() + 80);
  return keys;
}

Bytes MacInput(const EcPoint& u, const Bytes& ct,
               const PairingParams& group) {
  Bytes in = SerializePoint(u, group);
  Append(in, ct);
  return in;
}

}  // namespace

Bytes IbePrivateKey::Serialize(const PairingParams& group) const {
  return SerializePoint(d, group);
}

Result<IbePrivateKey> IbePrivateKey::Deserialize(std::string identity,
                                                 const Bytes& data,
                                                 const PairingParams& group) {
  KP_ASSIGN_OR_RETURN(EcPoint d, DeserializePoint(data, group));
  if (!HasOrderQ(d, group)) {
    return InvalidArgumentError("ibe private key: not a point of order q");
  }
  IbePrivateKey key;
  key.identity = std::move(identity);
  key.d = std::move(d);
  return key;
}

Bytes IbeCiphertext::Serialize(const PairingParams& group) const {
  Bytes out = SerializePoint(u, group);
  AppendU32Be(out, static_cast<uint32_t>(ct.size()));
  Append(out, ct);
  AppendU32Be(out, static_cast<uint32_t>(tag.size()));
  Append(out, tag);
  return out;
}

Result<IbeCiphertext> IbeCiphertext::Deserialize(const Bytes& data,
                                                 const PairingParams& group) {
  size_t point_len = 1 + 2 * group.FieldBytes();
  if (data.size() < point_len + 8) {
    return InvalidArgumentError("ibe ciphertext: too short");
  }
  IbeCiphertext out;
  KP_ASSIGN_OR_RETURN(
      out.u,
      DeserializePoint(Bytes(data.begin(), data.begin() + point_len), group));
  // U = O would pair to 1 under every key, making the DEM keys public; any
  // U outside E(F_p)[q] is no honest r·P either.
  if (!HasOrderQ(out.u, group)) {
    return InvalidArgumentError("ibe ciphertext: U is not a point of order q");
  }
  size_t pos = point_len;
  uint32_t ct_len = ReadU32Be(data.data() + pos);
  pos += 4;
  if (data.size() < pos + ct_len + 4) {
    return InvalidArgumentError("ibe ciphertext: truncated body");
  }
  out.ct.assign(data.begin() + pos, data.begin() + pos + ct_len);
  pos += ct_len;
  uint32_t tag_len = ReadU32Be(data.data() + pos);
  pos += 4;
  if (data.size() != pos + tag_len) {
    return InvalidArgumentError("ibe ciphertext: truncated tag");
  }
  out.tag.assign(data.begin() + pos, data.end());
  return out;
}

IbePkg::IbePkg(const PairingParams& group, SecureRandom& rng) : group_(group) {
  // Master secret uniform in [1, q).
  do {
    master_secret_ = BigInt::RandomBelow(rng, group.q);
  } while (master_secret_.IsZero());
  public_params_.group = &group_;
  public_params_.p_pub = EcScalarMul(master_secret_, group.g, group);
}

IbePrivateKey IbePkg::Extract(std::string_view identity) const {
  IbePrivateKey key;
  key.identity = std::string(identity);
  EcPoint q_id = HashToPoint(identity, group_);
  key.d = EcScalarMul(master_secret_, q_id, group_);
  return key;
}

Result<IbeCiphertext> IbeEncrypt(const IbePublicParams& params,
                                 std::string_view identity,
                                 const Bytes& plaintext, SecureRandom& rng) {
  const PairingParams& group = *params.group;
  BigInt r;
  do {
    r = BigInt::RandomBelow(rng, group.q);
  } while (r.IsZero());

  IbeCiphertext out;
  out.u = EcScalarMul(r, group.g, group);

  EcPoint q_id = HashToPoint(identity, group);
  KP_ASSIGN_OR_RETURN(Fp2 g_id, TatePairing(q_id, params.p_pub, group));
  Fp2 g_r = Fp2Pow(g_id, r, group);

  DemKeys keys = DeriveDemKeys(g_r, group);
  auto aes = Aes256::Create(keys.enc_key);
  out.ct = aes->CtrXor(keys.iv, 0, plaintext);
  out.tag = HmacSha256(keys.mac_key, MacInput(out.u, out.ct, group));
  return out;
}

Result<Bytes> IbeDecrypt(const IbePublicParams& params,
                         const IbePrivateKey& key,
                         const IbeCiphertext& ciphertext) {
  const PairingParams& group = *params.group;
  if (key.d.infinity || ciphertext.u.infinity) {
    return InvalidArgumentError("ibe: point at infinity");
  }
  KP_ASSIGN_OR_RETURN(Fp2 g, TatePairing(key.d, ciphertext.u, group));
  DemKeys keys = DeriveDemKeys(g, group);
  Bytes expected_tag =
      HmacSha256(keys.mac_key, MacInput(ciphertext.u, ciphertext.ct, group));
  if (!ConstantTimeEquals(expected_tag, ciphertext.tag)) {
    return DataLossError("ibe: authentication tag mismatch");
  }
  auto aes = Aes256::Create(keys.enc_key);
  return aes->CtrXor(keys.iv, 0, ciphertext.ct);
}

}  // namespace keypad
