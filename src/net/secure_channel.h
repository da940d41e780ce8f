// Authenticated encryption for client↔service traffic with time-based key
// rotation (paper §6): "communications between the Keypad file system and
// the servers should be encrypted ... keys must change every Texp seconds
// to ensure that an attacker who extracts the current network encryption
// key from the device cannot decrypt past intercepted data."
//
// Implementation: a one-way hash ratchet. Epoch e covers virtual time
// [e·T, (e+1)·T). The epoch key is k_e = HMAC(k_{e-1}, "kp-chan-ratchet");
// advancing erases prior keys, so extracting the device's current key
// reveals nothing about past epochs (one-wayness of HMAC). Messages are
// sealed with AES-256-CTR + HMAC-SHA256 (encrypt-then-MAC) under keys
// derived from the epoch key. Both ends construct the same ratchet from the
// shared channel root established at device registration.
//
// Replay posture: the channel keeps no per-message state, so a recorded
// sealed frame opens again within the current-or-previous epoch window —
// replay is *epoch-bounded* here, not prevented. Preventing a replayed
// request from re-executing (and double-writing audit rows) is the RPC
// layer's job: the at-most-once dedup frame travels inside the sealed
// payload (see ReplyCache and DESIGN.md §7).

#ifndef SRC_NET_SECURE_CHANNEL_H_
#define SRC_NET_SECURE_CHANNEL_H_

#include <cstdint>
#include <optional>

#include "src/cryptocore/aes.h"
#include "src/cryptocore/hmac.h"
#include "src/cryptocore/secure_random.h"
#include "src/sim/time.h"
#include "src/util/result.h"

namespace keypad {

class SecureChannel {
 public:
  // `root_key` is the shared secret; `rotation_period` is Texp.
  SecureChannel(Bytes root_key, SimDuration rotation_period);

  // Seals plaintext for the epoch containing `now`.
  // Format: epoch u64 || nonce 16 || ct || mac 32.
  Bytes Seal(SimTime now, const Bytes& plaintext, SecureRandom& rng);

  // Opens a sealed message. Accepts the current epoch and, to absorb
  // rotation races in flight, one epoch back (the previous key is retained
  // for exactly one period). Fails with kPermissionDenied for older epochs
  // and kDataLoss for MAC/framing failures.
  Result<Bytes> Open(SimTime now, const Bytes& sealed);

  // The epoch index for `now`.
  uint64_t EpochOf(SimTime now) const;

  // Exposes the current epoch key — used by tests that model an attacker
  // extracting key material from a stolen warm device.
  Bytes CurrentEpochKeyForTesting(SimTime now);

 private:
  // Per-epoch message ciphers. HKDF expansion, the AES key schedule, and
  // the HMAC pad absorption only depend on the epoch key, so they are built
  // once per epoch instead of once per message (every RPC frame crosses
  // this path). Two slots (epoch % 2) cover the current epoch plus the
  // one-back window Open() accepts.
  struct EpochCipher {
    uint64_t epoch = ~uint64_t{0};
    std::optional<Aes256> aes;
    std::optional<Hmac> mac;
  };

  // Ratchets forward (erasing old keys) so current_key_ matches `epoch`.
  void AdvanceTo(uint64_t epoch);

  // Returns the (cached) cipher state for `epoch` whose key is `epoch_key`.
  EpochCipher& CipherFor(uint64_t epoch, const Bytes& epoch_key);

  SimDuration rotation_period_;
  uint64_t current_epoch_ = 0;
  Bytes current_key_;
  Bytes previous_key_;  // Key for current_epoch_ - 1; empty at epoch 0.
  EpochCipher cipher_slots_[2];
};

}  // namespace keypad

#endif  // SRC_NET_SECURE_CHANNEL_H_
