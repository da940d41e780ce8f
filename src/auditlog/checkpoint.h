// Signed log checkpoints: one record per sealed segment, hash-chained to
// each other, binding (segment range, Merkle root, chain seal) under an
// HMAC from the audit authority's checkpoint key.
//
// A checkpoint is the auditor's catch-up anchor: instead of replaying the
// chain from genesis it verifies the (short) checkpoint chain, trusts the
// latest chain_seal, and only replays entries appended after it. It is
// also the truncation anchor: a prefix covered by a checkpoint may leave
// memory, because the checkpoint pins both its contents (merkle_root) and
// its place in the chain (chain_seal), and the sealed segment itself lives
// in the cold store.

#ifndef SRC_AUDITLOG_CHECKPOINT_H_
#define SRC_AUDITLOG_CHECKPOINT_H_

#include <cstdint>
#include <vector>

#include "src/util/bytes.h"
#include "src/util/result.h"
#include "src/wire/value.h"

namespace keypad {

struct LogCheckpoint {
  uint64_t id = 0;         // Dense from 0; doubles as the segment index.
  uint64_t start_seq = 0;  // First entry covered (== previous end_seq).
  uint64_t end_seq = 0;    // One past the last entry covered.
  Bytes merkle_root;       // Merkle root over the segment's entry material.
  Bytes chain_seal;        // The hash chain's seal at end_seq.
  Bytes prev_hash;         // Hash of the previous checkpoint (zeros for id 0).
  Bytes hash;              // SHA-256 over prev_hash || fields.
  Bytes signature;         // HMAC-SHA-256(checkpoint key, hash).

  Bytes ComputeHash() const;
  void Sign(const Bytes& key);  // Fills hash and signature.
  WireValue ToWire() const;
  static Result<LogCheckpoint> FromWire(const WireValue& value);
};

// Structural verification of a checkpoint chain: dense ids, contiguous
// ranges from 0, prev_hash linkage, hashes recomputing, signatures valid
// under `key`. kDataLoss on the first violation.
Status VerifyCheckpointChain(const std::vector<LogCheckpoint>& checkpoints,
                             const Bytes& key);

// The audit authority's checkpoint-signing key. In this simulation every
// replica and the auditor share one deployment-provisioned key (the paper's
// trusted-service assumption).
const Bytes& DefaultCheckpointKey();

}  // namespace keypad

#endif  // SRC_AUDITLOG_CHECKPOINT_H_
