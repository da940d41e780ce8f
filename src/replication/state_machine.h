// The seam between the generic replication engine and a concrete service
// tier (DESIGN.md §10). A service plugs into a ReplicaSetEngine by
// wrapping itself in this interface; the engine never sees the service's
// concrete log-entry or delta types — deltas travel as opaque WireValues,
// and reconciliation runs on the tier's typed rows behind Reconcile.
//
// Contract, in replication terms:
//
//  * The service holds a hash-chained, append-only log plus derived state.
//    LogSize() is the chain length; it is the first (dominant) component of
//    the leadership claim, so longer chains win contests and reconciliation
//    orphans as little as possible.
//  * InstallReplicator hands the service the engine's ship function. The
//    service must call it with every sealed commit group's delta *before*
//    releasing the held client responses (the engine invokes `done` once
//    every in-sync backup acknowledged — or immediately when the leader is
//    the sole survivor).
//  * ApplyDelta applies a leader's delta on a backup. Chain continuity is
//    the real guard: a stale or forked leader's delta must fail
//    verification and mutate nothing.
//  * Snapshot/Reconcile transfer full state. Reconcile must verify the
//    adopted chain and must NOT carry private material the service models
//    as HSM-held. It finds the longest provable common prefix of the local
//    and the adopted chain and keeps the local sealed rows past it as
//    orphans (duplicated in the worst case, never lost).

#ifndef SRC_REPLICATION_STATE_MACHINE_H_
#define SRC_REPLICATION_STATE_MACHINE_H_

#include <cstdint>
#include <functional>

#include "src/util/bytes.h"
#include "src/util/result.h"
#include "src/wire/value.h"

namespace keypad {

class ReplicatedStateMachine {
 public:
  virtual ~ReplicatedStateMachine() = default;

  // Ship function the engine installs on the leader: `delta` is the wire
  // form of one sealed commit group (plus the state mutations it
  // describes), `entry_count` the number of log entries inside (stats
  // only), `done` releases the held client responses.
  using ShipFn = std::function<void(WireValue delta, size_t entry_count,
                                    std::function<void()> done)>;

  // Chain length (the leadership claim's dominant component).
  virtual uint64_t LogSize() const = 0;
  // Log prefix already streamed to backups; a rejoiner whose tail is below
  // this watermark would leave a gap and gets BEHIND.
  virtual uint64_t ShippedSeq() const = 0;

  // Full-state transfer for reconciliation: Reconcile adopts a leader's
  // snapshot and returns how many local sealed rows it orphaned. On error
  // nothing changed.
  virtual Bytes Snapshot() const = 0;
  virtual Result<size_t> Reconcile(const Bytes& snapshot) = 0;

  // Applies a leader's sealed delta on a backup (chain-verified).
  virtual Status ApplyDelta(const WireValue& delta) = 0;
  // Ships anything sealed locally but never streamed (promotion calls this
  // so a reconciled ex-leader's admin-path entries reach the backups).
  virtual void ReplicateNow() = 0;

  // Engine-installed hooks; both must take effect before the service binds
  // its RPC surface (the replicator forces the held-response path).
  virtual void InstallReplicator(ShipFn ship) = 0;
  virtual void InstallServeGate(std::function<Status()> gate) = 0;

  // --- Truncation support (DESIGN.md §15). Tiers without a segmented log
  //     ignore the watermark. ---------------------------------------------

  // Engine-installed truncation anchor: the log-prefix length known durable
  // (acknowledged) on every replica. A tier that truncates must never drop
  // entries past the watermark — the duplicated-but-never-lost orphan
  // invariant depends on a crashed peer's unacknowledged suffix surviving
  // reconciliation.
  virtual void InstallDurableWatermark(std::function<uint64_t()>) {}
};

}  // namespace keypad

#endif  // SRC_REPLICATION_STATE_MACHINE_H_
