// Client-side router for the sharded key-service tier (DESIGN.md §8, §13).
//
// Implements KeyClient over N per-shard KeyServiceClient stubs:
//  * single-ID operations route to the owning shard (consistent-hash ring);
//  * GetKey and GetKeysTyped are one per-item gather over the same fetch
//    path, with results merged back in the caller's original order
//    (GetKeys and FetchGroup are KeyClient's bodies over GetKeysTyped);
//    UploadJournal batches split per shard and go out as parallel async
//    scatter-gather;
//  * single-flight coalescing: concurrent GetKey misses on the same
//    (audit id, op) share one in-flight RPC — the waiters all complete
//    from the leader's response, and the audit log records one fetch (the
//    key left the service once, so one entry is the honest record);
//  * batched fetch (on by default; Options::batch_fetch = false sends one
//    key.get per item instead): fetches issued in the same event tick (a
//    longer window under brownout) combine into one key.get_multi RPC per
//    shard, amortizing one auth frame, one unwrap pass, and one
//    commit-group seal over the batch. Demand fetches and prefetches ride
//    the same wire RPC, each item keeping its own access op so the audit
//    record stays exactly typed.
//
// Failure semantics mirror the unsharded client where it matters: a failed
// demand fetch fails the call, while failed prefetch sub-batches just drop
// those keys (prefetch is advisory; the next demand miss re-fetches). A
// journal upload seals per shard: SealJournalAsync names the entries of
// every shard that failed, so the caller re-sends only those.
//
// One shard (DESIGN.md §29): the router hands every call straight to its
// stub — no single-flight, no combiner flush, no stats — and only feeds
// REJECTED replies to the brownout controller. An unsharded deployment
// therefore speaks the bare stub's frames (a lone GetKey stays a key.get,
// not a one-item key.get_multi).
//
// Every blocking method is its async twin awaited (DESIGN.md §22): there
// is no blocking shortcut past single-flight, batching or the brownout
// controller, whatever the options.

#ifndef SRC_KEYSERVICE_SHARD_ROUTER_H_
#define SRC_KEYSERVICE_SHARD_ROUTER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/keyservice/key_client.h"
#include "src/keyservice/key_service_client.h"
#include "src/keyservice/shard_ring.h"
#include "src/rpc/brownout.h"
#include "src/sim/event_queue.h"

namespace keypad {

class ShardRouter : public KeyClient {
 public:
  // Placement ring (DESIGN.md §8): fixed, so every client of a deployment
  // routes an id to the same shard.
  static constexpr uint64_t kRingSeed = 0x5ead;
  static constexpr int kVnodesPerShard = 64;

  struct Options {
    bool single_flight = true;
    // Combine fetches into per-shard key.get_multi RPCs; false sends one
    // key.get per item, for every fetch API.
    bool batch_fetch = true;
    // Optional client brownout controller (DESIGN.md §14). When set, the
    // router reports REJECTED replies as overload signals and stretches
    // the batch window while the brownout is active (more fetches per
    // RPC, fewer RPCs at the overloaded tier). Borrowed pointer.
    BrownoutController* brownout = nullptr;
    // Routes a one-shard router's calls like a sharded one's (single-flight
    // and the combiner included) instead of passing them through. Only the
    // key-tier bench rig sets it, to measure both at one shard.
    bool route_one_shard = false;
  };

  struct Stats {
    uint64_t scatter_batches = 0;  // Batches that actually spanned shards.
    uint64_t subrequests = 0;      // Per-shard RPCs issued by scatter paths.
    uint64_t single_flight_leaders = 0;
    uint64_t single_flight_joins = 0;  // Waiters that shared a leader's RPC.
    uint64_t shard_errors = 0;  // Failed best-effort (prefetch) sub-batches.
    uint64_t batch_rpcs = 0;     // key.get_multi RPCs issued.
    uint64_t batched_keys = 0;   // Items those RPCs carried.
  };

  // `shards[i]` must be the stub for ring shard i; all stubs share one
  // device identity. Borrowed pointers — the deployment owns the stubs.
  ShardRouter(EventQueue* queue, std::vector<KeyServiceClient*> shards);
  ShardRouter(EventQueue* queue, std::vector<KeyServiceClient*> shards,
              Options options);

  Result<Bytes> CreateKey(const AuditId& audit_id) override;
  void CreateKeyAsync(const AuditId& audit_id,
                      std::function<void(Result<Bytes>)> done) override;
  Result<Bytes> GetKey(const AuditId& audit_id,
                       AccessOp op = AccessOp::kDemandFetch) override;
  void GetKeyAsync(const AuditId& audit_id, AccessOp op,
                   std::function<void(Result<Bytes>)> done) override;
  Result<MultiGetResult> GetKeysTyped(
      const std::vector<MultiGetItem>& items) override;
  void GetKeysTypedAsync(
      const std::vector<MultiGetItem>& items,
      std::function<void(Result<MultiGetResult>)> done) override;
  Status UploadJournal(const std::vector<JournalEntry>& entries) override;
  void UploadJournalAsync(const std::vector<JournalEntry>& entries,
                          std::function<void(Status)> done) override;
  void SealJournalAsync(const std::vector<JournalEntry>& entries,
                        std::function<void(JournalOutcome)> done) override;
  void NoteEvictionAsync(const AuditId& audit_id) override;
  void DestroyKeyAsync(const AuditId& audit_id,
                       std::function<void(Status)> done) override;

  const std::string& device_id() const override;

  const ShardRing& ring() const { return ring_; }
  size_t shard_count() const { return shards_.size(); }
  KeyServiceClient* shard(size_t i) const { return shards_[i]; }
  const Stats& stats() const { return stats_; }
  bool batch_fetch() const { return options_.batch_fetch; }

 private:
  // Coalescing key: concurrent fetches only merge when they'd produce an
  // identical audit record (same id, same op).
  using FlightKey = std::pair<AuditId, int>;

  // One queued fetch awaiting its shard's next batch flush. `transport` is
  // set when the whole batch RPC failed (vs. a per-key miss the service
  // reported inside a successful RPC) — the gather paths treat the former
  // as a shard error and the latter as an ordinary missing key.
  struct FetchOutcome {
    Result<Bytes> key;
    bool transport = false;
  };
  using FetchDone = std::function<void(FetchOutcome)>;
  struct PendingFetch {
    AuditId id;
    AccessOp op;
    // Absolute deadline this fetch inherited at enqueue time (the stub's
    // RPC total_deadline from then). The flush puts the batch's tightest
    // member deadline — and its most urgent member priority — on the
    // combined key.get_multi wire frame, so the server never sheds a
    // batch more casually than its most demanding member deserves.
    SimTime deadline;
    FetchDone done;
  };

  KeyServiceClient* OwnerOf(const AuditId& audit_id) const {
    return passthrough_ ? shards_[0] : shards_[ring_.ShardFor(audit_id)];
  }
  // Feeds a REJECTED reply to the brownout controller, if any.
  void NoteReply(const Status& status);

  // Batched wire path: queue the fetch on its owning shard's pending batch
  // and arm a flush at the end of the current tick (or the brownout's
  // stretched window). With batching disabled this degenerates to one
  // key.get RPC per item.
  void EnqueueFetch(const AuditId& audit_id, AccessOp op, FetchDone done);
  void FlushShard(size_t shard);

  EventQueue* queue_;
  std::vector<KeyServiceClient*> shards_;
  Options options_;
  // One shard, not routed: every call goes straight to shards_[0].
  bool passthrough_;
  ShardRing ring_;
  Stats stats_;
  std::map<FlightKey, std::vector<std::function<void(Result<Bytes>)>>>
      in_flight_;
  std::map<size_t, std::vector<PendingFetch>> pending_;
  std::set<size_t> flush_scheduled_;
};

}  // namespace keypad

#endif  // SRC_KEYSERVICE_SHARD_ROUTER_H_
