// Abstract client surface for the key-service tier.
//
// The Keypad file system only needs "a thing that fetches/creates/destroys
// remote keys"; whether that is one stub aimed at a single service
// (KeyServiceClient) or a ShardRouter scatter-gathering over a
// consistent-hash ring of shards (DESIGN.md §8) is a deployment decision.
// This interface is that seam.

#ifndef SRC_KEYSERVICE_KEY_CLIENT_H_
#define SRC_KEYSERVICE_KEY_CLIENT_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/keyservice/audit_log.h"
#include "src/sim/time.h"
#include "src/util/bytes.h"
#include "src/util/ids.h"
#include "src/util/result.h"

namespace keypad {

class KeyClient {
 public:
  virtual ~KeyClient() = default;

  using KeyPairs = std::vector<std::pair<AuditId, Bytes>>;

  // One round trip for a demand fetch plus directory prefetch.
  struct GroupFetch {
    Bytes demand_key;
    KeyPairs prefetched;
  };
  // Paired-device journal upload: an access or creation the phone
  // journaled, uploaded after the fact with its original client time. For
  // kCreate `key` carries the phone-generated remote key.
  struct JournalEntry {
    AuditId audit_id;
    AccessOp op = AccessOp::kDemandFetch;
    SimTime client_time;
    Bytes key;  // Only for kCreate.

    // The key.upload_journal codec of stub and service (DESIGN.md §32):
    // {id, op, ts[, key]}; a bad id or op (DecodeAccessOp) is refused.
    WireValue ToJournalWire() const;
    static Result<JournalEntry> FromJournalWire(const WireValue& value);
  };
  // Typed multi-key fetch (DESIGN.md §13): N ids, each carrying its own
  // access op, released in one round trip per shard. Missing or disabled
  // ids come back as per-id misses instead of failing their siblings.
  struct MultiGetItem {
    AuditId audit_id;
    AccessOp op = AccessOp::kDemandFetch;
  };
  struct MultiGetMiss {
    AuditId audit_id;
    Status status;
  };
  struct MultiGetResult {
    KeyPairs keys;  // Request order.
    std::vector<MultiGetMiss> misses;
  };

  virtual Result<Bytes> CreateKey(const AuditId& audit_id) = 0;
  // Asynchronous key creation, used by the creation barrier (the client
  // overlaps the key and metadata registrations, then waits for both).
  virtual void CreateKeyAsync(const AuditId& audit_id,
                              std::function<void(Result<Bytes>)> done) = 0;
  virtual Result<Bytes> GetKey(const AuditId& audit_id,
                               AccessOp op = AccessOp::kDemandFetch) = 0;
  // Asynchronous fetch (used for in-use cache refreshes, which must never
  // block foreground file operations).
  virtual void GetKeyAsync(const AuditId& audit_id, AccessOp op,
                           std::function<void(Result<Bytes>)> done) = 0;
  virtual Result<MultiGetResult> GetKeysTyped(
      const std::vector<MultiGetItem>& items) = 0;
  virtual void GetKeysTypedAsync(
      const std::vector<MultiGetItem>& items,
      std::function<void(Result<MultiGetResult>)> done) = 0;

  // The batch fetches are one body each over the typed fetch, so
  // key.get_multi is the only batch fetch on the wire (DESIGN.md §26).
  // GetKeys prefetches every id and drops the misses. FetchGroup fetches
  // the demand id and then its prefetch ids (the demand id removed from
  // them): a failed demand item fails the group with its status, a failed
  // prefetch item is dropped.
  virtual Result<KeyPairs> GetKeys(const std::vector<AuditId>& audit_ids) {
    return PairsOf(GetKeysTyped(PrefetchItems(audit_ids)));
  }
  virtual void GetKeysAsync(const std::vector<AuditId>& audit_ids,
                            std::function<void(Result<KeyPairs>)> done) {
    GetKeysTypedAsync(PrefetchItems(audit_ids),
                      [done = std::move(done)](Result<MultiGetResult> result) {
                        done(PairsOf(std::move(result)));
                      });
  }
  virtual Result<GroupFetch> FetchGroup(
      const AuditId& demand_id, const std::vector<AuditId>& prefetch_ids) {
    std::vector<MultiGetItem> items = GroupItems(demand_id, prefetch_ids);
    return GroupOf(items, GetKeysTyped(items));
  }
  virtual void FetchGroupAsync(const AuditId& demand_id,
                               const std::vector<AuditId>& prefetch_ids,
                               std::function<void(Result<GroupFetch>)> done) {
    std::vector<MultiGetItem> items = GroupItems(demand_id, prefetch_ids);
    GetKeysTypedAsync(items, [items, done = std::move(done)](
                                 Result<MultiGetResult> result) {
      done(GroupOf(items, std::move(result)));
    });
  }

  virtual Status UploadJournal(const std::vector<JournalEntry>& entries) = 0;
  // Non-blocking variant for uploads that must stay off the critical path.
  virtual void UploadJournalAsync(const std::vector<JournalEntry>& entries,
                                  std::function<void(Status)> done) = 0;
  // An upload that says what did not seal (DESIGN.md §29): the first
  // failure and every entry no shard acknowledged, each shard's in journal
  // order. One endpoint seals all or nothing; a router seals per shard. A
  // caller that keeps exactly `unsealed` journaled never uploads a sealed
  // row twice.
  struct JournalOutcome {
    Status status;
    std::vector<JournalEntry> unsealed;
  };
  virtual void SealJournalAsync(const std::vector<JournalEntry>& entries,
                                std::function<void(JournalOutcome)> done) {
    UploadJournalAsync(entries, [entries, done = std::move(done)](Status s) {
      done({s, s.ok() ? std::vector<JournalEntry>() : entries});
    });
  }
  // Fire-and-forget eviction notice.
  virtual void NoteEvictionAsync(const AuditId& audit_id) = 0;
  // Assured delete: permanently destroys the remote key (with it gone, the
  // on-disk ciphertext is unrecoverable by anyone — including the owner).
  virtual void DestroyKeyAsync(const AuditId& audit_id,
                               std::function<void(Status)> done) = 0;

  virtual const std::string& device_id() const = 0;

  // Each item's outcome, in the order of the `items` that `result`
  // answered: hits and misses both come back in request order, so walking
  // the items against them front-first pairs every item with its own
  // outcome, duplicate ids included. An item the result does not account
  // for reads NotFound.
  static std::vector<Result<Bytes>> InRequestOrder(
      const std::vector<MultiGetItem>& items, MultiGetResult result);

 private:
  static std::vector<MultiGetItem> PrefetchItems(
      const std::vector<AuditId>& audit_ids);
  static std::vector<MultiGetItem> GroupItems(
      const AuditId& demand_id, const std::vector<AuditId>& prefetch_ids);
  static Result<KeyPairs> PairsOf(Result<MultiGetResult> result);
  static Result<GroupFetch> GroupOf(const std::vector<MultiGetItem>& items,
                                    Result<MultiGetResult> result);
};

}  // namespace keypad

#endif  // SRC_KEYSERVICE_KEY_CLIENT_H_
