// Client stub for the key service RPC protocol. The Keypad file system (and
// the paired device's proxy daemon) talk to the key-service tier through
// the KeyClient interface; this stub implements it against one service
// (one shard), handling (de)marshalling.
//
// Replica-aware mode (DESIGN.md §9): routing and auth framing are delegated
// to the generic ReplicaRouter — leader hint, NOT_LEADER:<i> redirects from
// the serve gate, probe-backoff failover cycles under a budget. This stub
// only contributes the key tier's typed (de)marshalling, written once in
// the async methods: each blocking method is its async twin awaited
// (DESIGN.md §22).

#ifndef SRC_KEYSERVICE_KEY_SERVICE_CLIENT_H_
#define SRC_KEYSERVICE_KEY_SERVICE_CLIENT_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/keyservice/audit_log.h"
#include "src/keyservice/key_client.h"
#include "src/replication/failover_client.h"
#include "src/rpc/rpc.h"
#include "src/sim/event_queue.h"
#include "src/util/ids.h"
#include "src/util/result.h"

namespace keypad {

// The key.get_multi frame (DESIGN.md §26), spoken by the service, this
// stub and the paired phone. Positional: the request is two parallel
// arrays [[id...], [op...]]; the reply is {"keys": [the key, or empty bytes
// for a miss, per item], "misses": [{code, msg} per empty slot, in order]}.
// The reply never echoes the ids the caller already holds.
WireValue::Array EncodeMultiGetRequest(
    const std::vector<KeyClient::MultiGetItem>& items);
Result<std::vector<KeyClient::MultiGetItem>> DecodeMultiGetRequest(
    const WireValue::Array& payload);
// `released` holds each item's outcome, in request order.
WireValue EncodeMultiGetReply(std::vector<Result<Bytes>> released);
// Fails on a reply whose lengths do not match `items`, so no key is ever
// handed to the wrong id.
Result<KeyClient::MultiGetResult> DecodeMultiGetReply(
    const std::vector<KeyClient::MultiGetItem>& items, const WireValue& reply);

class KeyServiceClient : public KeyClient {
 public:
  // Single-endpoint stub (one shard, no replicas) — the historical layout.
  KeyServiceClient(RpcClient* rpc, std::string device_id, Bytes device_secret)
      : router_(rpc, std::move(device_id), std::move(device_secret)) {}

  // Replica-set stub: one RpcClient per replica of the same shard, in
  // replica-index order (NOT_LEADER redirects are indices into this list).
  KeyServiceClient(EventQueue* queue, std::vector<RpcClient*> replicas,
                   std::string device_id, Bytes device_secret)
      : router_(queue, std::move(replicas), std::move(device_id),
                std::move(device_secret)) {}

  Result<Bytes> CreateKey(const AuditId& audit_id) override;
  Result<Bytes> GetKey(const AuditId& audit_id,
                       AccessOp op = AccessOp::kDemandFetch) override;
  void GetKeyAsync(const AuditId& audit_id, AccessOp op,
                   std::function<void(Result<Bytes>)> done) override;
  Result<MultiGetResult> GetKeysTyped(
      const std::vector<MultiGetItem>& items) override;
  void GetKeysTypedAsync(
      const std::vector<MultiGetItem>& items,
      std::function<void(Result<MultiGetResult>)> done) override;
  // Context-carrying variant (DESIGN.md §14): the ShardRouter batch
  // combiner passes the tightest member deadline and the most urgent
  // member priority so the server sheds the whole RPC correctly.
  void GetKeysTypedAsync(const std::vector<MultiGetItem>& items,
                         const CallContext& ctx,
                         std::function<void(Result<MultiGetResult>)> done);
  Status UploadJournal(const std::vector<JournalEntry>& entries) override;
  void UploadJournalAsync(const std::vector<JournalEntry>& entries,
                          std::function<void(Status)> done) override;
  void NoteEvictionAsync(const AuditId& audit_id) override;
  void DestroyKeyAsync(const AuditId& audit_id,
                       std::function<void(Status)> done) override;
  void CreateKeyAsync(const AuditId& audit_id,
                      std::function<void(Result<Bytes>)> done) override;

  const std::string& device_id() const override {
    return router_.device_id();
  }
  RpcClient* rpc() const { return router_.rpc(); }

  size_t replica_count() const { return router_.replica_count(); }
  size_t leader_hint() const { return router_.leader_hint(); }
  // How often a call moved to another replica after a failure, and how
  // often a NOT_LEADER redirect was followed.
  uint64_t failovers() const { return router_.failovers(); }
  uint64_t redirects() const { return router_.redirects(); }

 private:
  ReplicaRouter router_;
};

}  // namespace keypad

#endif  // SRC_KEYSERVICE_KEY_SERVICE_CLIENT_H_
