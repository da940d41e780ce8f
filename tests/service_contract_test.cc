// The service shell's contract (DESIGN.md §21), run over both audit tiers:
// every authenticated method refuses unregistered devices and bad tags
// before touching the log, a failing serve gate answers at once without
// appending, a held response leaves only when the replicator acknowledges
// its delta (and never after the crash hook), audit.<tier>_log_tail
// returns only the caller's rows, a snapshot without a log base is refused,
// and a delta whose row carries a seal of the wrong width fails to decode.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "src/keyservice/auth.h"
#include "src/keyservice/key_service.h"
#include "src/metaservice/metadata_service.h"
#include "src/net/link.h"
#include "src/net/profile.h"

namespace keypad {
namespace {

// Per-tier adapters: how to build the service, one gated method that
// appends a row, and an in-process call that appends a row for a device.
struct KeyTierCase {
  using Service = KeyService;
  using Tier = KeyTier;
  static constexpr const char* kGatedMethod = "key.create";
  static constexpr const char* kTailMethod = "audit.key_log_tail";
  static constexpr const char* kUnregistered =
      "key service: unregistered device";

  static std::unique_ptr<Service> Make(EventQueue* queue) {
    return std::make_unique<KeyService>(queue, /*rng_seed=*/31);
  }
  static WireValue::Array GatedPayload(SecureRandom& rng) {
    return {WireValue(AuditId::Random(rng).ToBytes())};
  }
  static void AppendRow(Service& service, const std::string& device,
                        SecureRandom& rng) {
    ASSERT_TRUE(service.CreateKey(device, AuditId::Random(rng)).ok());
  }
};

struct MetaTierCase {
  using Service = MetadataService;
  using Tier = MetaTier;
  static constexpr const char* kGatedMethod = "meta.register_root";
  static constexpr const char* kTailMethod = "audit.meta_log_tail";
  static constexpr const char* kUnregistered =
      "metadata service: unregistered device";

  static std::unique_ptr<Service> Make(EventQueue* queue) {
    return std::make_unique<MetadataService>(queue, /*rng_seed=*/31,
                                             TestPairingParams());
  }
  static WireValue::Array GatedPayload(SecureRandom& rng) {
    return {WireValue(DirId::Random(rng).ToBytes())};
  }
  static void AppendRow(Service& service, const std::string& device,
                        SecureRandom& rng) {
    ASSERT_TRUE(service.RegisterRoot(device, DirId::Random(rng)).ok());
  }
};

template <typename Case>
class ServiceShellContractTest : public ::testing::Test {
 protected:
  using Service = typename Case::Service;

  ServiceShellContractTest()
      : link_(&queue_, BroadbandProfile()),
        server_(&queue_, SimDuration::Micros(150)),
        service_(Case::Make(&queue_)),
        rpc_(&queue_, &link_, &server_),
        rng_(uint64_t{32}) {}

  // Registers two devices and binds the RPC surface. With `replicated`, a
  // replicator that stashes every delta's `done` is installed first, which
  // puts every method on the held-response path.
  void Bind(bool replicated) {
    if (replicated) {
      service_->set_replicator(
          [this](typename Service::Delta, std::function<void()> done) {
            acks_.push_back(std::move(done));
          });
    }
    service_->BindRpc(&server_);
    secret_ = service_->RegisterDevice("laptop");
    other_secret_ = service_->RegisterDevice("desktop");
  }

  // Sends one authenticated call; the result lands in the returned slot
  // once the client hears back.
  std::shared_ptr<std::optional<Result<WireValue>>> Send(
      const std::string& method, const std::string& device,
      const Bytes& secret, WireValue::Array payload) {
    auto slot = std::make_shared<std::optional<Result<WireValue>>>();
    rpc_.CallAsync(method,
                   FrameAuthedCall(device, secret, method, std::move(payload)),
                   [slot](Result<WireValue> result) {
                     *slot = std::move(result);
                   });
    return slot;
  }

  Result<WireValue> CallNow(const std::string& method,
                            const std::string& device, const Bytes& secret,
                            WireValue::Array payload) {
    auto slot = Send(method, device, secret, std::move(payload));
    queue_.RunUntilIdle();
    EXPECT_TRUE(slot->has_value()) << method << " never answered";
    return slot->has_value() ? **slot : InternalError("no answer");
  }

  EventQueue queue_;
  NetworkLink link_;
  RpcServer server_;
  std::unique_ptr<Service> service_;
  RpcClient rpc_;
  SecureRandom rng_;
  Bytes secret_;
  Bytes other_secret_;
  std::vector<std::function<void()>> acks_;
};

using Tiers = ::testing::Types<KeyTierCase, MetaTierCase>;
TYPED_TEST_SUITE(ServiceShellContractTest, Tiers);

TYPED_TEST(ServiceShellContractTest, UnregisteredDeviceIsRefusedUnlogged) {
  this->Bind(/*replicated=*/false);
  const size_t before = this->service_->log().size();
  Result<WireValue> result =
      this->CallNow(TypeParam::kGatedMethod, "stranger", Bytes(32, 7),
                    TypeParam::GatedPayload(this->rng_));
  EXPECT_EQ(result.status().code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(result.status().message(), TypeParam::kUnregistered);
  EXPECT_EQ(this->service_->log().size(), before);
}

TYPED_TEST(ServiceShellContractTest, BadAuthTagIsRefusedUnlogged) {
  this->Bind(/*replicated=*/false);
  const size_t before = this->service_->log().size();
  Result<WireValue> result =
      this->CallNow(TypeParam::kGatedMethod, "laptop", this->other_secret_,
                    TypeParam::GatedPayload(this->rng_));
  EXPECT_EQ(result.status().code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(this->service_->log().size(), before);
}

TYPED_TEST(ServiceShellContractTest, FailingGateAnswersAtOnceUnlogged) {
  this->service_->set_serve_gate(
      [] { return FailedPreconditionError("NOT_LEADER:2"); });
  this->Bind(/*replicated=*/true);
  const size_t before = this->service_->log().size();
  // The replicator never acknowledges anything, so only a call that is
  // never held can answer.
  Result<WireValue> result =
      this->CallNow(TypeParam::kGatedMethod, "laptop", this->secret_,
                    TypeParam::GatedPayload(this->rng_));
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(result.status().message(), "NOT_LEADER:2");
  EXPECT_EQ(this->service_->log().size(), before);
  EXPECT_TRUE(this->acks_.empty());
  // audit.* is not gated: any replica serves it, and with nothing appended
  // there is nothing to ship, so it releases without an ack.
  EXPECT_TRUE(this->CallNow(TypeParam::kTailMethod, "laptop", this->secret_,
                            {WireValue(int64_t{0})})
                  .ok());
  EXPECT_TRUE(this->acks_.empty());
}

TYPED_TEST(ServiceShellContractTest, HeldResponseWaitsForTheAck) {
  this->Bind(/*replicated=*/true);
  auto slot = this->Send(TypeParam::kGatedMethod, "laptop", this->secret_,
                         TypeParam::GatedPayload(this->rng_));
  // Well past the round trip, well short of the client's 5 s timeout.
  this->queue_.AdvanceBy(SimDuration::Seconds(1));
  // The row is appended and shipped, but the response waits on the ack.
  EXPECT_FALSE(slot->has_value());
  ASSERT_EQ(this->acks_.size(), 1u);
  EXPECT_EQ(this->service_->shipped_seq(), this->service_->log().size());
  this->acks_[0]();
  this->queue_.AdvanceBy(SimDuration::Seconds(1));
  ASSERT_TRUE(slot->has_value());
  EXPECT_TRUE((*slot)->ok()) << (*slot)->status();
}

TYPED_TEST(ServiceShellContractTest, CrashHookDropsHeldResponseUnsent) {
  bool handled = false;
  // The gate runs in the handler's own event, so the queue can stop right
  // after the handler ran and before its window flushes.
  this->service_->set_serve_gate([&handled] {
    handled = true;
    return Status::Ok();
  });
  this->Bind(/*replicated=*/true);
  auto slot = this->Send(TypeParam::kGatedMethod, "laptop", this->secret_,
                         TypeParam::GatedPayload(this->rng_));
  ASSERT_TRUE(this->queue_.RunUntilFlag(&handled));
  this->service_->AbortInFlight();
  this->server_.set_down(true);
  this->queue_.RunUntilIdle();
  // Never shipped, never released: the client only ever sees its own
  // timeout.
  EXPECT_TRUE(this->acks_.empty());
  ASSERT_TRUE(slot->has_value());
  EXPECT_FALSE((*slot)->ok());
}

TYPED_TEST(ServiceShellContractTest, LogTailReturnsOnlyTheCallersRows) {
  this->Bind(/*replicated=*/false);
  for (int i = 0; i < 3; ++i) {
    TypeParam::AppendRow(*this->service_, "laptop", this->rng_);
    TypeParam::AppendRow(*this->service_, "desktop", this->rng_);
  }
  TypeParam::AppendRow(*this->service_, "desktop", this->rng_);
  Result<WireValue> reply = this->CallNow(TypeParam::kTailMethod, "laptop",
                                          this->secret_,
                                          {WireValue(int64_t{0})});
  ASSERT_TRUE(reply.ok()) << reply.status();
  auto next = reply->Field("next");
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next->AsInt(),
            static_cast<int64_t>(this->service_->log().size()));
  auto blob = reply->Field("entries");
  ASSERT_TRUE(blob.ok());
  auto rows = DecodeFlatRows<typename TypeParam::Service::Row>(
      *blob->AsBytes());
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows->size(), 3u);
  for (const auto& row : *rows) {
    EXPECT_EQ(row.device_id, "laptop");
  }
}

// Every snapshot carries its log base (DESIGN.md §15); one without is
// refused as DataLoss before any state changes.
TYPED_TEST(ServiceShellContractTest, SnapshotWithoutLogBaseIsRefusedUnchanged) {
  this->Bind(/*replicated=*/false);
  TypeParam::AppendRow(*this->service_, "laptop", this->rng_);
  const Bytes snapshot = this->service_->Snapshot();
  TypeParam::AppendRow(*this->service_, "desktop", this->rng_);
  const Bytes before = this->service_->Snapshot();

  Result<WireValue> decoded = BinaryDecode(snapshot);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  WireValue::Struct fields = std::get<WireValue::Struct>(decoded->raw());
  ASSERT_EQ(fields.erase("log_base"), 1u);
  Status status =
      this->service_->Restore(BinaryEncode(WireValue(std::move(fields))));
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status;
  EXPECT_EQ(this->service_->Snapshot(), before);

  // The intact snapshot restores the one-row log.
  ASSERT_TRUE(this->service_->Restore(snapshot).ok());
  EXPECT_EQ(this->service_->log().size(), 1u);
}

// A backup decodes a delta before applying any of it, and a row whose seal
// is not 32 bytes does not decode (DESIGN.md §27): the backup stays as it
// was. The same delta intact applies.
TYPED_TEST(ServiceShellContractTest, DeltaWithAWrongWidthSealFailsToDecode) {
  using Service = typename TypeParam::Service;
  std::vector<typename Service::Delta> shipped;
  this->service_->set_replicator(
      [&shipped](typename Service::Delta delta, std::function<void()> done) {
        shipped.push_back(std::move(delta));
        done();
      });
  this->secret_ = this->service_->RegisterDevice("laptop");
  TypeParam::AppendRow(*this->service_, "laptop", this->rng_);
  TypeParam::AppendRow(*this->service_, "laptop", this->rng_);
  this->service_->ReplicateNow();
  ASSERT_EQ(shipped.size(), 1u);
  const WireValue intact = shipped[0].ToWire();

  // Cut the last row's group seal to 31 bytes.
  const std::string rows_field = TypeParam::Tier::kRowsField;
  WireValue::Struct fields = std::get<WireValue::Struct>(intact.raw());
  WireValue::Array rows = std::get<WireValue::Array>(fields[rows_field].raw());
  ASSERT_EQ(rows.size(), 2u);
  WireValue::Struct row = std::get<WireValue::Struct>(rows.back().raw());
  row["hash"] = WireValue(Bytes(31, 0x5a));
  rows.back() = WireValue(std::move(row));
  fields[rows_field] = WireValue(std::move(rows));
  const WireValue tampered(std::move(fields));

  // How a replica set's backup takes a delta off the wire.
  std::unique_ptr<Service> backup = TypeParam::Make(&this->queue_);
  auto apply = [&backup](const WireValue& wire) -> Status {
    KP_ASSIGN_OR_RETURN(typename Service::Delta delta,
                        Service::Delta::FromWire(wire));
    return backup->ApplyReplicated(delta);
  };
  Result<typename Service::Delta> parsed = Service::Delta::FromWire(tampered);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(apply(tampered).code(), StatusCode::kDataLoss);
  EXPECT_EQ(backup->log().size(), 0u);

  ASSERT_TRUE(apply(intact).ok());
  ASSERT_EQ(backup->log().size(), 2u);
  EXPECT_EQ(backup->log().entries().back().entry_hash,
            this->service_->log().entries().back().entry_hash);
}

}  // namespace
}  // namespace keypad
