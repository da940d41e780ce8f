// Robustness and failure-recovery tests: malformed wire input, crash/
// remount recovery of in-flight IBE state, deep namespace chains, and
// network flapping.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/keypad/deployment.h"
#include "src/keyservice/key_service.h"
#include "src/keyservice/key_service_client.h"
#include "src/net/link.h"
#include "src/net/profile.h"
#include "src/rpc/admission.h"
#include "src/rpc/brownout.h"
#include "src/rpc/circuit_breaker.h"
#include "src/rpc/retry_budget.h"
#include "src/rpc/rpc.h"
#include "src/sim/event_queue.h"
#include "src/sim/random.h"
#include "src/wire/binary_codec.h"
#include "src/wire/xmlrpc.h"

namespace keypad {
namespace {

TEST(WireRobustnessTest, RandomGarbageNeverCrashesTheXmlParser) {
  SimRandom rng(1);
  for (int i = 0; i < 2000; ++i) {
    size_t len = rng.UniformU64(200);
    std::string garbage;
    for (size_t j = 0; j < len; ++j) {
      garbage.push_back(static_cast<char>(rng.UniformU64(256)));
    }
    // Must return an error (or, absurdly luckily, parse) — never hang or
    // crash.
    DecodeXmlRpcCall(garbage).status();
    DecodeXmlRpcResponse(garbage).status();
  }
}

TEST(WireRobustnessTest, TruncatedRealMessagesFailCleanly) {
  XmlRpcCall call;
  call.method = "key.get";
  call.params.push_back(WireValue(Bytes(24, 7)));
  call.params.push_back(WireValue(int64_t{1}));
  std::string xml = EncodeXmlRpcCall(call);
  for (size_t len = 0; len < xml.size(); len += 7) {
    auto result = DecodeXmlRpcCall(xml.substr(0, len));
    EXPECT_FALSE(result.ok());
  }
}

TEST(WireRobustnessTest, RandomGarbageNeverCrashesTheBinaryCodec) {
  SimRandom rng(2);
  for (int i = 0; i < 2000; ++i) {
    Bytes garbage;
    size_t len = rng.UniformU64(100);
    for (size_t j = 0; j < len; ++j) {
      garbage.push_back(static_cast<uint8_t>(rng.NextU64()));
    }
    BinaryDecode(garbage).status();
  }
}

TEST(WireRobustnessTest, DeeplyNestedBinaryValueRoundTrips) {
  WireValue value(int64_t{42});
  for (int i = 0; i < 100; ++i) {
    WireValue::Array wrapper;
    wrapper.push_back(std::move(value));
    value = WireValue(std::move(wrapper));
  }
  auto decoded = BinaryDecode(BinaryEncode(value));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, value);
}

TEST(RecoveryTest, RemountRecoversIbeLockedFileViaBlockingUnlock) {
  // A file created under IBE while the network is down is locked on disk
  // with in-memory pending state. If the machine "crashes" (remount: all
  // memory state lost), a later read must still work — via the blocking
  // unlock, which registers the truthful path.
  DeploymentOptions options;
  options.profile = CellularProfile();
  options.config.ibe_enabled = true;
  Deployment dep(options);
  auto& fs = dep.fs();

  dep.client_link().set_disconnected(true);
  ASSERT_TRUE(fs.Create("/orphan.doc").ok());
  ASSERT_TRUE(fs.WriteAll("/orphan.doc", BytesOf("survives crash")).ok());
  // Registrations and retries all fail silently.
  dep.queue().AdvanceBy(SimDuration::Minutes(5));

  // "Crash": mount a fresh KeypadFs over the same device with the stored
  // credentials (pending/grace state is gone).
  auto vanilla = EncFs::Mount(&dep.device(), &dep.queue(), 50,
                              dep.options().password, {});
  ASSERT_TRUE(vanilla.ok());
  auto creds = KeypadFs::LoadCredentials(vanilla->get());
  ASSERT_TRUE(creds.ok());
  auto clients = dep.MakeAttackerClients(*creds);
  auto fs2 = KeypadFs::Mount(&dep.device(), &dep.queue(), 51,
                             dep.options().password, {}, options.config,
                             clients->services);
  ASSERT_TRUE(fs2.ok());

  // Still offline: the lock holds.
  EXPECT_FALSE((*fs2)->ReadAll("/orphan.doc").ok());

  // Network restored: blocking unlock registers the binding and reads.
  dep.client_link().set_disconnected(false);
  auto data = (*fs2)->ReadAll("/orphan.doc");
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(StringOf(*data), "survives crash");
  // The metadata service now knows the true name.
  AuditId id = (*fs2)->ReadHeaderOf("/orphan.doc")->audit_id;
  auto path = dep.metadata_service().ResolvePath(dep.device_id(), id,
                                                 dep.queue().Now());
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(*path, "/orphan.doc");
}

TEST(RecoveryTest, DeepDirectoryChainsResolve) {
  DeploymentOptions options;
  options.profile = LanProfile();
  options.config.ibe_enabled = false;
  Deployment dep(options);
  auto& fs = dep.fs();

  std::string path;
  for (int depth = 0; depth < 40; ++depth) {
    path += "/d" + std::to_string(depth);
    ASSERT_TRUE(fs.Mkdir(path).ok());
  }
  std::string file = path + "/leaf.txt";
  ASSERT_TRUE(fs.Create(file).ok());
  AuditId id = fs.ReadHeaderOf(file)->audit_id;
  auto resolved = dep.metadata_service().ResolvePath(dep.device_id(), id,
                                                     dep.queue().Now());
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(*resolved, file);
}

TEST(RecoveryTest, LinkFlappingDuringWorkload) {
  // The network drops and returns repeatedly; operations fail while it is
  // down, succeed when it is up, and the audit invariants survive.
  DeploymentOptions options;
  options.profile = BroadbandProfile();
  options.config.ibe_enabled = false;
  Deployment dep(options);
  auto& fs = dep.fs();
  SimRandom rng(3);

  int created = 0;
  for (int i = 0; i < 40; ++i) {
    dep.client_link().set_disconnected(rng.Bernoulli(0.4));
    std::string path = "/f" + std::to_string(i);
    if (fs.Create(path).ok()) {
      ++created;
      EXPECT_TRUE(fs.WriteAll(path, BytesOf("x")).ok());
    }
    dep.queue().AdvanceBy(SimDuration::Seconds(5));
  }
  dep.client_link().set_disconnected(false);
  dep.queue().RunUntilIdle();

  EXPECT_GT(created, 5);
  EXPECT_TRUE(dep.key_service().log().Verify().ok());
  EXPECT_TRUE(dep.metadata_service().log().Verify().ok());
  // Every successfully created file is registered and re-readable.
  dep.queue().AdvanceBy(options.config.texp * 2 + SimDuration::Seconds(2));
  for (int i = 0; i < 40; ++i) {
    std::string path = "/f" + std::to_string(i);
    if (fs.Stat(path).ok()) {
      EXPECT_TRUE(fs.ReadAll(path).ok()) << path;
    }
  }
}

TEST(RecoveryTest, RpcRetryAfterDropsEventuallyLands) {
  // A lossy (but connected) link: blocking calls may time out; the create
  // either fails cleanly or succeeds completely (no half-registered state
  // that would break the audit invariant).
  DeploymentOptions options;
  options.profile = BroadbandProfile();
  options.config.ibe_enabled = false;
  Deployment dep(options);
  dep.client_link().set_drop_probability(0.3);
  auto& fs = dep.fs();

  int ok_count = 0;
  for (int i = 0; i < 30; ++i) {
    std::string path = "/f" + std::to_string(i);
    Status status = fs.Create(path);
    if (status.ok()) {
      ++ok_count;
      // Fully created: key and metadata both present.
      AuditId id = fs.ReadHeaderOf(path)->audit_id;
      EXPECT_TRUE(dep.key_service().GetKey(dep.device_id(), id).ok());
      EXPECT_TRUE(dep.metadata_service()
                      .ResolvePath(dep.device_id(), id, dep.queue().Now())
                      .ok());
    }
  }
  EXPECT_GT(ok_count, 3);
  dep.client_link().set_drop_probability(0);
  dep.queue().RunUntilIdle();
  EXPECT_TRUE(dep.key_service().log().Verify().ok());
}

// --- Overload robustness (DESIGN.md §14). ----------------------------------
//
// The breaker/budget/admission triad shares state: a half-open breaker
// admits exactly ONE probe, losers fail fast without resetting the
// cooldown, and the probe is exempt from retry-budget gating so a drained
// budget can never wedge the breaker open.

class OverloadRpcTest : public ::testing::Test {
 protected:
  OverloadRpcTest()
      : link_(&queue_, LanProfile()),
        server_(&queue_, SimDuration::Micros(150)),
        client_(&queue_, &link_, &server_) {
    server_.RegisterMethod("echo", [](const WireValue::Array& params) {
      return Result<WireValue>(params.empty() ? WireValue() : params[0]);
    });
    // Deterministic same-instant fanout: no per-call client CPU charge.
    client_.options().client_overhead = SimDuration(0);
    client_.options().client_overhead_binary = SimDuration(0);
  }

  // Times out one call so the breaker records a failure (responses
  // blackholed for the duration of the call).
  void TimeOutOneCall() {
    link_.set_partitioned(NetworkLink::Direction::kReverse, true);
    auto result = client_.Call("echo", {WireValue("lost")});
    EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
    link_.set_partitioned(NetworkLink::Direction::kReverse, false);
    queue_.RunUntilIdle();  // Drain the blackholed server work.
  }

  EventQueue queue_;
  NetworkLink link_;
  RpcServer server_;
  RpcClient client_;
};

TEST_F(OverloadRpcTest, HalfOpenAdmitsExactlyOneProbe) {
  CircuitBreakerOptions bo;
  bo.failure_threshold = 1;
  bo.cooldown = SimDuration::Seconds(10);
  client_.breaker() = CircuitBreaker(bo);
  client_.options().timeout = SimDuration::Seconds(1);
  client_.options().retry.max_attempts = 1;

  TimeOutOneCall();
  ASSERT_EQ(client_.breaker().state(), CircuitBreaker::State::kOpen);

  // Past the cooldown, a storm of concurrent calls arrives. The breaker
  // must let exactly one through as the canary; the rest fail fast.
  queue_.AdvanceBy(SimDuration::Seconds(11));
  uint64_t handled_before = server_.requests_handled();
  uint64_t rejected_before = client_.calls_rejected();
  int ok = 0, unavailable = 0;
  for (int i = 0; i < 5; ++i) {
    client_.CallAsync("echo", {WireValue(int64_t{i})},
                      [&](Result<WireValue> r) {
                        r.ok() ? ++ok : ++unavailable;
                        if (!r.ok()) {
                          EXPECT_EQ(r.status().code(),
                                    StatusCode::kUnavailable);
                        }
                      });
  }
  queue_.RunUntilIdle();
  EXPECT_EQ(ok, 1);           // The probe.
  EXPECT_EQ(unavailable, 4);  // The losers, rejected locally.
  EXPECT_EQ(server_.requests_handled() - handled_before, 1u);
  EXPECT_EQ(client_.calls_rejected() - rejected_before, 4u);
  // The probe's success closed the breaker; traffic flows again.
  EXPECT_EQ(client_.breaker().state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(client_.Call("echo", {WireValue("after")}).ok());
}

TEST_F(OverloadRpcTest, ProbeStormLosersDoNotResetCooldown) {
  CircuitBreakerOptions bo;
  bo.failure_threshold = 1;
  bo.cooldown = SimDuration::Seconds(10);
  client_.breaker() = CircuitBreaker(bo);
  client_.options().timeout = SimDuration::Seconds(1);
  client_.options().retry.max_attempts = 1;

  // Open the breaker, then let the probe fail too: the failed probe
  // re-opens with a FRESH cooldown starting at the probe's failure.
  link_.set_partitioned(NetworkLink::Direction::kReverse, true);
  // Times out; breaker opens.
  EXPECT_FALSE(client_.Call("echo", {WireValue("x")}).ok());
  queue_.AdvanceBy(SimDuration::Seconds(11));
  // Admitted as the probe; times out too.
  EXPECT_FALSE(client_.Call("echo", {WireValue("probe")}).ok());
  SimTime reopened_at = queue_.Now();
  ASSERT_EQ(client_.breaker().state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(client_.breaker().opened_count(), 2u);

  // A loser hammering mid-cooldown is rejected without a wire attempt —
  // and, critically, without touching the cooldown clock.
  queue_.AdvanceBy(SimDuration::Seconds(5));
  uint64_t attempts_before = client_.attempts_started();
  auto loser = client_.Call("echo", {WireValue("loser")});
  EXPECT_EQ(loser.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(client_.attempts_started(), attempts_before);
  EXPECT_GE(client_.calls_rejected(), 1u);

  // 10s after the probe failure (not 10s after the loser), the next call
  // is admitted as a new probe. If the loser had reset the cooldown this
  // call would still be rejected locally.
  link_.set_partitioned(NetworkLink::Direction::kReverse, false);
  queue_.RunUntilIdle();
  SimDuration since_reopen = queue_.Now() - reopened_at;
  if (since_reopen < SimDuration::Seconds(10)) {
    queue_.AdvanceBy(SimDuration::Seconds(10) - since_reopen +
                     SimDuration::Millis(1));
  }
  auto recovered = client_.Call("echo", {WireValue("recovered")});
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(client_.breaker().state(), CircuitBreaker::State::kClosed);
}

TEST_F(OverloadRpcTest, ShedRequestsNeverReachTheHandler) {
  AdmissionOptions adm;
  adm.enabled = true;
  adm.max_queue_depth = 4;
  server_.set_admission(adm);

  // 20 demand calls land in the same virtual instant; the bounded queue
  // admits 4 and sheds 16 with an explicit REJECTED fault. Shed requests
  // never execute, never charge the busy clock, and complete at network
  // RTT (no service-time wait) — rejection is cheap by construction.
  int completed = 0, rejected = 0;
  SimTime issued = queue_.Now();
  SimDuration slowest_rejection;
  for (int i = 0; i < 20; ++i) {
    client_.CallAsync("echo", {WireValue(int64_t{i})},
                      [&](Result<WireValue> r) {
                        if (r.ok()) {
                          ++completed;
                          return;
                        }
                        ++rejected;
                        EXPECT_TRUE(IsRejectedByServer(r.status()));
                        EXPECT_EQ(r.status().code(),
                                  StatusCode::kResourceExhausted);
                        slowest_rejection =
                            std::max(slowest_rejection, queue_.Now() - issued);
                      });
  }
  queue_.RunUntilIdle();
  EXPECT_EQ(completed, 4);
  EXPECT_EQ(rejected, 16);
  EXPECT_EQ(server_.requests_executed(), 4u);
  EXPECT_EQ(server_.shed_demand(), 16u);
  EXPECT_EQ(server_.requests_shed(), 16u);
  EXPECT_EQ(client_.calls_rejected_by_server(), 16u);
  // REJECTED came back in one RTT — well before even the first admitted
  // request finished service.
  EXPECT_LE(slowest_rejection.micros(), LanProfile().rtt.micros());
}

TEST_F(OverloadRpcTest, DeadlineDeadOnArrivalIsRejected) {
  AdmissionOptions adm;
  adm.enabled = true;
  server_.set_admission(adm);
  // The server is busy for the next 50ms; a call that must finish within
  // 20ms is dead on arrival and rejected before occupying a slot.
  server_.ChargeBusy(SimDuration::Millis(50));
  CallContext ctx;
  ctx.deadline = queue_.Now() + SimDuration::Millis(20);
  auto result = client_.Call("echo", {WireValue("late")}, ctx);
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(IsRejectedByServer(result.status()));
  EXPECT_EQ(server_.deadline_expired(), 1u);
  EXPECT_EQ(server_.requests_executed(), 0u);
}

TEST_F(OverloadRpcTest, DeadlineExpiredInQueueSkipsTheHandler) {
  // Admission flips on while a tight-deadline request already sits in the
  // service queue (the operator enabling KEYPAD_ADMISSION on a loaded
  // server): the dequeue-side check notices the deadline passed in queue
  // and answers REJECTED instead of executing work nobody awaits.
  RpcServer slow(&queue_, SimDuration::Millis(10));
  slow.RegisterMethod("echo", [](const WireValue::Array& params) {
    return Result<WireValue>(params.empty() ? WireValue() : params[0]);
  });
  RpcClient client(&queue_, &link_, &slow, client_.options());
  CallContext ctx;
  ctx.deadline = queue_.Now() + SimDuration::Millis(5);
  Result<WireValue> result = WireValue();
  client.CallAsync("echo", {WireValue("stale")}, ctx,
                   [&](Result<WireValue> r) { result = std::move(r); });
  AdmissionOptions adm;
  adm.enabled = true;
  slow.set_admission(adm);  // Enabled after arrival, before dequeue.
  queue_.RunUntilIdle();
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(IsRejectedByServer(result.status()));
  EXPECT_EQ(slow.deadline_expired(), 1u);
  EXPECT_EQ(slow.requests_executed(), 0u);
}

TEST_F(OverloadRpcTest, HalfOpenProbeIsExemptFromTheRetryBudget) {
  CircuitBreakerOptions bo;
  bo.failure_threshold = 1;
  bo.cooldown = SimDuration::Seconds(5);
  client_.breaker() = CircuitBreaker(bo);
  client_.options().timeout = SimDuration::Seconds(1);
  client_.options().retry.max_attempts = 3;
  client_.options().retry.jitter = 0;
  client_.options().retry.initial_backoff = SimDuration::Millis(10);
  // A budget that can never fund a retry: zero ratio, zero reserve.
  RetryBudgetOptions rb;
  rb.enabled = true;
  rb.ratio = 0.0;
  rb.initial_balance = 0.0;
  RpcOptions opts = client_.options();
  opts.retry_budget = rb;
  RpcClient budgeted(&queue_, &link_, &server_, opts);
  budgeted.breaker() = CircuitBreaker(bo);

  // Ordinary call against a blackholed server: attempt 1 times out and
  // the drained budget denies attempt 2 — one wire attempt total.
  link_.set_partitioned(NetworkLink::Direction::kReverse, true);
  auto starved = budgeted.Call("echo", {WireValue("x")});
  EXPECT_EQ(starved.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(budgeted.attempts_started(), 1u);
  EXPECT_GE(budgeted.retries_budget_denied(), 1u);
  ASSERT_EQ(budgeted.breaker().state(), CircuitBreaker::State::kOpen);

  // The half-open probe is THE breaker's canary: it must run its full
  // retry ladder even with an empty budget, or a drained budget could
  // keep the breaker open forever.
  queue_.AdvanceBy(SimDuration::Seconds(6));
  uint64_t attempts_before = budgeted.attempts_started();
  auto probe = budgeted.Call("echo", {WireValue("probe")});
  EXPECT_EQ(probe.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(budgeted.attempts_started() - attempts_before, 3u);
}

TEST(RetryBudgetTest, CapsSustainedRetryRatio) {
  RetryBudgetOptions options;
  options.enabled = true;
  options.ratio = 0.1;
  options.initial_balance = 2.0;
  options.max_balance = 5.0;
  RetryBudget budget(options);
  SimTime now;
  // 100 calls, each wanting one retry: the reserve funds 2 and the
  // deposits fund ~10% of the rest — the storm is capped, not amplified.
  uint64_t allowed = 0;
  for (int i = 0; i < 100; ++i) {
    budget.OnFirstAttempt();
    if (budget.TryAcquireRetry(now)) ++allowed;
  }
  EXPECT_EQ(allowed, budget.retries_allowed());
  EXPECT_EQ(100u - allowed, budget.retries_denied());
  EXPECT_LE(allowed, 2u + 10u + 1u);  // reserve + ratio*100, rounding slack.
  EXPECT_GE(allowed, 10u);
}

TEST(RetryBudgetTest, ServerRejectionClosesTheWindow) {
  RetryBudgetOptions options;
  options.enabled = true;
  options.initial_balance = 5.0;
  options.reject_window = SimDuration::Seconds(1);
  RetryBudget budget(options);
  SimTime t0;
  budget.OnFirstAttempt();
  EXPECT_TRUE(budget.TryAcquireRetry(t0));

  // REJECTED is explicit backpressure: all retries are denied for the
  // window even though the bucket still holds tokens.
  budget.NoteServerRejected(t0);
  EXPECT_EQ(budget.rejects_observed(), 1u);
  EXPECT_GT(budget.balance(), 1.0);
  EXPECT_FALSE(budget.TryAcquireRetry(t0 + SimDuration::Millis(500)));
  EXPECT_TRUE(budget.TryAcquireRetry(t0 + SimDuration::Millis(1001)));
}

TEST(RetryBudgetTest, DisabledBudgetNeverDenies) {
  RetryBudget budget;  // enabled = false by default.
  SimTime now;
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(budget.TryAcquireRetry(now));
  }
  EXPECT_EQ(budget.retries_denied(), 0u);
}

TEST(BrownoutTest, TripsAfterThresholdSignalsAndHolds) {
  BrownoutOptions options;
  options.enabled = true;
  options.signal_threshold = 3;
  options.window = SimDuration::Seconds(1);
  options.hold = SimDuration::Seconds(2);
  BrownoutController brownout(options);
  SimTime t0;
  brownout.NoteOverloadSignal(t0);
  brownout.NoteOverloadSignal(t0 + SimDuration::Millis(100));
  EXPECT_FALSE(brownout.active(t0 + SimDuration::Millis(200)));
  brownout.NoteOverloadSignal(t0 + SimDuration::Millis(200));  // Trips.
  EXPECT_TRUE(brownout.active(t0 + SimDuration::Millis(300)));
  EXPECT_EQ(brownout.stats().activations, 1u);
  // Holds for `hold` past the last signal, then relaxes.
  EXPECT_TRUE(brownout.active(t0 + SimDuration::Millis(2100)));
  EXPECT_FALSE(brownout.active(t0 + SimDuration::Seconds(3)));
}

TEST(BrownoutTest, StretchesBatchesAndSuppressesPrefetchWhileActive) {
  BrownoutOptions options;
  options.enabled = true;
  options.signal_threshold = 1;
  BrownoutController brownout(options);
  SimTime t0;
  // Inactive: base window passes through, prefetch flows.
  EXPECT_EQ(brownout.StretchBatchWindow(SimDuration::Micros(400), t0).micros(),
            400);
  EXPECT_FALSE(brownout.SuppressPrefetch(t0));
  brownout.NoteOverloadSignal(t0);
  ASSERT_TRUE(brownout.active(t0 + SimDuration::Millis(1)));
  // Active: x4 stretch, zero windows lifted to the minimum so stretching
  // actually batches something, and prefetch fanout is dropped.
  EXPECT_EQ(brownout
                .StretchBatchWindow(SimDuration::Micros(400),
                                    t0 + SimDuration::Millis(1))
                .micros(),
            1600);
  EXPECT_GE(brownout
                .StretchBatchWindow(SimDuration(0), t0 + SimDuration::Millis(1))
                .micros(),
            1000);
  EXPECT_TRUE(brownout.SuppressPrefetch(t0 + SimDuration::Millis(1)));
  EXPECT_EQ(brownout.stats().prefetches_suppressed, 1u);
  EXPECT_GE(brownout.stats().batch_windows_stretched, 2u);
}

TEST(OverloadAuditTest, ShedKeyFetchesOweNoAuditRow) {
  // The audit contract under shedding: a key only leaves the service
  // after its row is logged, and a shed request releases nothing — so it
  // owes nothing. Rows must match executed fetches exactly.
  EventQueue queue;
  NetworkLink link(&queue, LanProfile());
  RpcServer rpc_server(&queue, SimDuration::Millis(1));
  KeyService service(&queue, /*rng_seed=*/5);
  service.BindRpc(&rpc_server);
  AdmissionOptions adm;
  adm.enabled = true;
  adm.max_queue_depth = 3;
  rpc_server.set_admission(adm);

  RpcOptions opts;
  opts.client_overhead = SimDuration(0);
  opts.client_overhead_binary = SimDuration(0);
  RpcClient rpc_client(&queue, &link, &rpc_server, opts);
  Bytes secret = service.RegisterDevice("laptop");
  KeyServiceClient client(&rpc_client, "laptop", secret);

  SecureRandom rng(uint64_t{7});
  std::vector<AuditId> ids;
  for (int i = 0; i < 12; ++i) {
    AuditId id = AuditId::Random(rng);
    ASSERT_TRUE(service.CreateKey("laptop", id).ok());
    ids.push_back(id);
  }
  size_t rows_before = service.log().entries().size();

  // 12 concurrent demand fetches against a 3-deep queue: some execute,
  // the rest are shed.
  int fetched = 0, shed = 0;
  for (const AuditId& id : ids) {
    client.GetKeyAsync(id, AccessOp::kDemandFetch, [&](Result<Bytes> r) {
      if (r.ok()) {
        ++fetched;
      } else {
        ASSERT_TRUE(IsRejectedByServer(r.status())) << r.status().message();
        ++shed;
      }
    });
  }
  queue.RunUntilIdle();
  EXPECT_EQ(fetched + shed, 12);
  EXPECT_GT(shed, 0);
  EXPECT_GT(fetched, 0);
  EXPECT_EQ(rpc_server.requests_shed(), static_cast<uint64_t>(shed));
  // Exactly one kDemandFetch row per key that actually left the service;
  // shed requests added nothing, and the chain still verifies.
  size_t new_rows = service.log().entries().size() - rows_before;
  EXPECT_EQ(new_rows, static_cast<size_t>(fetched));
  EXPECT_TRUE(service.log().Verify().ok());
}

}  // namespace
}  // namespace keypad
