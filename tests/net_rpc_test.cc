#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "src/net/link.h"
#include "src/net/profile.h"
#include "src/net/secure_channel.h"
#include "src/rpc/rpc.h"
#include "src/sim/event_queue.h"

namespace keypad {
namespace {

TEST(ProfileTest, PaperRtts) {
  EXPECT_EQ(LanProfile().rtt.micros(), 100);
  EXPECT_EQ(WlanProfile().rtt.millis(), 2);
  EXPECT_EQ(BroadbandProfile().rtt.millis(), 25);
  EXPECT_EQ(DslProfile().rtt.millis(), 125);
  EXPECT_EQ(CellularProfile().rtt.millis(), 300);
  EXPECT_EQ(AllEvaluationProfiles().size(), 5u);
  EXPECT_EQ(CustomRttProfile(SimDuration::Millis(40)).rtt.millis(), 40);
}

TEST(LinkTest, DeliversAfterOneWayLatency) {
  EventQueue q;
  NetworkLink link(&q, CellularProfile());
  bool delivered = false;
  SimTime sent_at = q.Now();
  EXPECT_TRUE(link.Send(100, [&] { delivered = true; }));
  q.RunUntilIdle();
  EXPECT_TRUE(delivered);
  EXPECT_EQ((q.Now() - sent_at).millis(), 150);  // RTT/2.
  EXPECT_EQ(link.bytes_sent(), 100u);
  EXPECT_EQ(link.messages_sent(), 1u);
}

TEST(LinkTest, DisconnectedDropsSilently) {
  EventQueue q;
  NetworkLink link(&q, LanProfile());
  link.set_disconnected(true);
  bool delivered = false;
  EXPECT_FALSE(link.Send(10, [&] { delivered = true; }));
  q.RunUntilIdle();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(link.messages_dropped(), 1u);
  EXPECT_EQ(link.bytes_sent(), 0u);
}

TEST(LinkTest, DropProbabilityLosesSomeMessages) {
  EventQueue q;
  NetworkLink link(&q, LanProfile(), /*drop_seed=*/7);
  link.set_drop_probability(0.5);
  int delivered = 0;
  for (int i = 0; i < 200; ++i) {
    link.Send(1, [&] { ++delivered; });
  }
  q.RunUntilIdle();
  EXPECT_GT(delivered, 50);
  EXPECT_LT(delivered, 150);
  EXPECT_EQ(link.messages_sent() + link.messages_dropped(), 200u);
}

TEST(LinkTest, CounterReset) {
  EventQueue q;
  NetworkLink link(&q, LanProfile());
  link.Send(42, [] {});
  link.ResetCounters();
  EXPECT_EQ(link.bytes_sent(), 0u);
  EXPECT_EQ(link.messages_sent(), 0u);
}

TEST(LinkTest, BurstLossClustersDrops) {
  EventQueue q;
  NetworkLink link(&q, LanProfile(), /*drop_seed=*/11);
  LinkChaosOptions chaos;
  chaos.burst_loss = true;
  chaos.p_enter_bad = 0.05;
  chaos.p_exit_bad = 0.2;
  chaos.loss_bad = 0.9;
  link.set_chaos(chaos);
  std::vector<bool> delivered(2000, false);
  for (size_t i = 0; i < delivered.size(); ++i) {
    link.Send(1, [&delivered, i] { delivered[i] = true; });
  }
  q.RunUntilIdle();
  size_t losses = 0;
  size_t adjacent_losses = 0;  // Loss immediately following a loss.
  for (size_t i = 0; i < delivered.size(); ++i) {
    if (!delivered[i]) {
      ++losses;
      if (i > 0 && !delivered[i - 1]) {
        ++adjacent_losses;
      }
    }
  }
  ASSERT_GT(losses, 50u);
  // The signature of bursts: given a loss, the next message is far more
  // likely than the marginal rate to be lost too.
  double marginal = static_cast<double>(losses) / delivered.size();
  double conditional = static_cast<double>(adjacent_losses) / losses;
  EXPECT_GT(conditional, 2 * marginal);
}

TEST(LinkTest, DuplicationDeliversTwice) {
  EventQueue q;
  NetworkLink link(&q, LanProfile(), /*drop_seed=*/3);
  LinkChaosOptions chaos;
  chaos.duplicate_probability = 1.0;
  link.set_chaos(chaos);
  int deliveries = 0;
  EXPECT_TRUE(link.Send(10, [&] { ++deliveries; }));
  q.RunUntilIdle();
  EXPECT_EQ(deliveries, 2);
  EXPECT_EQ(link.messages_duplicated(), 1u);
  EXPECT_EQ(link.messages_sent(), 1u);  // One logical send.
}

TEST(LinkTest, ReorderingLetsLaterMessagesOvertake) {
  EventQueue q;
  NetworkLink link(&q, LanProfile(), /*drop_seed=*/5);
  LinkChaosOptions chaos;
  chaos.reorder_probability = 1.0;
  chaos.reorder_extra_max = SimDuration::Millis(50);
  link.set_chaos(chaos);
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) {
    link.Send(1, [&order, i] { order.push_back(i); });
  }
  q.RunUntilIdle();
  ASSERT_EQ(order.size(), 50u);
  EXPECT_FALSE(std::is_sorted(order.begin(), order.end()));
}

TEST(LinkTest, AsymmetricPartitionDropsOneDirectionSilently) {
  EventQueue q;
  NetworkLink link(&q, LanProfile());
  link.set_partitioned(NetworkLink::Direction::kReverse, true);
  bool forward = false;
  bool reverse = false;
  // Partition loss is NOT locally observable: both sends report true.
  EXPECT_TRUE(
      link.Send(1, NetworkLink::Direction::kForward, [&] { forward = true; }));
  EXPECT_TRUE(
      link.Send(1, NetworkLink::Direction::kReverse, [&] { reverse = true; }));
  q.RunUntilIdle();
  EXPECT_TRUE(forward);
  EXPECT_FALSE(reverse);
  EXPECT_EQ(link.messages_dropped(), 1u);
}

TEST(LinkTest, ScheduledOutageWindowFlipsDisconnected) {
  EventQueue q;
  NetworkLink link(&q, LanProfile());
  SimTime start = q.Now() + SimDuration::Seconds(10);
  link.ScheduleOutage(start, SimDuration::Seconds(5));
  EXPECT_FALSE(link.disconnected());
  q.RunUntil(start + SimDuration::Seconds(1));
  EXPECT_TRUE(link.disconnected());
  q.RunUntil(start + SimDuration::Seconds(6));
  EXPECT_FALSE(link.disconnected());
}

TEST(LinkTest, LatencyJitterStretchesDelivery) {
  EventQueue q;
  NetworkLink link(&q, CellularProfile(), /*drop_seed=*/9);
  LinkChaosOptions chaos;
  chaos.latency_jitter_frac = 0.5;
  link.set_chaos(chaos);
  bool saw_jitter = false;
  for (int i = 0; i < 20; ++i) {
    SimTime sent_at = q.Now();
    bool delivered = false;
    link.Send(1, [&] { delivered = true; });
    q.RunUntilIdle();
    ASSERT_TRUE(delivered);
    SimDuration elapsed = q.Now() - sent_at;
    EXPECT_GE(elapsed.millis(), 150);        // Never earlier than OneWay.
    EXPECT_LE(elapsed.millis(), 225);        // At most 1.5x.
    saw_jitter = saw_jitter || elapsed.millis() > 150;
  }
  EXPECT_TRUE(saw_jitter);
}

TEST(SecureChannelTest, SealOpenRoundTrip) {
  SecureRandom rng(uint64_t{1});
  SecureChannel alice(BytesOf("shared root"), SimDuration::Seconds(100));
  SecureChannel bob(BytesOf("shared root"), SimDuration::Seconds(100));
  SimTime now = SimTime::Epoch() + SimDuration::Seconds(42);
  Bytes sealed = alice.Seal(now, BytesOf("key request"), rng);
  auto opened = bob.Open(now, sealed);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(StringOf(*opened), "key request");
}

TEST(SecureChannelTest, TamperDetected) {
  SecureRandom rng(uint64_t{2});
  SecureChannel a(BytesOf("root"), SimDuration::Seconds(100));
  SecureChannel b(BytesOf("root"), SimDuration::Seconds(100));
  SimTime now = SimTime::Epoch();
  Bytes sealed = a.Seal(now, BytesOf("payload"), rng);
  sealed[sealed.size() / 2] ^= 1;
  EXPECT_FALSE(b.Open(now, sealed).ok());
  EXPECT_FALSE(b.Open(now, Bytes(10, 0)).ok());
}

TEST(SecureChannelTest, AcceptsPreviousEpochOnly) {
  SecureRandom rng(uint64_t{3});
  SimDuration period = SimDuration::Seconds(100);
  SecureChannel sender(BytesOf("root"), period);
  SecureChannel receiver(BytesOf("root"), period);

  SimTime t0 = SimTime::Epoch() + SimDuration::Seconds(50);
  Bytes sealed = sender.Seal(t0, BytesOf("m"), rng);

  // One epoch later: still accepted (in-flight rotation race).
  SimTime t1 = t0 + period;
  EXPECT_TRUE(receiver.Open(t1, sealed).ok());

  // Two epochs later: rejected.
  SecureChannel receiver2(BytesOf("root"), period);
  SimTime t2 = t0 + period + period;
  auto r = receiver2.Open(t2, sealed);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kPermissionDenied);
}

TEST(SecureChannelTest, RatchetIsForwardSecure) {
  // The key for epoch N+1 is derivable from epoch N's, but not vice versa:
  // distinct epochs produce unrelated-looking keys and the channel refuses
  // stale traffic. We verify at least that epoch keys differ and advance
  // erases the pre-previous key.
  SecureChannel chan(BytesOf("root"), SimDuration::Seconds(10));
  Bytes k0 = chan.CurrentEpochKeyForTesting(SimTime::Epoch());
  Bytes k5 = chan.CurrentEpochKeyForTesting(SimTime::Epoch() +
                                            SimDuration::Seconds(50));
  EXPECT_NE(k0, k5);
}

class RpcTest : public ::testing::Test {
 protected:
  RpcTest()
      : link_(&queue_, CellularProfile()),
        server_(&queue_, SimDuration::Micros(150)),
        client_(&queue_, &link_, &server_) {
    server_.RegisterMethod("echo", [](const WireValue::Array& params) {
      return Result<WireValue>(params.empty() ? WireValue() : params[0]);
    });
    server_.RegisterMethod("fail", [](const WireValue::Array&) {
      return Result<WireValue>(PermissionDeniedError("revoked"));
    });
  }

  EventQueue queue_;
  NetworkLink link_;
  RpcServer server_;
  RpcClient client_;
};

TEST_F(RpcTest, BlockingCallRoundTrip) {
  SimTime start = queue_.Now();
  auto result = client_.Call("echo", {WireValue("hello")});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result->AsString(), "hello");
  // Elapsed ≈ RTT (300 ms) + client overhead + server time.
  SimDuration elapsed = queue_.Now() - start;
  EXPECT_GE(elapsed.millis(), 300);
  EXPECT_LT(elapsed.millis(), 302);
  EXPECT_EQ(server_.requests_handled(), 1u);
}

TEST_F(RpcTest, ServerFaultPropagates) {
  auto result = client_.Call("fail", {});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(result.status().message(), "revoked");
}

TEST_F(RpcTest, UnknownMethodIsNotFound) {
  auto result = client_.Call("nope", {});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(RpcTest, DisconnectedLinkFailsFast) {
  // A locally-known-down link costs ~0, not a full timeout ladder.
  link_.set_disconnected(true);
  client_.options().timeout = SimDuration::Seconds(2);
  SimTime start = queue_.Now();
  auto result = client_.Call("echo", {WireValue(int64_t{1})});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_LT((queue_.Now() - start).millis(), 1);  // Just client overhead.
  EXPECT_EQ(client_.calls_failed_fast(), 1u);
  EXPECT_EQ(client_.calls_timed_out(), 0u);
}

TEST_F(RpcTest, RetryRecoversAfterPartitionHeals) {
  // Responses are blackholed (not locally observable), so attempt 1 times
  // out; the partition heals before attempt 2, which gets through.
  link_.set_partitioned(NetworkLink::Direction::kReverse, true);
  client_.options().timeout = SimDuration::Seconds(2);
  queue_.Schedule(queue_.Now() + SimDuration::Seconds(1), [this] {
    link_.set_partitioned(NetworkLink::Direction::kReverse, false);
  });
  auto result = client_.Call("echo", {WireValue("persist")});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result->AsString(), "persist");
  EXPECT_EQ(client_.attempts_started(), 2u);
  EXPECT_EQ(client_.calls_timed_out(), 0u);
}

TEST_F(RpcTest, RetriedRequestExecutesAtMostOnce) {
  // Attempt 1 executes but its response is lost; attempt 2 is recognized
  // as a replay and answered from the reply cache without re-executing.
  int executions = 0;
  server_.RegisterMethod("count", [&](const WireValue::Array&) {
    ++executions;
    return Result<WireValue>(WireValue(int64_t{executions}));
  });
  link_.set_partitioned(NetworkLink::Direction::kReverse, true);
  client_.options().timeout = SimDuration::Seconds(2);
  queue_.Schedule(queue_.Now() + SimDuration::Seconds(1), [this] {
    link_.set_partitioned(NetworkLink::Direction::kReverse, false);
  });
  auto result = client_.Call("count", {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result->AsInt(), 1);
  EXPECT_EQ(executions, 1);
  EXPECT_EQ(server_.requests_executed(), 1u);
  EXPECT_GE(server_.reply_cache().hits(), 1u);
}

TEST_F(RpcTest, DuplicatedDeliveryExecutesAtMostOnce) {
  // The network duplicates every message; the handler must still run once
  // per logical call and the client must get exactly one result.
  int executions = 0;
  server_.RegisterMethod("count", [&](const WireValue::Array&) {
    ++executions;
    return Result<WireValue>(WireValue(int64_t{executions}));
  });
  LinkChaosOptions chaos;
  chaos.duplicate_probability = 1.0;
  link_.set_chaos(chaos);
  auto result = client_.Call("count", {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result->AsInt(), 1);
  queue_.RunUntilIdle();  // Let the duplicates land.
  EXPECT_EQ(executions, 1);
  EXPECT_GE(server_.reply_cache().hits() + server_.reply_cache().in_flight_drops(),
            1u);
}

TEST_F(RpcTest, DownServerSwallowsRequests) {
  server_.set_down(true);
  client_.options().timeout = SimDuration::Seconds(1);
  client_.options().retry.max_attempts = 2;
  auto result = client_.Call("echo", {WireValue("void")});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(client_.calls_timed_out(), 1u);
  EXPECT_EQ(server_.requests_dropped(), 2u);
  EXPECT_EQ(server_.requests_executed(), 0u);
}

TEST_F(RpcTest, CircuitBreakerOpensAndRecovers) {
  client_.options().timeout = SimDuration::Seconds(1);
  client_.options().retry.max_attempts = 1;
  CircuitBreakerOptions breaker_options;
  breaker_options.failure_threshold = 2;
  breaker_options.cooldown = SimDuration::Seconds(10);
  client_.breaker() = CircuitBreaker(breaker_options);

  // Responses blackholed: two timed-out calls trip the breaker.
  link_.set_partitioned(NetworkLink::Direction::kReverse, true);
  EXPECT_FALSE(client_.Call("echo", {}).ok());
  EXPECT_FALSE(client_.Call("echo", {}).ok());
  EXPECT_EQ(client_.breaker().state(), CircuitBreaker::State::kOpen);

  // While open: rejected locally, nothing goes on the wire.
  uint64_t attempts_before = client_.attempts_started();
  SimTime start = queue_.Now();
  auto rejected = client_.Call("echo", {});
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(client_.attempts_started(), attempts_before);
  EXPECT_EQ(client_.calls_rejected(), 1u);
  EXPECT_LT((queue_.Now() - start).millis(), 1);

  // After the cooldown (and the partition healing) a half-open probe is
  // admitted; its success closes the breaker.
  link_.set_partitioned(NetworkLink::Direction::kReverse, false);
  queue_.AdvanceBy(SimDuration::Seconds(11));
  auto probe = client_.Call("echo", {WireValue("probe")});
  ASSERT_TRUE(probe.ok());
  EXPECT_EQ(client_.breaker().state(), CircuitBreaker::State::kClosed);
}

// --- Circuit breaker failure classes. ---------------------------------------
//
// Two classes count toward the threshold: transport timeouts and link-down
// aborts. Each class is exercised alone, then mixed; link restoration must
// waive the cooldown only for abort-opened breakers.

TEST(CircuitBreakerClassTest, TimeoutsAloneOpenTheBreaker) {
  CircuitBreakerOptions options;
  options.failure_threshold = 3;
  CircuitBreaker breaker(options);
  SimTime t;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(breaker.AllowRequest(t));
    breaker.RecordFailure(t);
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  }
  ASSERT_TRUE(breaker.AllowRequest(t));
  breaker.RecordFailure(t);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.opened_count(), 1u);
  EXPECT_EQ(breaker.abort_opened_count(), 0u);
}

TEST(CircuitBreakerClassTest, LinkDownAbortsAloneOpenTheBreaker) {
  CircuitBreakerOptions options;
  options.failure_threshold = 3;
  CircuitBreaker breaker(options);
  SimTime t;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(breaker.AllowRequest(t));
    breaker.RecordAborted(t);
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  }
  ASSERT_TRUE(breaker.AllowRequest(t));
  breaker.RecordAborted(t);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.opened_count(), 1u);
  EXPECT_EQ(breaker.abort_opened_count(), 1u);
}

TEST(CircuitBreakerClassTest, MixedClassesShareTheThreshold) {
  CircuitBreakerOptions options;
  options.failure_threshold = 3;
  CircuitBreaker breaker(options);
  SimTime t;
  breaker.RecordFailure(t);
  breaker.RecordAborted(t);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  breaker.RecordFailure(t);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  // The last straw was a timeout, so this opening is not abort-class.
  EXPECT_EQ(breaker.abort_opened_count(), 0u);
}

TEST(CircuitBreakerClassTest, SuccessResetsBothClasses) {
  CircuitBreakerOptions options;
  options.failure_threshold = 2;
  CircuitBreaker breaker(options);
  SimTime t;
  breaker.RecordAborted(t);
  breaker.RecordSuccess();
  breaker.RecordFailure(t);
  breaker.RecordSuccess();
  breaker.RecordAborted(t);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreakerClassTest, LinkRestoredWaivesAbortCooldownOnly) {
  CircuitBreakerOptions options;
  options.failure_threshold = 1;
  options.cooldown = SimDuration::Seconds(60);
  SimTime t;

  // Abort-opened: NoteLinkRestored ends the cooldown; the next request is
  // the half-open probe.
  CircuitBreaker aborted(options);
  aborted.RecordAborted(t);
  ASSERT_EQ(aborted.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(aborted.AllowRequest(t + SimDuration::Seconds(1)));
  aborted.NoteLinkRestored(t + SimDuration::Seconds(2));
  EXPECT_TRUE(aborted.AllowRequest(t + SimDuration::Seconds(2)));
  EXPECT_EQ(aborted.state(), CircuitBreaker::State::kHalfOpen);

  // Timeout-opened: a live link does not disprove a dead server, so the
  // cooldown stands.
  CircuitBreaker timed_out(options);
  timed_out.RecordFailure(t);
  ASSERT_EQ(timed_out.state(), CircuitBreaker::State::kOpen);
  timed_out.NoteLinkRestored(t + SimDuration::Seconds(2));
  EXPECT_FALSE(timed_out.AllowRequest(t + SimDuration::Seconds(2)));
  EXPECT_TRUE(
      timed_out.AllowRequest(t + options.cooldown + SimDuration::Seconds(1)));
}

TEST_F(RpcTest, AbortOpenedBreakerProbesImmediatelyOnReconnect) {
  CircuitBreakerOptions breaker_options;
  breaker_options.failure_threshold = 3;
  breaker_options.cooldown = SimDuration::Seconds(60);
  client_.breaker() = CircuitBreaker(breaker_options);

  // A storm of known-down fail-fasts opens the breaker (abort class).
  link_.set_disconnected(true);
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(client_.Call("echo", {}).ok());
  }
  EXPECT_EQ(client_.breaker().state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(client_.breaker().abort_opened_count(), 1u);

  // Reconnect long before the 60 s cooldown would elapse: the next call
  // notices the live link, waives the cooldown, probes, and succeeds.
  link_.set_disconnected(false);
  queue_.AdvanceBy(SimDuration::Seconds(1));
  auto probe = client_.Call("echo", {WireValue("back")});
  ASSERT_TRUE(probe.ok());
  EXPECT_EQ(client_.breaker().state(), CircuitBreaker::State::kClosed);
}

// --- Reply-cache eviction. --------------------------------------------------

TEST(ReplyCacheTest, EvictsCompletedEntriesByVirtualAge) {
  ReplyCache cache(/*capacity=*/100, /*max_age=*/SimDuration::Seconds(10));
  SimTime t;
  cache.Complete({1, 1}, "a", t);
  cache.Complete({1, 2}, "b", t + SimDuration::Seconds(5));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.age_evictions(), 0u);

  // At t+12 the first entry is past max_age, the second is not.
  cache.Complete({1, 3}, "c", t + SimDuration::Seconds(12));
  EXPECT_FALSE(cache.Lookup({1, 1}).has_value());
  EXPECT_TRUE(cache.Lookup({1, 2}).has_value());
  EXPECT_TRUE(cache.Lookup({1, 3}).has_value());
  EXPECT_EQ(cache.age_evictions(), 1u);
  EXPECT_EQ(cache.capacity_evictions(), 0u);

  // Much later everything before the insertion ages out at once.
  cache.Complete({1, 4}, "d", t + SimDuration::Seconds(100));
  EXPECT_FALSE(cache.Lookup({1, 2}).has_value());
  EXPECT_FALSE(cache.Lookup({1, 3}).has_value());
  EXPECT_TRUE(cache.Lookup({1, 4}).has_value());
  EXPECT_EQ(cache.age_evictions(), 3u);
}

TEST(ReplyCacheTest, CapacityEvictionCountedSeparately) {
  ReplyCache cache(/*capacity=*/2, /*max_age=*/SimDuration::Seconds(10));
  SimTime t;
  cache.Complete({1, 1}, "a", t);
  cache.Complete({1, 2}, "b", t);
  cache.Complete({1, 3}, "c", t);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.Lookup({1, 1}).has_value());
  EXPECT_EQ(cache.capacity_evictions(), 1u);
  EXPECT_EQ(cache.age_evictions(), 0u);
}

TEST(ReplyCacheTest, ZeroMaxAgeDisablesTheAgeBound) {
  ReplyCache cache(/*capacity=*/100, /*max_age=*/SimDuration());
  SimTime t;
  cache.Complete({1, 1}, "a", t);
  cache.Complete({1, 2}, "b", t + SimDuration::Seconds(100000));
  EXPECT_TRUE(cache.Lookup({1, 1}).has_value());
  EXPECT_EQ(cache.age_evictions(), 0u);
}

TEST_F(RpcTest, AsyncSuccessLeavesNoDeadTimerBehind) {
  bool called = false;
  client_.CallAsync("echo", {WireValue("tidy")}, [&](Result<WireValue> r) {
    called = true;
    EXPECT_TRUE(r.ok());
  });
  ASSERT_TRUE(queue_.RunUntilFlag(&called));
  // Satellite regression: the per-attempt timeout must be cancelled on
  // completion, not left to fire as a no-op seconds later.
  EXPECT_EQ(queue_.pending_count(), 0u);
}

TEST_F(RpcTest, AsyncCallCompletes) {
  bool called = false;
  client_.CallAsync("echo", {WireValue(int64_t{5})},
                    [&](Result<WireValue> r) {
                      called = true;
                      ASSERT_TRUE(r.ok());
                      EXPECT_EQ(*r->AsInt(), 5);
                    });
  EXPECT_FALSE(called);  // Not yet delivered.
  queue_.RunUntilIdle();
  EXPECT_TRUE(called);
}

TEST_F(RpcTest, AsyncTimeoutFiresOnceOnLostMessage) {
  link_.set_disconnected(true);
  client_.options().timeout = SimDuration::Seconds(1);
  int calls = 0;
  client_.CallAsync("echo", {}, [&](Result<WireValue> r) {
    ++calls;
    EXPECT_FALSE(r.ok());
  });
  queue_.RunUntilIdle();
  EXPECT_EQ(calls, 1);
}

TEST_F(RpcTest, AsyncOverlapsWithForegroundWork) {
  // The async RPC completes while the "application" is busy advancing time —
  // the mechanism the IBE metadata path relies on.
  bool called = false;
  client_.CallAsync("echo", {WireValue("bg")}, [&](Result<WireValue> r) {
    called = true;
    EXPECT_TRUE(r.ok());
  });
  queue_.AdvanceBy(SimDuration::Millis(400));  // > RTT.
  EXPECT_TRUE(called);
}

TEST_F(RpcTest, ConcurrentCallsBothComplete) {
  int completed = 0;
  client_.CallAsync("echo", {WireValue(int64_t{1})},
                    [&](Result<WireValue> r) { completed += r.ok(); });
  client_.CallAsync("echo", {WireValue(int64_t{2})},
                    [&](Result<WireValue> r) { completed += r.ok(); });
  auto blocking = client_.Call("echo", {WireValue(int64_t{3})});
  EXPECT_TRUE(blocking.ok());
  queue_.RunUntilIdle();
  EXPECT_EQ(completed, 2);
}

TEST_F(RpcTest, BytesFlowOverLink) {
  client_.Call("echo", {WireValue("some payload with real size")});
  // Request + response were both marshalled through the link.
  EXPECT_GT(link_.bytes_sent(), 200u);
  EXPECT_EQ(link_.messages_sent(), 2u);
}

// --- Wire framing (DESIGN.md §11). ------------------------------------------

RpcOptions BinaryOptions() {
  RpcOptions options;
  options.codec = WireCodec::kBinary;
  return options;
}

TEST_F(RpcTest, BinaryCodecRoundTripsAndConfirms) {
  RpcClient binary(&queue_, &link_, &server_, BinaryOptions());
  auto result = binary.Call("echo", {WireValue("compact")});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result->AsString(), "compact");
  // The server answered in kind (echo rule), and the next call frames the
  // same way.
  EXPECT_TRUE(binary.Call("echo", {WireValue(int64_t{7})}).ok());
  EXPECT_EQ(server_.requests_executed(), 2u);
}

TEST_F(RpcTest, BinaryShrinksBytesOnTheWire) {
  client_.Call("echo", {WireValue("payload"), WireValue(int64_t{42})});
  uint64_t xml_bytes = link_.bytes_sent();
  link_.ResetCounters();
  RpcClient binary(&queue_, &link_, &server_, BinaryOptions());
  ASSERT_TRUE(
      binary.Call("echo", {WireValue("payload"), WireValue(int64_t{42})}).ok());
  EXPECT_LT(link_.bytes_sent() * 3, xml_bytes);  // >3x smaller end to end.
}

TEST_F(RpcTest, UnframedRequestsNeverReachAHandler) {
  // Every client speaks KPR2. A bare call, a legacy KPRQ frame, and a KPR2
  // header one byte short are malformed: each draws an InvalidArgument
  // fault before dedup and dispatch.
  std::string bare;
  EncodeCallInto(WireCodec::kXml, "echo", {WireValue("x")}, bare);
  std::string kprq = "KPRQ" + std::string(16, '\x01') + bare;
  std::string cut = "KPR2" + std::string(24, '\x01');
  ASSERT_EQ(cut.size(), 28u);
  for (const std::string& request : {bare, kprq, cut}) {
    std::optional<std::string> reply;
    server_.HandleRequestAsync(request,
                               [&](std::string r) { reply = std::move(r); });
    queue_.RunUntilIdle();
    ASSERT_TRUE(reply.has_value());
    auto decoded = DecodeResponseAuto(*reply);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->fault.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(server_.requests_executed(), 0u);
    EXPECT_EQ(server_.reply_cache().size(), 0u);
  }
}

TEST_F(RpcTest, ChannelPreferenceSelectsBinaryUnderSealing) {
  // Sealing is codec-oblivious: the KPR2 frame and the binary call travel
  // INSIDE the envelope, and the sealed binary reply round-trips.
  SecureRandom client_rng(99), server_rng(99);
  Bytes root = BytesOf("negotiated-root-secret");
  SecureChannel client_chan(root, SimDuration::Seconds(60));
  SecureChannel server_chan(root, SimDuration::Seconds(60));
  server_.EnableChannelSecurity(
      [&](const std::string& device_id) -> SecureChannel* {
        return device_id == "dev-1" ? &server_chan : nullptr;
      },
      &server_rng);
  RpcClient binary(&queue_, &link_, &server_, BinaryOptions());
  binary.EnableChannelSecurity(&client_chan, "dev-1", &client_rng);
  auto result = binary.Call("echo", {WireValue("sealed+binary")});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result->AsString(), "sealed+binary");
}

TEST_F(RpcTest, EncodeBuffersAreReused) {
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(client_.Call("echo", {WireValue(int64_t{i})}).ok());
  }
  const BufferPool::Stats& stats = client_.encode_buffer_stats();
  EXPECT_EQ(stats.acquires, 8u);
  // Sequential calls return their buffer before the next acquires: every
  // call after the first reuses warmed capacity.
  EXPECT_EQ(stats.reuses, 7u);
}

}  // namespace
}  // namespace keypad
