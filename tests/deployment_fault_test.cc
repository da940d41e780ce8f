// Deployment's one fault vocabulary (DESIGN.md §23), run over both audit
// tiers, unreplicated and as R = 3 groups: a leader restart undoes exactly
// the last leader crash, a restart never rewinds an up replica to an old
// crash snapshot, and an impossible or out-of-range fault is refused
// without touching anything.

#include <gtest/gtest.h>

#include <string>

#include "src/keypad/deployment.h"

namespace keypad {
namespace {

// Per-tier views of group 0: key shard 0, or the metadata tier.
struct KeyTier {
  static constexpr Fault::Tier kTier = Fault::kKey;
  static constexpr int DeploymentOptions::*kWidth =
      &DeploymentOptions::key_replicas;
  static size_t LogSize(Deployment& dep, size_t replica) {
    return dep.key_replica(0, replica).log().size();
  }
  static RpcServer& Server(Deployment& dep, size_t replica) {
    return dep.key_replica_rpc_server(0, replica);
  }
  static size_t Leader(Deployment& dep) {
    ReplicaSet* set = dep.replica_set(0);
    return set != nullptr ? set->current_leader() : 0;
  }
};

struct MetaTier {
  static constexpr Fault::Tier kTier = Fault::kMeta;
  static constexpr int DeploymentOptions::*kWidth =
      &DeploymentOptions::meta_replicas;
  static size_t LogSize(Deployment& dep, size_t replica) {
    return dep.meta_replica(replica).log().size();
  }
  static RpcServer& Server(Deployment& dep, size_t replica) {
    return dep.meta_replica_rpc_server(replica);
  }
  static size_t Leader(Deployment& dep) {
    MetaReplicaSet* set = dep.meta_replica_set();
    return set != nullptr ? set->current_leader() : 0;
  }
};

template <typename Tier, int R>
struct Case : Tier {
  static constexpr size_t kReplicas = R;
};

DeploymentOptions Options(int DeploymentOptions::*width, int replicas) {
  DeploymentOptions options;
  options.profile = LanProfile();
  options.config.ibe_enabled = false;
  options.config.prefetch = PrefetchPolicy::None();
  // Short attempt ladders so a call into a dead replica fails over well
  // inside the stub's failover budget.
  options.rpc.timeout = SimDuration::Seconds(1);
  options.rpc.retry.max_attempts = 2;
  options.*width = replicas;
  return options;
}

template <typename C>
class DeploymentFaultTest : public ::testing::Test {
 protected:
  DeploymentFaultTest()
      : dep_(Options(C::kWidth, static_cast<int>(C::kReplicas))) {}

  static Fault At(Fault::Verb verb, size_t replica = Fault::kLeader) {
    return {verb, C::kTier, /*shard=*/0, replica};
  }
  // Creates `n` files: one row in each tier's log per file.
  void Write(const std::string& prefix, int n) {
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(dep_.fs().Create("/" + prefix + std::to_string(i)).ok());
    }
  }
  // Replicated runs keep lease renewals queued while a replica is down, so
  // pump in bounded steps rather than to idle.
  void Settle() { dep_.queue().AdvanceBy(SimDuration::Seconds(4)); }
  size_t LogSize(size_t replica) { return C::LogSize(dep_, replica); }
  bool Down(size_t replica) { return C::Server(dep_, replica).down(); }

  Deployment dep_;
};

using Cases = ::testing::Types<Case<KeyTier, 1>, Case<KeyTier, 3>,
                               Case<MetaTier, 1>, Case<MetaTier, 3>>;
TYPED_TEST_SUITE(DeploymentFaultTest, Cases);

TYPED_TEST(DeploymentFaultTest, LeaderRestartBringsBackTheCrashedLeader) {
  this->Write("pre", 3);
  const size_t victim = TypeParam::Leader(this->dep_);
  ASSERT_TRUE(this->dep_.Inject(this->At(Fault::kCrash)).ok());
  EXPECT_TRUE(this->Down(victim));
  this->Settle();
  if (TypeParam::kReplicas > 1) {
    // A backup promoted, so "the leader" is now someone else — but the
    // restart still means the replica the crash took down.
    EXPECT_NE(TypeParam::Leader(this->dep_), victim);
  }
  ASSERT_TRUE(this->dep_.Inject(this->At(Fault::kRestart)).ok());
  for (size_t r = 0; r < TypeParam::kReplicas; ++r) {
    EXPECT_FALSE(this->Down(r)) << "replica " << r;
  }
  this->Settle();
  this->Write("post", 2);
}

TYPED_TEST(DeploymentFaultTest, SecondRestartDoesNotRewindTheLog) {
  this->Write("pre", 3);
  const size_t victim = TypeParam::Leader(this->dep_);
  ASSERT_TRUE(this->dep_.Inject(this->At(Fault::kCrash)).ok());
  const size_t at_crash = this->LogSize(victim);
  this->Settle();
  ASSERT_TRUE(this->dep_.Inject(this->At(Fault::kRestart)).ok());
  this->Settle();
  this->Write("post", 3);
  this->Settle();
  const size_t grown = this->LogSize(victim);
  ASSERT_GT(grown, at_crash);

  // Restoring the crash snapshot again would drop every row sealed since.
  Status again = this->dep_.Inject(this->At(Fault::kRestart));
  EXPECT_EQ(again.code(), StatusCode::kFailedPrecondition) << again;
  Status named = this->dep_.Inject(this->At(Fault::kRestart, victim));
  EXPECT_EQ(named.code(), StatusCode::kFailedPrecondition) << named;
  EXPECT_EQ(this->LogSize(victim), grown);
  EXPECT_FALSE(this->Down(victim));
}

TYPED_TEST(DeploymentFaultTest, RestartOfAReplicaThatNeverCrashedIsRefused) {
  this->Write("pre", 2);
  for (size_t r = 0; r < TypeParam::kReplicas; ++r) {
    const size_t before = this->LogSize(r);
    Status status = this->dep_.Inject(this->At(Fault::kRestart, r));
    EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition) << status;
    EXPECT_EQ(this->LogSize(r), before);
    EXPECT_FALSE(this->Down(r));
  }
  Status leader = this->dep_.Inject(this->At(Fault::kRestart));
  EXPECT_EQ(leader.code(), StatusCode::kFailedPrecondition) << leader;

  // A crash of a replica that is already down is refused the same way, and
  // leaves it down until one restart brings it back.
  const size_t last = TypeParam::kReplicas - 1;
  ASSERT_TRUE(this->dep_.Inject(this->At(Fault::kCrash, last)).ok());
  Status twice = this->dep_.Inject(this->At(Fault::kCrash, last));
  EXPECT_EQ(twice.code(), StatusCode::kFailedPrecondition) << twice;
  EXPECT_TRUE(this->Down(last));
  ASSERT_TRUE(this->dep_.Inject(this->At(Fault::kRestart, last)).ok());
  EXPECT_FALSE(this->Down(last));
}

TYPED_TEST(DeploymentFaultTest, OutOfRangeTargetIsRejected) {
  const size_t replicas = TypeParam::kReplicas;
  for (Fault::Verb verb :
       {Fault::kCrash, Fault::kRestart, Fault::kPartition, Fault::kHeal}) {
    Status replica = this->dep_.Inject(this->At(verb, replicas));
    EXPECT_EQ(replica.code(), StatusCode::kInvalidArgument) << replica;
    Fault shard = this->At(verb, 0);
    shard.shard = this->dep_.key_shard_count();
    Status group = this->dep_.Inject(shard);
    EXPECT_EQ(group.code(), StatusCode::kInvalidArgument) << group;
  }
  // A partition or heal names its replica; only crashes and restarts
  // follow the leader.
  for (Fault::Verb verb : {Fault::kPartition, Fault::kHeal}) {
    Status leader = this->dep_.Inject(this->At(verb));
    EXPECT_EQ(leader.code(), StatusCode::kInvalidArgument) << leader;
  }
  for (size_t r = 0; r < replicas; ++r) {
    EXPECT_FALSE(this->Down(r)) << "replica " << r;
  }
}

TYPED_TEST(DeploymentFaultTest, PartitionNeedsAReplicatedTier) {
  Status partition = this->dep_.Inject(this->At(Fault::kPartition, 0));
  Status heal = this->dep_.Inject(this->At(Fault::kHeal, 0));
  if (TypeParam::kReplicas == 1) {
    EXPECT_EQ(partition.code(), StatusCode::kFailedPrecondition) << partition;
    EXPECT_EQ(heal.code(), StatusCode::kFailedPrecondition) << heal;
  } else {
    EXPECT_TRUE(partition.ok()) << partition;
    EXPECT_TRUE(heal.ok()) << heal;
  }
}

TYPED_TEST(DeploymentFaultTest, ScheduledFaultThatFailsIsDropped) {
  this->Write("pre", 2);
  const size_t before = this->LogSize(0);
  const SimTime now = this->dep_.queue().Now();
  // A restart of an up replica fires first and is dropped; the crash and
  // restart after it still apply.
  this->dep_.Schedule(now + SimDuration::Seconds(1),
                      this->At(Fault::kRestart, 0));
  this->dep_.Schedule(now + SimDuration::Seconds(2),
                      this->At(Fault::kCrash, 0));
  this->dep_.queue().AdvanceBy(SimDuration::Millis(1500));
  EXPECT_EQ(this->LogSize(0), before);
  EXPECT_FALSE(this->Down(0));
  this->dep_.queue().AdvanceBy(SimDuration::Seconds(1));
  EXPECT_TRUE(this->Down(0));
  this->dep_.Schedule(this->dep_.queue().Now() + SimDuration::Seconds(1),
                      this->At(Fault::kRestart, 0));
  this->Settle();
  EXPECT_FALSE(this->Down(0));
}

}  // namespace
}  // namespace keypad
