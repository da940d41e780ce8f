// Tests for the NFS baseline and the workload generators.

#include <gtest/gtest.h>

#include "src/net/link.h"
#include "src/nfs/nfs.h"
#include "src/workload/apache.h"
#include "src/workload/longhaul.h"
#include "src/workload/office.h"
#include "src/workload/thief.h"

namespace keypad {
namespace {

class NfsTest : public ::testing::Test {
 protected:
  NfsTest()
      : link_(&queue_, BroadbandProfile()),
        rpc_server_(&queue_, SimDuration::Micros(150)),
        server_(&queue_, /*rng_seed=*/1),
        rpc_(&queue_, &link_, &rpc_server_),
        client_(&queue_, &rpc_) {
    server_.BindRpc(&rpc_server_);
  }

  EventQueue queue_;
  NetworkLink link_;
  RpcServer rpc_server_;
  NfsServer server_;
  RpcClient rpc_;
  NfsClient client_;
};

TEST_F(NfsTest, CreateWriteReadRoundTrip) {
  ASSERT_TRUE(client_.Mkdir("/d").ok());
  ASSERT_TRUE(client_.Create("/d/f").ok());
  ASSERT_TRUE(client_.Write("/d/f", 0, BytesOf("remote data")).ok());
  auto read = client_.Read("/d/f", 0, 100);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(StringOf(*read), "remote data");
}

TEST_F(NfsTest, WritesAreBatchedUntilThresholdOrRead) {
  ASSERT_TRUE(client_.Create("/f").ok());
  uint64_t rpcs_after_create = client_.rpcs_sent();
  // Small writes buffer locally: no extra RPCs.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client_.Write("/f", i * 100, Bytes(100, 1)).ok());
  }
  EXPECT_EQ(client_.rpcs_sent(), rpcs_after_create);
  // A read flushes (read-your-writes) with one batch RPC.
  ASSERT_TRUE(client_.Read("/f", 0, 10).ok());
  EXPECT_GT(client_.rpcs_sent(), rpcs_after_create);
}

TEST_F(NfsTest, AttributeCacheAbsorbsRepeatedStats) {
  ASSERT_TRUE(client_.Create("/f").ok());
  client_.Stat("/f").status();
  uint64_t rpcs = client_.rpcs_sent();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client_.Stat("/f").ok());
  }
  EXPECT_EQ(client_.rpcs_sent(), rpcs);  // All served from the attr cache.

  // After the TTL the next stat revalidates.
  queue_.AdvanceBy(SimDuration::Seconds(5));
  ASSERT_TRUE(client_.Stat("/f").ok());
  EXPECT_EQ(client_.rpcs_sent(), rpcs + 1);
}

TEST_F(NfsTest, DataCacheServesRepeatedReads) {
  ASSERT_TRUE(client_.Create("/f").ok());
  ASSERT_TRUE(client_.Write("/f", 0, Bytes(8192, 7)).ok());
  ASSERT_TRUE(client_.Read("/f", 0, 100).ok());
  uint64_t rpcs = client_.rpcs_sent();
  // Repeated reads inside the attr TTL: no network.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client_.Read("/f", 100 * i, 50).ok());
  }
  EXPECT_EQ(client_.rpcs_sent(), rpcs);
}

TEST_F(NfsTest, RenameAndUnlinkPropagate) {
  ASSERT_TRUE(client_.Create("/a").ok());
  ASSERT_TRUE(client_.Write("/a", 0, BytesOf("x")).ok());
  ASSERT_TRUE(client_.Rename("/a", "/b").ok());
  EXPECT_FALSE(client_.Stat("/a").ok());
  EXPECT_TRUE(client_.Stat("/b").ok());
  ASSERT_TRUE(client_.Unlink("/b").ok());
  EXPECT_FALSE(server_.fs().Stat("/b").ok());
}

TEST_F(NfsTest, ReaddirReflectsServerState) {
  ASSERT_TRUE(client_.Mkdir("/d").ok());
  ASSERT_TRUE(client_.Create("/d/x").ok());
  ASSERT_TRUE(client_.Create("/d/y").ok());
  auto entries = client_.Readdir("/d");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 2u);
}

TEST_F(NfsTest, StaleAttributeCacheMissesRemoteChangeUntilTtl) {
  // Close-to-open-ish consistency: a change made directly at the server
  // (another client) is invisible while this client's attribute cache is
  // fresh, and picked up after the TTL — the caching behaviour that both
  // helps NFS's performance and weakens its audit story (§5.1.3).
  ASSERT_TRUE(client_.Create("/shared").ok());
  ASSERT_TRUE(client_.Write("/shared", 0, BytesOf("v1")).ok());
  ASSERT_TRUE(client_.Read("/shared", 0, 10).ok());  // Caches data+attrs.

  // A second client on its own link writes the file through the server.
  NetworkLink link2(&queue_, LanProfile());
  RpcClient rpc2(&queue_, &link2, &rpc_server_);
  NfsClient other(&queue_, &rpc2);
  ASSERT_TRUE(other.Write("/shared", 0, BytesOf("v2")).ok());
  ASSERT_TRUE(other.Read("/shared", 0, 2).ok());  // Flush write-behind.

  auto stale = client_.Read("/shared", 0, 10);
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(StringOf(*stale), "v1") << "attr cache should mask the change";

  queue_.AdvanceBy(SimDuration::Seconds(5));  // Past the 3 s TTL.
  auto fresh = client_.Read("/shared", 0, 10);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(StringOf(*fresh), "v2");
}

TEST_F(NfsTest, HighRttMakesEveryRevalidationExpensive) {
  // The Fig. 10 mechanism in miniature: with a cold attr cache every read
  // of a different file pays at least one RTT.
  ASSERT_TRUE(client_.Mkdir("/d").ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client_.Create("/d/f" + std::to_string(i)).ok());
    ASSERT_TRUE(client_.Write("/d/f" + std::to_string(i), 0, Bytes(10, 1))
                    .ok());
  }
  queue_.AdvanceBy(SimDuration::Seconds(10));  // Cold caches.
  SimTime t0 = queue_.Now();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client_.Read("/d/f" + std::to_string(i), 0, 4).ok());
  }
  // 5 files × (getattr + read_all) ≈ 10 × 25 ms.
  EXPECT_GE((queue_.Now() - t0).millis(), 5 * 25);
}

// --- Workload generators. -------------------------------------------------------

TEST(ApacheWorkloadTest, OpCountsMatchThePapersScale) {
  ApacheWorkload workload = MakeApacheWorkload({}, /*seed=*/1);
  size_t content = workload.compile.ContentOps();
  // Paper: 75,744 reads+writes. Same order, within ~20%.
  EXPECT_GT(content, 60000u);
  EXPECT_LT(content, 90000u);
  // Paper: 932 blocking metadata requests (+ mkdirs).
  size_t metadata = workload.compile.MetadataOps();
  EXPECT_GT(metadata, 800u);
  EXPECT_LT(metadata, 1200u);
  // Compute budget ~46 s.
  EXPECT_NEAR(workload.compile.TotalCompute().seconds_f(), 45.8, 1.0);
}

TEST(ApacheWorkloadTest, DeterministicForSeed) {
  ApacheWorkload a = MakeApacheWorkload({}, 7);
  ApacheWorkload b = MakeApacheWorkload({}, 7);
  ASSERT_EQ(a.compile.ops.size(), b.compile.ops.size());
  EXPECT_EQ(a.compile.ops[100].path, b.compile.ops[100].path);
}

TEST(ApacheWorkloadTest, RunsCleanlyOnPlainFs) {
  EventQueue queue;
  BlockDevice device;
  EncFs::Options options;
  options.encrypt = false;
  options.costs = FsCostModel::Ext3();
  auto fs = EncFs::Format(&device, &queue, 2, "", options);
  ASSERT_TRUE(fs.ok());
  ApacheParams small;
  small.modules = 3;
  small.units_per_module = 4;
  small.shared_headers = 8;
  small.headers_per_unit = 6;
  small.local_headers = 3;
  ApacheWorkload workload = MakeApacheWorkload(small, 3);
  TraceRunner runner(fs->get(), &queue);
  auto setup = runner.Run(workload.setup);
  EXPECT_EQ(setup.failures, 0u) << setup.first_failure;
  auto compile = runner.Run(workload.compile);
  EXPECT_EQ(compile.failures, 0u) << compile.first_failure;
  EXPECT_GT(compile.elapsed.seconds_f(), 1.0);
}

TEST(OfficeWorkloadTest, SixteenTasksRunCleanly) {
  EventQueue queue;
  BlockDevice device;
  auto fs = EncFs::Format(&device, &queue, 4, "pw", {});
  ASSERT_TRUE(fs.ok());
  OfficeWorkloads office = MakeOfficeWorkloads(5);
  ASSERT_EQ(office.tasks.size(), 16u);
  TraceRunner runner(fs->get(), &queue);
  auto setup = runner.Run(office.setup);
  ASSERT_EQ(setup.failures, 0u) << setup.first_failure;
  for (const auto& task : office.tasks) {
    auto result = runner.Run(task.trace);
    EXPECT_EQ(result.failures, 0u)
        << task.application << "/" << task.task << ": "
        << result.first_failure;
  }
}

TEST(OfficeWorkloadTest, EncFsTimesApproximatePaperColumn) {
  EventQueue queue;
  BlockDevice device;
  auto fs = EncFs::Format(&device, &queue, 6, "pw", {});
  ASSERT_TRUE(fs.ok());
  OfficeWorkloads office = MakeOfficeWorkloads(7);
  TraceRunner runner(fs->get(), &queue);
  ASSERT_EQ(runner.Run(office.setup).failures, 0u);
  for (const auto& task : office.tasks) {
    SimTime t0 = queue.Now();
    ASSERT_EQ(runner.Run(task.trace).failures, 0u);
    double measured = (queue.Now() - t0).seconds_f();
    // Within 0.3 s or 50% of the paper's EncFS column.
    double tolerance = std::max(0.3, task.paper_encfs_seconds * 0.5);
    EXPECT_NEAR(measured, task.paper_encfs_seconds, tolerance)
        << task.application << "/" << task.task;
  }
}

TEST(Fig9WorkloadTest, FiveWorkloadsRunCleanly) {
  auto workloads = MakeFig9Workloads(8);
  ASSERT_EQ(workloads.size(), 5u);
  for (const auto& w : workloads) {
    EventQueue queue;
    BlockDevice device;
    auto fs = EncFs::Format(&device, &queue, 9, "pw", {});
    ASSERT_TRUE(fs.ok());
    TraceRunner runner(fs->get(), &queue);
    ASSERT_EQ(runner.Run(w.setup).failures, 0u) << w.name;
    auto result = runner.Run(w.trace);
    EXPECT_EQ(result.failures, 0u) << w.name << ": " << result.first_failure;
  }
}

TEST(ThiefWorkloadTest, ScenariosMatchTheirGroundTruth) {
  auto scenarios = MakeThiefScenarios(10);
  ASSERT_EQ(scenarios.size(), 3u);
  for (const auto& s : scenarios) {
    EventQueue queue;
    BlockDevice device;
    auto fs = EncFs::Format(&device, &queue, 11, "pw", {});
    ASSERT_TRUE(fs.ok());
    TraceRunner runner(fs->get(), &queue);
    ASSERT_EQ(runner.Run(s.setup).failures, 0u) << s.name;
    auto result = runner.Run(s.thief_trace);
    EXPECT_EQ(result.failures, 0u) << s.name << ": " << result.first_failure;
    EXPECT_FALSE(s.files_read.empty());
    EXPECT_GT(s.paper_total_keys, 0);
  }
}

TEST(LongHaulWorkloadTest, GeneratesDaysOfActivity) {
  LongHaulParams params;
  params.days = 2;
  LongHaulWorkload w = MakeLongHaulWorkload(params, 12);
  EXPECT_GT(w.activity.ops.size(), 100u);
  EXPECT_GT(w.active_time.seconds(), 100);

  EventQueue queue;
  BlockDevice device;
  auto fs = EncFs::Format(&device, &queue, 13, "pw", {});
  ASSERT_TRUE(fs.ok());
  TraceRunner runner(fs->get(), &queue);
  ASSERT_EQ(runner.Run(w.setup).failures, 0u);
  auto result = runner.Run(w.activity);
  EXPECT_EQ(result.failures, 0u) << result.first_failure;
  // Spans two days of virtual time.
  EXPECT_GT(result.elapsed.seconds(), 2 * 20 * 3600 / 2);
}

}  // namespace
}  // namespace keypad
