// Cross-configuration integration sweep: the full Keypad stack must behave
// correctly under every combination of network profile, IBE mode, prefetch
// policy, and pairing — the matrix a downstream deployment could pick from.
//
// Each configuration runs a miniature end-to-end life cycle (mkdir/create/
// write/read/rename/expire/re-read/audit) and asserts the functional and
// audit invariants hold.

#include <gtest/gtest.h>

#include "src/keypad/deployment.h"

namespace keypad {
namespace {

struct MatrixParams {
  int rtt_ms;
  bool ibe;
  PrefetchPolicy::Kind prefetch;
  bool paired;
};

class MatrixTest : public ::testing::TestWithParam<MatrixParams> {};

TEST_P(MatrixTest, LifecycleAndAuditInvariants) {
  const MatrixParams& params = GetParam();
  DeploymentOptions options;
  options.profile = CustomRttProfile(SimDuration::Millis(params.rtt_ms));
  options.config.ibe_enabled = params.ibe;
  options.config.prefetch = {params.prefetch, 3, 4};
  options.config.texp = SimDuration::Seconds(100);
  options.paired_phone = params.paired;
  Deployment dep(options);
  auto& fs = dep.fs();

  // Lifecycle.
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  for (int i = 0; i < 6; ++i) {
    std::string path = "/d/f" + std::to_string(i);
    ASSERT_TRUE(fs.Create(path).ok());
    ASSERT_TRUE(fs.WriteAll(path, BytesOf("content" + path)).ok());
  }
  ASSERT_TRUE(fs.Rename("/d/f0", "/d/renamed").ok());
  EXPECT_EQ(StringOf(*fs.ReadAll("/d/renamed")), "content/d/f0");

  // Expire everything; re-read cold.
  dep.queue().AdvanceBy(options.config.texp * 2 + SimDuration::Seconds(2));
  for (int i = 1; i < 6; ++i) {
    auto data = fs.ReadAll("/d/f" + std::to_string(i));
    ASSERT_TRUE(data.ok()) << data.status();
    EXPECT_EQ(StringOf(*data), "content/d/f" + std::to_string(i));
  }
  dep.queue().RunUntilIdle();

  // Logs verify and metadata resolves the rename.
  EXPECT_TRUE(dep.key_service().log().Verify().ok());
  EXPECT_TRUE(dep.metadata_service().log().Verify().ok());
  AuditId renamed_id = fs.ReadHeaderOf("/d/renamed")->audit_id;
  auto path = dep.metadata_service().ResolvePath(dep.device_id(), renamed_id,
                                                 dep.queue().Now());
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(*path, "/d/renamed");

  // Every file has a creation record at the key service.
  for (int i = 1; i < 6; ++i) {
    AuditId id = fs.ReadHeaderOf("/d/f" + std::to_string(i))->audit_id;
    bool created = false;
    for (const auto& e : dep.key_service().log().entries()) {
      created |= e.audit_id == id && e.op == AccessOp::kCreate;
    }
    EXPECT_TRUE(created) << i;
  }

  // Revocation is effective in every configuration.
  dep.ReportDeviceLost();
  dep.queue().AdvanceBy(options.config.texp * 2 + SimDuration::Seconds(2));
  if (params.paired) {
    // Drain the phone hoard too: it legitimately extends availability.
    dep.queue().AdvanceBy(PhoneProxy::kHoardTtl * 2);
  }
  EXPECT_FALSE(fs.ReadAll("/d/renamed").ok());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MatrixTest,
    ::testing::Values(
        MatrixParams{0, false, PrefetchPolicy::Kind::kNone, false},
        MatrixParams{2, false, PrefetchPolicy::Kind::kFullDirOnNthMiss, false},
        MatrixParams{25, true, PrefetchPolicy::Kind::kNone, false},
        MatrixParams{125, true, PrefetchPolicy::Kind::kFullDirOnNthMiss,
                     false},
        MatrixParams{300, true, PrefetchPolicy::Kind::kRandomFromDir, false},
        MatrixParams{300, false, PrefetchPolicy::Kind::kFullDirOnNthMiss,
                     true},
        MatrixParams{300, true, PrefetchPolicy::Kind::kFullDirOnNthMiss,
                     true},
        MatrixParams{25, false, PrefetchPolicy::Kind::kRandomFromDir, true}),
    [](const ::testing::TestParamInfo<MatrixParams>& info) {
      return "Rtt" + std::to_string(info.param.rtt_ms) +
             (info.param.ibe ? "Ibe" : "NoIbe") +
             (info.param.prefetch == PrefetchPolicy::Kind::kNone
                  ? "NoPf"
                  : info.param.prefetch ==
                            PrefetchPolicy::Kind::kFullDirOnNthMiss
                        ? "DirPf"
                        : "RndPf") +
             (info.param.paired ? "Phone" : "Solo");
    });

}  // namespace
}  // namespace keypad
