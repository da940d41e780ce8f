// Self-test for the benchmark's own machinery (run by this project's ctest).
//
//  * Observation only: a quickstart-sized deployment, run once plainly and
//    once through all three decorators, must end with the same virtual
//    clock, the same audit-chain tip hashes and the same op results — and
//    the traced run must actually have recorded spans and grants.
//  * The percentile helpers return known values on known inputs.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "benchmark/metrics.h"
#include "benchmark/tracing.h"
#include "src/keypad/deployment.h"

namespace keypad::bench {
namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++g_failures;
  }
}

struct Outcome {
  int64_t clock_ns = 0;
  Bytes key_tip;
  Bytes meta_tip;
  std::vector<std::string> results;
  size_t spans = 0;
  size_t grants = 0;
};

Outcome RunQuickstart(bool traced) {
  DeploymentOptions options;
  options.profile = BroadbandProfile();
  options.device_id = "quickstart-laptop";
  Deployment dep(options);
  Tracer tracer(&dep.queue());
  tracer.set_enabled(traced);
  TracingKeyClient traced_key(&dep.key_client(), &tracer);
  BlockDevice device(traced ? std::make_unique<TracingBackend>(
                                  MakeMemoryBackend(), &tracer)
                            : MakeMemoryBackend());
  KeypadFs::Services services{
      traced ? static_cast<KeyClient*>(&traced_key) : &dep.key_client(),
      &dep.meta_client(), &dep.metadata_service().ibe_params()};
  const DeploymentOptions& o = dep.options();
  auto fs = KeypadFs::Format(&device, &dep.queue(), o.seed ^ 0x5555,
                             o.password, o.fs_options, o.config, services);
  Outcome out;
  if (!fs.ok()) {
    out.results.push_back("format: " + fs.status().ToString());
    return out;
  }
  TracingVfs traced_vfs(fs->get(), &tracer);
  Vfs* vfs = traced ? static_cast<Vfs*>(&traced_vfs) : fs->get();

  auto note = [&](const Status& s) { out.results.push_back(s.ToString()); };
  auto note_read = [&](const Result<Bytes>& r) {
    out.results.push_back(r.ok() ? StringOf(*r) : r.status().ToString());
  };
  note(vfs->Mkdir("/home"));
  note(vfs->Create("/home/diary.txt"));
  note(vfs->WriteAll("/home/diary.txt", BytesOf("Dear diary, ...")));
  note_read(vfs->ReadAll("/home/diary.txt"));
  note(vfs->Rename("/home/diary.txt", "/home/journal.txt"));
  // Let the key expire so the next read is a demand fetch.
  dep.queue().AdvanceBy(SimDuration::Seconds(300));
  note_read(vfs->ReadAll("/home/journal.txt"));
  note(vfs->Stat("/home/journal.txt").status());
  note(vfs->Readdir("/home").status());
  dep.queue().RunUntilIdle();

  out.clock_ns = dep.queue().Now().nanos();
  out.key_tip = dep.key_service().log().entries().back().entry_hash;
  out.meta_tip = dep.metadata_service().log().entries().back().entry_hash;
  out.spans = tracer.spans().size();
  out.grants = tracer.grants().size();
  return out;
}

void TestDecoratorsOnlyObserve() {
  const Outcome plain = RunQuickstart(false);
  const Outcome traced = RunQuickstart(true);
  Expect(plain.clock_ns == traced.clock_ns, "virtual clocks differ");
  Expect(!plain.key_tip.empty() && plain.key_tip == traced.key_tip,
         "key-service chain tips differ");
  Expect(!plain.meta_tip.empty() && plain.meta_tip == traced.meta_tip,
         "metadata chain tips differ");
  Expect(plain.results == traced.results, "op results differ");
  Expect(plain.results.size() == 8 && plain.results[3] == "Dear diary, ...",
         "quickstart ops did not all run");
  Expect(plain.spans == 0 && traced.spans > 0, "spans recorded only if traced");
  Expect(traced.grants > 0, "the KeyClient decorator saw no granted key");
}

void TestPercentiles() {
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) {
    hundred.push_back(i);
  }
  Expect(Percentile(hundred, 0.50) == 50, "p50 of 1..100");
  Expect(Percentile(hundred, 0.99) == 99, "p99 of 1..100");
  Expect(Percentile(hundred, 1.0) == 100, "p100 of 1..100");
  Expect(TailWithTenBeyond(hundred) == 90, "tail of 1..100");
  Expect(Percentile({}, 0.5) == 0, "percentile of nothing");
  Expect(TailWithTenBeyond({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}) == 0,
         "tail needs eleven samples");
  Expect(Median({3, 1, 2}) == 2, "odd median");
  Expect(Median({4, 1, 3, 2}) == 2.5, "even median");
  Expect(Ratio(1, 0) == 0, "ratio over zero work");
}

}  // namespace
}  // namespace keypad::bench

int main() {
  keypad::bench::TestPercentiles();
  keypad::bench::TestDecoratorsOnlyObserve();
  if (keypad::bench::g_failures != 0) {
    return 1;
  }
  std::printf("selftest passed\n");
  return 0;
}
