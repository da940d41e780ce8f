// Microbenchmarks (google-benchmark) of the from-scratch cryptographic
// substrate: hashing, symmetric crypto, big-integer/field arithmetic, the
// Tate pairing, and full IBE operations at bench-, test- and
// production-sized parameters. These measure *real* CPU cost (the
// simulation cost model charges the paper's published constants instead —
// see DESIGN.md).

#include <benchmark/benchmark.h>

#include "src/cryptocore/aes.h"
#include "src/cryptocore/chacha20.h"
#include "src/cryptocore/cpu_features.h"
#include "src/cryptocore/hmac.h"
#include "src/cryptocore/keywrap.h"
#include "src/cryptocore/sha256.h"
#include "src/ibe/bf_ibe.h"
#include "src/ibe/pairing.h"
#include "src/wire/binary_codec.h"
#include "src/wire/xmlrpc.h"

namespace keypad {
namespace {

// The symmetric primitives dispatch between a portable kernel and whatever
// ISA kernels this binary + CPU support (see src/cryptocore/cpu_features.h).
// The BM_* benchmarks below measure the auto-selected backend and record its
// name as the benchmark label; RegisterPerBackendBenches() additionally
// registers one variant per exercisable tier (e.g.
// "BM_Aes256Ctr_4KiB/portable") so one run reports every backend's MB/s.

void Sha256Body(benchmark::State& state) {
  Bytes data(4096, 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Hash(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 4096);
  state.SetLabel(Sha256::BackendName());
}

void BM_Sha256_4KiB(benchmark::State& state) { Sha256Body(state); }
BENCHMARK(BM_Sha256_4KiB);

void BM_HmacSha256_1KiB(benchmark::State& state) {
  Bytes key(32, 1);
  Bytes data(1024, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(HmacSha256(key, data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 1024);
  state.SetLabel(Sha256::BackendName());
}
BENCHMARK(BM_HmacSha256_1KiB);

void Aes256CtrBody(benchmark::State& state) {
  auto aes = Aes256::Create(Bytes(32, 3));
  Bytes iv(16, 4);
  Bytes data(4096, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(aes->CtrXor(iv, 0, data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 4096);
  state.SetLabel(Aes256::BackendName());
}

void BM_Aes256Ctr_4KiB(benchmark::State& state) { Aes256CtrBody(state); }
BENCHMARK(BM_Aes256Ctr_4KiB);

void ChaCha20Body(benchmark::State& state) {
  Bytes key(32, 6);
  uint8_t nonce[12] = {0};
  Bytes out(4096);
  for (auto _ : state) {
    ChaCha20Blocks(key.data(), 0, nonce, out.size() / 64, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(out.size()));
  state.SetLabel(ChaCha20BackendName());
}

void BM_ChaCha20_4KiB(benchmark::State& state) { ChaCha20Body(state); }
BENCHMARK(BM_ChaCha20_4KiB);

// Runs `body` with the dispatch cap forced to `tier` for the duration.
void WithTier(CryptoTier tier, void (*body)(benchmark::State&),
              benchmark::State& state) {
  SetCryptoTierCapForTesting(tier);
  body(state);
  ClearCryptoTierCapForTesting();
}

void RegisterPerBackendBenches() {
  struct Entry {
    const char* name;
    void (*body)(benchmark::State&);
  };
  const Entry kEntries[] = {
      {"BM_Aes256Ctr_4KiB", Aes256CtrBody},
      {"BM_ChaCha20_4KiB", ChaCha20Body},
      {"BM_Sha256_4KiB", Sha256Body},
  };
  for (const Entry& e : kEntries) {
    for (CryptoTier tier : ExercisableCryptoTiers()) {
      std::string name = std::string(e.name) + "/" + CryptoTierName(tier);
      benchmark::RegisterBenchmark(
          name.c_str(),
          [tier, body = e.body](benchmark::State& state) {
            WithTier(tier, body, state);
          });
    }
  }
}

void BM_KeyWrapUnwrap(benchmark::State& state) {
  SecureRandom rng(uint64_t{1});
  Bytes kek(32, 6);
  Bytes key(32, 7);
  for (auto _ : state) {
    Bytes blob = WrapKey(kek, key, rng);
    benchmark::DoNotOptimize(UnwrapKey(kek, blob));
  }
}
BENCHMARK(BM_KeyWrapUnwrap);

void BM_BigIntModMul(benchmark::State& state) {
  const PairingParams& params = DefaultPairingParams();
  SecureRandom rng(uint64_t{2});
  BigInt a = BigInt::RandomBelow(rng, params.p);
  BigInt b = BigInt::RandomBelow(rng, params.p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BigInt::ModMul(a, b, params.p));
  }
}
BENCHMARK(BM_BigIntModMul);

// The pairing-group cases take the parameter set as an argument: 192-bit p
// (the group the workload benches and the repository benchmark use),
// 256-bit (unit tests) and 512-bit (production strength).
using GroupFn = const PairingParams& (*)();

void BM_FpMul(benchmark::State& state, GroupFn group) {
  const PairingParams& params = group();
  SecureRandom rng(uint64_t{3});
  Fp a = params.field.FromBigInt(BigInt::RandomBelow(rng, params.p));
  Fp b = params.field.FromBigInt(BigInt::RandomBelow(rng, params.p));
  for (auto _ : state) {
    a = params.field.Mul(a, b);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK_CAPTURE(BM_FpMul, 192, &BenchPairingParams);
BENCHMARK_CAPTURE(BM_FpMul, 512, &DefaultPairingParams);

void BM_HashToPoint(benchmark::State& state, GroupFn group) {
  const PairingParams& params = group();
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        HashToPoint("dir/file|" + std::to_string(i++), params));
  }
}
BENCHMARK_CAPTURE(BM_HashToPoint, 192, &BenchPairingParams);

void BM_EcScalarMul(benchmark::State& state, GroupFn group) {
  const PairingParams& params = group();
  SecureRandom rng(uint64_t{4});
  BigInt k = BigInt::RandomBelow(rng, params.q);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EcScalarMul(k, params.g, params));
  }
}
BENCHMARK_CAPTURE(BM_EcScalarMul, 192, &BenchPairingParams);
BENCHMARK_CAPTURE(BM_EcScalarMul, 512, &DefaultPairingParams);

void BM_TatePairing(benchmark::State& state, GroupFn group) {
  const PairingParams& params = group();
  EcPoint q = HashToPoint("bench-id", params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(TatePairing(params.g, q, params));
  }
}
BENCHMARK_CAPTURE(BM_TatePairing, 192, &BenchPairingParams);
BENCHMARK_CAPTURE(BM_TatePairing, 256, &TestPairingParams);
BENCHMARK_CAPTURE(BM_TatePairing, 512, &DefaultPairingParams);

void BM_IbeExtract(benchmark::State& state, GroupFn group) {
  SecureRandom rng(uint64_t{7});
  IbePkg pkg(group(), rng);
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pkg.Extract("dir/file|" + std::to_string(i++)));
  }
}
BENCHMARK_CAPTURE(BM_IbeExtract, 192, &BenchPairingParams);
BENCHMARK_CAPTURE(BM_IbeExtract, 512, &DefaultPairingParams);

void BM_IbeEncrypt(benchmark::State& state, GroupFn group) {
  SecureRandom rng(uint64_t{5});
  IbePkg pkg(group(), rng);
  Bytes payload(64, 8);
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(IbeEncrypt(pkg.public_params(),
                                        "dir/file|" + std::to_string(i++),
                                        payload, rng));
  }
}
BENCHMARK_CAPTURE(BM_IbeEncrypt, 192, &BenchPairingParams);
BENCHMARK_CAPTURE(BM_IbeEncrypt, 512, &DefaultPairingParams);

void BM_IbeDecrypt(benchmark::State& state, GroupFn group) {
  SecureRandom rng(uint64_t{6});
  IbePkg pkg(group(), rng);
  auto ct = IbeEncrypt(pkg.public_params(), "id", Bytes(64, 9), rng);
  if (!ct.ok()) {
    state.SkipWithError("encrypt failed");
    return;
  }
  IbePrivateKey key = pkg.Extract("id");
  for (auto _ : state) {
    benchmark::DoNotOptimize(IbeDecrypt(pkg.public_params(), key, *ct));
  }
}
BENCHMARK_CAPTURE(BM_IbeDecrypt, 192, &BenchPairingParams);
BENCHMARK_CAPTURE(BM_IbeDecrypt, 512, &DefaultPairingParams);

// --- Marshalling ablation: the paper attributes Keypad's LAN-visible cost
// to XML-RPC marshalling; compare against the compact binary codec on a
// representative key.get exchange.

WireValue TypicalKeyResponse() {
  WireValue::Struct s;
  s.emplace("demand", WireValue(Bytes(32, 0xAA)));
  WireValue::Array prefetched;
  for (int i = 0; i < 8; ++i) {
    WireValue::Struct entry;
    entry.emplace("id", WireValue(Bytes(24, static_cast<uint8_t>(i))));
    entry.emplace("key", WireValue(Bytes(32, static_cast<uint8_t>(i))));
    prefetched.push_back(WireValue(std::move(entry)));
  }
  s.emplace("prefetched", WireValue(std::move(prefetched)));
  return WireValue(std::move(s));
}

void BM_Marshal_XmlRpc(benchmark::State& state) {
  WireValue value = TypicalKeyResponse();
  for (auto _ : state) {
    std::string xml = EncodeXmlRpcResponse(value);
    benchmark::DoNotOptimize(DecodeXmlRpcResponse(xml));
  }
}
BENCHMARK(BM_Marshal_XmlRpc);

void BM_Marshal_Binary(benchmark::State& state) {
  WireValue value = TypicalKeyResponse();
  for (auto _ : state) {
    Bytes encoded = BinaryEncode(value);
    benchmark::DoNotOptimize(BinaryDecode(encoded));
  }
}
BENCHMARK(BM_Marshal_Binary);

}  // namespace
}  // namespace keypad

int main(int argc, char** argv) {
  keypad::RegisterPerBackendBenches();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
