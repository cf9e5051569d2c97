// Microbenchmarks of the crypto substrate (google-benchmark): the building
// blocks whose relative costs explain the paper's Table 4 and Figure 11 —
// a DES key encryption is microseconds while an RSA-512 signature is
// hundreds of microseconds, which is why batch signing wins and why the
// server's time is signature-bound whenever signing is enabled.
//
// After the google-benchmark tables, main() emits one JSON line per block
// primitive (blocks/sec and schedule expansions/sec, measured over a
// KG_CRYPTO_MS window, default 200 ms) to $KG_BENCH_JSON or stdout, so the
// kernel numbers land in the same stream the table/figure benches use.
#include <benchmark/benchmark.h>

#include <chrono>

#include "bench_util.h"
#include "client/client.h"
#include "crypto/aes.h"
#include "crypto/aes_aesni.h"
#include "crypto/cbc.h"
#include "crypto/cpu_features.h"
#include "crypto/des.h"
#include "crypto/random.h"
#include "crypto/rsa.h"
#include "crypto/suite.h"
#include "merkle/batch_signer.h"
#include "rekey/executor.h"
#include "rekey/schedule_cache.h"

namespace keygraphs::crypto {
namespace {

void BM_DesBlock(benchmark::State& state) {
  SecureRandom rng(1);
  const Des des(rng.bytes(8));
  Bytes block = rng.bytes(8);
  for (auto _ : state) {
    des.encrypt_block(block.data(), block.data());
    benchmark::DoNotOptimize(block.data());
  }
}
BENCHMARK(BM_DesBlock);

void BM_AesBlock(benchmark::State& state) {
  SecureRandom rng(2);
  const Aes128 aes(rng.bytes(16));
  Bytes block = rng.bytes(16);
  for (auto _ : state) {
    aes.encrypt_block(block.data(), block.data());
    benchmark::DoNotOptimize(block.data());
  }
}
BENCHMARK(BM_AesBlock);

void BM_AesNiBlock(benchmark::State& state) {
  if (!Aes128Ni::supported()) {
    state.SkipWithError("AES-NI not available on this host");
    return;
  }
  SecureRandom rng(2);
  const Aes128Ni aes(rng.bytes(16));
  Bytes block = rng.bytes(16);
  for (auto _ : state) {
    aes.encrypt_block(block.data(), block.data());
    benchmark::DoNotOptimize(block.data());
  }
}
BENCHMARK(BM_AesNiBlock);

void BM_CbcKeyWrap(benchmark::State& state) {
  // One rekey payload item: CBC-encrypt one 8-byte key (incl. key schedule,
  // the per-wrap cost the server pays 2(h-1) times per join).
  SecureRandom rng(3);
  const Bytes wrapping_key = rng.bytes(8);
  const Bytes payload = rng.bytes(8);
  for (auto _ : state) {
    const CbcCipher cbc(std::make_shared<Des>(wrapping_key));
    benchmark::DoNotOptimize(cbc.encrypt(payload, rng));
  }
}
BENCHMARK(BM_CbcKeyWrap);

void BM_CbcKeyWrapCached(benchmark::State& state) {
  // The same wrap served from the schedule cache: what the executor pays
  // once the wrapping key's expansion is resident (the common case after
  // plan-target warming).
  SecureRandom rng(3);
  const Bytes wrapping_key = rng.bytes(8);
  const Bytes payload = rng.bytes(8);
  rekey::ScheduleCache cache(8);
  const KeyRef ref{1, 1};
  for (auto _ : state) {
    const CbcCipher cbc(cache.get(CipherAlgorithm::kDes, ref, wrapping_key));
    benchmark::DoNotOptimize(cbc.encrypt(payload, rng));
  }
}
BENCHMARK(BM_CbcKeyWrapCached);

void BM_Digest(benchmark::State& state, DigestAlgorithm algorithm) {
  SecureRandom rng(4);
  const Bytes message = rng.bytes(512);  // a typical rekey message body
  auto digest = make_digest(algorithm);
  for (auto _ : state) {
    digest->update(message);
    benchmark::DoNotOptimize(digest->finish());
  }
}
BENCHMARK_CAPTURE(BM_Digest, md5, DigestAlgorithm::kMd5);
BENCHMARK_CAPTURE(BM_Digest, sha1, DigestAlgorithm::kSha1);
BENCHMARK_CAPTURE(BM_Digest, sha256, DigestAlgorithm::kSha256);

void BM_RsaSign(benchmark::State& state) {
  SecureRandom rng(5);
  const auto key = RsaPrivateKey::generate(
      rng, static_cast<std::size_t>(state.range(0)));
  const Bytes message = rng.bytes(256);
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.sign(DigestAlgorithm::kMd5, message));
  }
}
BENCHMARK(BM_RsaSign)->Arg(512)->Arg(768)->Arg(1024)->Arg(2048)
    ->Unit(benchmark::kMicrosecond);

void BM_RsaVerify(benchmark::State& state) {
  SecureRandom rng(6);
  const auto key = RsaPrivateKey::generate(
      rng, static_cast<std::size_t>(state.range(0)));
  const Bytes message = rng.bytes(256);
  const Bytes signature = key.sign(DigestAlgorithm::kMd5, message);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        key.public_key().verify(DigestAlgorithm::kMd5, message, signature));
  }
}
BENCHMARK(BM_RsaVerify)->Arg(512)->Arg(1024)->Unit(benchmark::kMicrosecond);

void BM_BatchSign(benchmark::State& state) {
  // Section 4's headline: signing m messages with one RSA operation. At
  // m=19 (a degree-4 leave at n=8192, user/key-oriented), batch signing is
  // ~m times cheaper than per-message signing.
  SecureRandom rng(7);
  const auto key = RsaPrivateKey::generate(rng, 512);
  std::vector<Bytes> messages;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    messages.push_back(rng.bytes(300));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        merkle::batch_sign(key, DigestAlgorithm::kMd5, messages));
  }
}
BENCHMARK(BM_BatchSign)->Arg(1)->Arg(7)->Arg(19)->Arg(47)
    ->Unit(benchmark::kMicrosecond);

void BM_ChaChaDrbg(benchmark::State& state) {
  SecureRandom rng(8);
  Bytes buffer(64);
  for (auto _ : state) {
    rng.fill(buffer.data(), buffer.size());
    benchmark::DoNotOptimize(buffer.data());
  }
}
BENCHMARK(BM_ChaChaDrbg);

void BM_ClientHandleRekey(benchmark::State& state) {
  // The client-side cost of one group-oriented leave message (parse +
  // one decryption), the unit behind Table 6's client-side comparison.
  SecureRandom rng(9);
  client::ClientConfig config;
  config.user = 1;
  config.suite = CryptoSuite::paper_plain();
  config.root = 100;
  config.verify = false;
  config.rng_seed = 10;
  client::GroupClient client(config, nullptr);
  const SymmetricKey individual{individual_key_id(1), 1, rng.bytes(8)};
  client.install_individual_key(individual);

  rekey::RekeyPlanner planner(CipherAlgorithm::kDes, rng);
  rekey::PlannedRekey message;
  message.header.epoch = 2;
  const SymmetricKey group{100, 2, rng.bytes(8)};
  message.ops.push_back(planner.wrap(individual, std::span(&group, 1)));
  for (int i = 0; i < 11; ++i) {  // blobs for other subtrees
    const SymmetricKey other{200 + static_cast<KeyId>(i), 1, rng.bytes(8)};
    const SymmetricKey target{300 + static_cast<KeyId>(i), 1, rng.bytes(8)};
    message.ops.push_back(planner.wrap(other, std::span(&target, 1)));
  }
  const rekey::RekeySealer sealer(rekey::SigningMode::kNone,
                                  DigestAlgorithm::kNone, nullptr);
  rekey::RekeyExecutor executor(CipherAlgorithm::kDes, 1);
  const Bytes wire =
      executor.seal(planner.take({std::move(message)}), sealer).front().wire;
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.handle_rekey(wire));
  }
}
BENCHMARK(BM_ClientHandleRekey);

/// Encrypt-blocks-per-second over a fixed wall-clock window.
double blocks_per_sec(const BlockCipher& cipher, double window_ms) {
  SecureRandom rng(20);
  Bytes block = rng.bytes(cipher.block_size());
  const auto start = std::chrono::steady_clock::now();
  const auto deadline = start + std::chrono::duration<double, std::milli>(
                                    window_ms);
  std::uint64_t count = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    for (int i = 0; i < 1024; ++i) {
      cipher.encrypt_block(block.data(), block.data());
    }
    count += 1024;
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  benchmark::DoNotOptimize(block.data());
  return static_cast<double>(count) / elapsed.count();
}

/// Key-schedule expansions per second (cipher construction from raw key).
double expansions_per_sec(CipherAlgorithm algorithm, double window_ms) {
  SecureRandom rng(21);
  const Bytes key = rng.bytes(cipher_key_size(algorithm));
  const auto start = std::chrono::steady_clock::now();
  const auto deadline = start + std::chrono::duration<double, std::milli>(
                                    window_ms);
  std::uint64_t count = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    for (int i = 0; i < 64; ++i) {
      benchmark::DoNotOptimize(make_cipher(algorithm, key));
    }
    count += 64;
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return static_cast<double>(count) / elapsed.count();
}

/// CBC blocks per second through the fused multi-stream kernel: 8
/// independent messages advancing in lockstep, the shape the executor's
/// batched seal presents.
double multi_stream_blocks_per_sec(const Aes128Ni& cipher, double window_ms) {
  SecureRandom rng(23);
  constexpr std::size_t kMessage = 1024 * 16;  // 1024 blocks per stream
  const Bytes plaintext = rng.bytes(kMessage * kAesNiMaxStreams);
  const Bytes iv = rng.bytes(16 * kAesNiMaxStreams);
  Bytes out((kMessage + 32) * kAesNiMaxStreams);
  AesNiCbcStream streams[kAesNiMaxStreams];
  for (std::size_t s = 0; s < kAesNiMaxStreams; ++s) {
    streams[s] = {&cipher, plaintext.data() + s * kMessage, kMessage,
                  iv.data() + s * 16, out.data() + s * (kMessage + 32)};
  }
  const auto start = std::chrono::steady_clock::now();
  const auto deadline = start + std::chrono::duration<double, std::milli>(
                                    window_ms);
  std::uint64_t count = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    aesni_cbc_encrypt_streams(streams, kAesNiMaxStreams);
    count += (kMessage / 16 + 1) * kAesNiMaxStreams;
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  benchmark::DoNotOptimize(out.data());
  return static_cast<double>(count) / elapsed.count();
}

void emit_primitive_json() {
  bench::emit_header_json("micro_crypto");
  const double window_ms =
      static_cast<double>(bench::env_size("KG_CRYPTO_MS", 200));
  SecureRandom rng(22);
  for (const CipherAlgorithm algorithm :
       {CipherAlgorithm::kDes, CipherAlgorithm::kDes3,
        CipherAlgorithm::kAes128}) {
    const auto cipher =
        make_cipher(algorithm, rng.bytes(cipher_key_size(algorithm)));
    char buffer[256];
    std::snprintf(
        buffer, sizeof(buffer),
        "{\"bench\":\"micro_crypto\",\"primitive\":\"%s\","
        "\"block_bytes\":%zu,\"blocks_per_sec\":%.0f,"
        "\"schedule_expansions_per_sec\":%.0f}",
        cipher_name(algorithm).c_str(), cipher->block_size(),
        blocks_per_sec(*cipher, window_ms),
        expansions_per_sec(algorithm, window_ms));
    bench::emit_json_line(buffer);
  }
  // Per-kernel AES lines (explicit construction, independent of the
  // dispatch choice), so the hardware-vs-table speedup is one grep away.
  const Bytes aes_key = rng.bytes(16);
  const Aes128 table(aes_key);
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "{\"bench\":\"micro_crypto\",\"primitive\":\"AES-128-table\","
                "\"block_bytes\":16,\"blocks_per_sec\":%.0f}",
                blocks_per_sec(table, window_ms));
  bench::emit_json_line(buffer);
  if (Aes128Ni::supported()) {
    const Aes128Ni ni(aes_key);
    std::snprintf(buffer, sizeof(buffer),
                  "{\"bench\":\"micro_crypto\",\"primitive\":\"AES-128-ni\","
                  "\"block_bytes\":16,\"blocks_per_sec\":%.0f,"
                  "\"multi_stream_blocks_per_sec\":%.0f}",
                  blocks_per_sec(ni, window_ms),
                  multi_stream_blocks_per_sec(ni, window_ms));
    bench::emit_json_line(buffer);
  }
}

}  // namespace
}  // namespace keygraphs::crypto

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  keygraphs::crypto::emit_primitive_json();
  return 0;
}
