#include "workload.h"

#include <unordered_set>

namespace perfbench {

namespace ks = keygraphs::server;

namespace {

// Id spaces: preload 1..n, observers in [2^36, 2^37), churn slot s in
// [2^40 + s * 2^32, 2^40 + (s + 1) * 2^32).
constexpr keygraphs::UserId kObserverBase = 1ull << 36;
constexpr keygraphs::UserId kChurnBase = 1ull << 40;

// The seed picks the workload's inputs (observer and churn ids); the
// server is the same on every seed, so its key material and RSA key (whose
// generation time is part of setup_s) do not vary with it.
ks::ServerConfig base_config() {
  ks::ServerConfig config;
  config.tree_degree = 4;
  config.rng_seed = 0x6B657967726170ull;
  config.auth_master = keygraphs::bytes_of("perfbench-auth-master");
  return config;
}

}  // namespace

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::optional<WorkloadSpec> make_workload(
    const std::string& name, std::optional<std::size_t> scale_preload) {
  WorkloadSpec spec;
  spec.name = name;
  spec.config = base_config();
  // Each workload's reason is its "why" in BENCHMARK.json.
  if (name == "churn-64k") {
    spec.front = Front::kSingle;
    spec.config.suite = {keygraphs::crypto::CipherAlgorithm::kAes128,
                         keygraphs::crypto::DigestAlgorithm::kNone,
                         keygraphs::crypto::SignatureAlgorithm::kNone};
    spec.config.strategy = keygraphs::rekey::StrategyKind::kGroupOriented;
    spec.preload = 65536;
    spec.churn_users = 1;
  } else if (name == "signed-durable-1k") {
    spec.front = Front::kSingle;
    spec.config.suite = keygraphs::crypto::CryptoSuite::paper_signed();
    spec.config.strategy = keygraphs::rekey::StrategyKind::kKeyOriented;
    spec.config.signing = keygraphs::rekey::SigningMode::kBatch;
    spec.preload = 1024;
    spec.churn_users = 1;
    spec.journal = true;
    spec.recover_after_ops = 300;
  } else if (name == "batch-sharded-64k") {
    spec.front = Front::kShardedBatch;
    spec.shards = 4;
    spec.config.suite = {keygraphs::crypto::CipherAlgorithm::kAes128,
                         keygraphs::crypto::DigestAlgorithm::kNone,
                         keygraphs::crypto::SignatureAlgorithm::kNone};
    spec.config.strategy = keygraphs::rekey::StrategyKind::kGroupOriented;
    spec.preload = 65536;
    spec.churn_users = 64;
  } else {
    return std::nullopt;
  }
  if (scale_preload.has_value()) spec.preload = *scale_preload;
  return spec;
}

std::vector<keygraphs::UserId> observer_ids(std::uint64_t seed) {
  std::uint64_t state = seed ^ 0x0B5E7E75ull;
  std::unordered_set<keygraphs::UserId> seen;
  std::vector<keygraphs::UserId> ids;
  while (ids.size() < kObservers) {
    const keygraphs::UserId id = kObserverBase + (splitmix64(state) >> 28);
    if (seen.insert(id).second) ids.push_back(id);
  }
  return ids;
}

RequestSequence::RequestSequence(std::uint64_t seed, std::size_t slot)
    : state_(seed * 0xD1B54A32D192ED03ull + slot * 0x8CB92BA72F3D8DD7ull),
      slot_(slot) {}

Request RequestSequence::next() {
  if (member_.has_value()) {
    const Request leave{RequestKind::kLeave, *member_};
    member_.reset();
    return leave;
  }
  std::uint32_t low = 0;
  do {
    low = static_cast<std::uint32_t>(splitmix64(state_));
  } while (!used_.insert(low).second);
  const keygraphs::UserId user =
      kChurnBase + (static_cast<keygraphs::UserId>(slot_) << 32) + low;
  member_ = user;
  return {RequestKind::kJoin, user};
}

}  // namespace perfbench
