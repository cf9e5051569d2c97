// Workload definitions and the seeded request generator.
//
// Every workload keeps kObservers observer clients in the group for the
// whole run and drives `churn_users` closed-loop churn users on top of a
// preloaded population that has no socket addresses. A churn user joins
// as a fresh id, leaves once that join has converged, and repeats with the
// next fresh id, so the addressed membership stays stationary.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "keygraph/key.h"
#include "server/server.h"

namespace perfbench {

inline constexpr std::size_t kObservers = 16;

/// How the front hands requests to the server.
enum class Front : std::uint8_t {
  /// GroupKeyServer, one request at a time through plan_* / seal /
  /// dispatch (what join_with_token / leave_with_token run).
  kSingle,
  /// ShardedGroupKeyServer; every request received since the last commit
  /// goes into one batch() call (periodic rekeying).
  kShardedBatch,
};

struct WorkloadSpec {
  std::string name;
  Front front = Front::kSingle;
  std::size_t shards = 1;
  keygraphs::server::ServerConfig config;
  /// Preloaded members (ids 1..preload); none of them has an address.
  std::size_t preload = 0;
  std::size_t churn_users = 1;
  /// Write-ahead file journal under the run directory.
  bool journal = false;
  /// Committed churn ops after which recovery is timed (journal only).
  std::size_t recover_after_ops = 0;
};

/// The named workload; nullopt for unknown names. `scale_preload`
/// overrides the preloaded population (the self-test runs the same shapes
/// on small groups).
std::optional<WorkloadSpec> make_workload(
    const std::string& name,
    std::optional<std::size_t> scale_preload = std::nullopt);

/// splitmix64 step: the generator behind every seeded choice here.
std::uint64_t splitmix64(std::uint64_t& state);

/// Observer ids for a seed: kObservers distinct ids above the preload and
/// below the churn id space.
std::vector<keygraphs::UserId> observer_ids(std::uint64_t seed);

enum class RequestKind : std::uint8_t { kJoin, kLeave };

struct Request {
  RequestKind kind = RequestKind::kJoin;
  keygraphs::UserId user = 0;
  bool operator==(const Request&) const = default;
};

/// One churn user's request stream: join(a), leave(a), join(b), leave(b),
/// ... with fresh ids drawn from (seed, slot). Slots own disjoint id
/// ranges, so streams never collide and each depends only on its own
/// (seed, slot), not on how requests of different slots interleave.
class RequestSequence {
 public:
  RequestSequence(std::uint64_t seed, std::size_t slot);

  Request next();

 private:
  std::uint64_t state_;
  std::size_t slot_;
  std::unordered_set<std::uint32_t> used_;
  std::optional<keygraphs::UserId> member_;
};

}  // namespace perfbench
