// Seeded million-user churn soak on the sharded server.
//
// Builds the group with preload() (chunked, message-free), attaches a
// sampled fleet of real GroupClients over the in-proc multicast network,
// then drives seeded churn — joins, leaves, batches, one NACK/retransmit
// episode — on an injected clock. Acceptance: every tracked client holds
// the server's group key at the server's epoch after every phase, the
// ConvergenceMonitor sees zero SLO violations and zero terminal lag, and
// the retransmit window (deliberately tiny, so it never pins more than two
// epochs' tree views at this scale) still serves an in-window NACK.
//
// Scale knobs (so TSan/debug runs can shrink it):
//   KG_SOAK_USERS  preloaded group size   (default 1,000,000)
//   KG_SOAK_OPS    churn operations       (default 256)
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "client/client.h"
#include "server/sharded_server.h"
#include "telemetry/convergence.h"
#include "telemetry/metrics.h"
#include "transport/inproc.h"

namespace keygraphs {
namespace {

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return static_cast<std::size_t>(std::strtoull(value, nullptr, 10));
}

struct Tracked {
  Tracked(server::GroupKeyServer& server,
          transport::InProcNetwork& network, UserId user,
          std::uint64_t* clock_us)
      : network_(network), user_(user) {
    client::ClientConfig config;
    config.user = user;
    config.suite = server.config().suite;
    config.group = server.config().group;
    config.root = server.root_id();
    config.verify = false;
    config.rng_seed = user;
    // A configured recovery clock makes the client report its applied
    // high-water mark to the ConvergenceMonitor — only tracked clients
    // score.
    config.recovery.clock_us = [clock_us] { return *clock_us; };
    config.recovery.token = server.auth().resync_token(user);
    client_ = std::make_unique<client::GroupClient>(config, nullptr);
    client_->admit_snapshot(server.keyset(user), server.epoch());
    attach();
  }

  void attach() {
    network_.attach_client(user_, [this](BytesView datagram) {
      client_->handle_datagram(datagram);
      network_.resubscribe(user_, client_->key_ids());
    });
    network_.resubscribe(user_, client_->key_ids());
  }

  void detach() { network_.detach_client(user_); }

  client::GroupClient& operator*() { return *client_; }
  client::GroupClient* operator->() { return client_.get(); }

  transport::InProcNetwork& network_;
  UserId user_;
  std::unique_ptr<client::GroupClient> client_;
};

TEST(ShardedSoak, MillionUserChurnConvergesWithZeroSloViolations) {
  const std::size_t n = env_size("KG_SOAK_USERS", 1'000'000);
  const std::size_t ops = env_size("KG_SOAK_OPS", 256);
  constexpr std::size_t kShards = 8;
  constexpr std::size_t kTracked = 64;

  telemetry::set_enabled(true);
  telemetry::Registry::global().reset();
  auto& monitor = telemetry::ConvergenceMonitor::global();
  monitor.reset();
  monitor.set_slo_us(3'600'000'000);  // 1 hour: generous but armed

  std::uint64_t now_us = 1'000'000;
  transport::InProcNetwork network;
  server::ShardedServerConfig config;
  config.shards = kShards;
  config.base.rng_seed = 1998;
  config.base.clock_us = [&now_us] { return now_us; };
  // Each retained epoch pins per-shard tree views — at a million users
  // that is tens of megabytes per epoch, so the window stays tiny.
  config.base.retransmit_window = 2;
  server::GroupKeyServer server(config, network);

  std::vector<UserId> initial;
  initial.reserve(n);
  for (UserId user = 1; user <= n; ++user) initial.push_back(user);
  server.preload(initial);
  ASSERT_EQ(server.member_count(), n);
  ASSERT_EQ(server.epoch(), 0u);

  // Sample the fleet evenly across the id space (and therefore across
  // shards, via the router hash).
  std::map<UserId, std::unique_ptr<Tracked>> tracked;
  const UserId step = static_cast<UserId>(n / kTracked);
  for (std::size_t i = 0; i < kTracked; ++i) {
    const UserId user = 1 + static_cast<UserId>(i) * step;
    tracked.emplace(user, std::make_unique<Tracked>(server, network, user,
                                                    &now_us));
  }

  const auto check_converged = [&] {
    const SymmetricKey group = server.group_key();
    for (const auto& [user, member] : tracked) {
      const auto held = (*member)->group_key();
      ASSERT_TRUE(held.has_value()) << "user " << user;
      ASSERT_EQ(held->version, group.version) << "user " << user;
      ASSERT_EQ(held->secret, group.secret) << "user " << user;
      ASSERT_EQ((*member)->applied_epoch(), server.epoch())
          << "user " << user;
    }
  };

  // Seeded churn: join fresh ids, leave preloaded non-tracked ids, with a
  // batched update every 32nd operation.
  std::mt19937_64 prng(404);
  UserId next_join = static_cast<UserId>(n) + 1;
  UserId next_leave = 2;
  const auto pick_leaver = [&]() -> UserId {
    while (tracked.contains(next_leave)) ++next_leave;
    return next_leave++;
  };
  std::size_t joined = 0;
  std::size_t left = 0;
  for (std::size_t op = 0; op < ops; ++op) {
    now_us += 1'000;
    if (op % 32 == 31) {
      const std::vector<UserId> joins{next_join, next_join + 1};
      next_join += 2;
      const std::vector<UserId> leaves{pick_leaver(), pick_leaver()};
      ASSERT_EQ(server.batch(joins, leaves).size(), 2u);
      joined += 2;
      left += 2;
    } else if (prng() % 2 == 0) {
      ASSERT_EQ(server.join(next_join++), server::JoinResult::kGranted);
      ++joined;
    } else {
      server.leave(pick_leaver());
      ++left;
    }
  }
  EXPECT_EQ(server.member_count(), n + joined - left);
  check_converged();

  // One NACK/retransmit episode inside the tiny window: a tracked client
  // goes deaf for exactly two epochs and recovers from the sealed ring.
  const UserId victim = tracked.begin()->first;
  tracked.at(victim)->detach();
  now_us += 1'000;
  server.leave(pick_leaver());
  now_us += 1'000;
  ASSERT_EQ(server.join(next_join++), server::JoinResult::kGranted);
  tracked.at(victim)->attach();
  ASSERT_LT((*tracked.at(victim))->applied_epoch(), server.epoch());
  EXPECT_EQ(
      server.handle_nack(victim, (*tracked.at(victim))->applied_epoch()),
      server::NackOutcome::kRetransmitted);
  check_converged();

  EXPECT_EQ(monitor.published_epoch(), server.epoch());
  EXPECT_EQ(monitor.max_lag(), 0u);
  EXPECT_EQ(
      telemetry::Registry::global().counter("fleet.slo_violations").value(),
      0u);
}

}  // namespace
}  // namespace keygraphs
