// The sharded server: K per-shard lanes stitched by a thin root layer.
//
//   - K = 1 is the compatibility mode: byte-identical wire output to the
//     single-tree GroupKeyServer for the same config and seed, across all
//     four strategies, signed and unsigned (the golden contract that lets
//     deployments move to the sharded server without a flag day).
//   - K > 1: every member converges to the shared group key after every
//     operation; the stitched epoch stream is contiguous; NACK replay
//     filters per-datagram views so cross-shard broadcasts retransmit
//     correctly; resync carries the shared key.
//   - Concurrent writers on distinct users are safe (run under TSan) and
//     never tear the epoch sequence.
//   - At every K, each dispatched datagram's Resolver yields exactly its
//     recipient set on the view it was planned against, each user once.
#include "server/sharded_server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "client/client.h"
#include "common/error.h"
#include "fanout_check.h"
#include "server/server.h"
#include "transport/inproc.h"
#include "transport/transport.h"

namespace keygraphs {
namespace {

struct Sent {
  rekey::Recipient to;
  Bytes datagram;
};

class RecordingTransport final : public transport::ServerTransport {
 public:
  void deliver(const rekey::Recipient& to, BytesView datagram,
               const Resolver& resolve) override {
    (void)resolve;
    sent_.push_back(Sent{to, Bytes(datagram.begin(), datagram.end())});
  }

  [[nodiscard]] const std::vector<Sent>& sent() const noexcept {
    return sent_;
  }

 private:
  std::vector<Sent> sent_;
};

/// Thread-safe sink for the concurrency tests.
class CountingTransport final : public transport::ServerTransport {
 public:
  void deliver(const rekey::Recipient& to, BytesView datagram,
               const Resolver& resolve) override {
    (void)to;
    (void)resolve;
    deliveries_.fetch_add(1, std::memory_order_relaxed);
    bytes_.fetch_add(datagram.size(), std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t deliveries() const noexcept {
    return deliveries_.load();
  }

 private:
  std::atomic<std::size_t> deliveries_{0};
  std::atomic<std::size_t> bytes_{0};
};

server::ServerConfig signed_base(rekey::StrategyKind strategy,
                                 std::size_t seal_threads) {
  server::ServerConfig config;
  config.suite = crypto::CryptoSuite::paper_signed();
  config.signing = rekey::SigningMode::kBatch;
  config.strategy = strategy;
  config.rng_seed = 1998;
  config.seal_threads = seal_threads;
  config.clock_us = [] { return std::uint64_t{863913600000000}; };
  return config;
}

template <typename Server>
void run_churn(Server& server) {
  for (UserId user = 1; user <= 16; ++user) server.join(user);
  server.leave(5);
  server.leave(12);
  server.join(100);
  server.resync(7);
  server.batch({200, 201, 202}, {3, 9});
}

void expect_same_wire(const std::vector<Sent>& a,
                      const std::vector<Sent>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].to.kind, b[i].to.kind) << "message " << i;
    EXPECT_EQ(a[i].to.user, b[i].to.user) << "message " << i;
    EXPECT_EQ(a[i].to.include, b[i].to.include) << "message " << i;
    EXPECT_EQ(a[i].to.exclude, b[i].to.exclude) << "message " << i;
    EXPECT_EQ(a[i].datagram, b[i].datagram) << "message " << i;
  }
}

// --- K = 1 byte identity ----------------------------------------------

void expect_identical_to_unsharded(rekey::StrategyKind strategy) {
  RecordingTransport flat_wire;
  server::GroupKeyServer flat(signed_base(strategy, 1), flat_wire);
  run_churn(flat);

  RecordingTransport sharded_wire;
  server::ShardedServerConfig config;
  config.base = signed_base(strategy, 1);
  config.shards = 1;
  server::ShardedGroupKeyServer sharded(config, sharded_wire);
  run_churn(sharded);

  EXPECT_EQ(flat.epoch(), sharded.epoch());
  EXPECT_EQ(flat.root_id(), sharded.root_id());
  expect_same_wire(flat_wire.sent(), sharded_wire.sent());
}

TEST(ShardedIdentity, GroupOriented) {
  expect_identical_to_unsharded(rekey::StrategyKind::kGroupOriented);
}

TEST(ShardedIdentity, UserOriented) {
  expect_identical_to_unsharded(rekey::StrategyKind::kUserOriented);
}

TEST(ShardedIdentity, KeyOriented) {
  expect_identical_to_unsharded(rekey::StrategyKind::kKeyOriented);
}

TEST(ShardedIdentity, Hybrid) {
  expect_identical_to_unsharded(rekey::StrategyKind::kHybrid);
}

TEST(ShardedIdentity, UnsignedDigestPath) {
  server::ServerConfig base;
  base.rng_seed = 77;
  base.clock_us = [] { return std::uint64_t{42}; };

  RecordingTransport flat_wire;
  server::GroupKeyServer flat(base, flat_wire);
  run_churn(flat);

  RecordingTransport sharded_wire;
  server::ShardedServerConfig config;
  config.base = base;
  server::ShardedGroupKeyServer sharded(config, sharded_wire);
  run_churn(sharded);

  EXPECT_EQ(flat.epoch(), sharded.epoch());
  expect_same_wire(flat_wire.sent(), sharded_wire.sent());
}

// A K=1 sharded server with more seal threads still produces the same
// bytes (the plan-time-randomness invariant carries through the lanes).
TEST(ShardedIdentity, SealThreadsDoNotChangeWire) {
  RecordingTransport serial_wire;
  server::ShardedServerConfig serial_config;
  serial_config.base = signed_base(rekey::StrategyKind::kGroupOriented, 1);
  server::ShardedGroupKeyServer serial(serial_config, serial_wire);
  run_churn(serial);

  RecordingTransport parallel_wire;
  server::ShardedServerConfig parallel_config;
  parallel_config.base = signed_base(rekey::StrategyKind::kGroupOriented, 4);
  server::ShardedGroupKeyServer parallel(parallel_config, parallel_wire);
  run_churn(parallel);

  expect_same_wire(serial_wire.sent(), parallel_wire.sent());
}

// Two NACKs at K = 1 — one inside the retransmit window, one whose gap has
// left it and falls back to a resync — emit the same datagrams from both
// servers.
TEST(ShardedIdentity, NacksInAndOutOfWindow) {
  server::ServerConfig base = signed_base(rekey::StrategyKind::kKeyOriented, 1);
  base.retransmit_window = 2;
  const auto run = [](auto& server, const RecordingTransport& wire) {
    run_churn(server);
    const std::size_t before = wire.sent().size();
    EXPECT_EQ(server.handle_nack(7, server.epoch() - 2),
              server::NackOutcome::kRetransmitted);
    EXPECT_GT(wire.sent().size(), before);
    EXPECT_EQ(server.handle_nack(8, server.epoch() - 5),
              server::NackOutcome::kResynced);
  };

  RecordingTransport flat_wire;
  server::GroupKeyServer flat(base, flat_wire);
  run(flat, flat_wire);

  RecordingTransport sharded_wire;
  server::ShardedGroupKeyServer sharded({base, 1}, sharded_wire);
  run(sharded, sharded_wire);

  expect_same_wire(flat_wire.sent(), sharded_wire.sent());
}

// --- Dispatch fan-out --------------------------------------------------

// Every datagram a dispatch hands the transport resolves to exactly its
// recipient set on the view it was planned against. Internal k-node ids
// are disjoint across shards and an unknown include resolves to nobody, so
// the union over the shard views names the one shard that holds it.
TEST(ShardedServer, DispatchFansEachSubgroupOutToItsUserset) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    for (const rekey::StrategyKind strategy :
         {rekey::StrategyKind::kUserOriented,
          rekey::StrategyKind::kKeyOriented,
          rekey::StrategyKind::kGroupOriented, rekey::StrategyKind::kHybrid}) {
      SCOPED_TRACE(::testing::Message() << "K=" << shards << " strategy="
                                        << static_cast<int>(strategy));
      server::ServerConfig base;
      base.strategy = strategy;
      base.rng_seed = 77;
      fanout::ResolvingTransport transport;
      server::ShardedGroupKeyServer server({base, shards}, transport);
      fanout::Counts total;
      const auto userset = [&](KeyId include, std::optional<KeyId> exclude) {
        std::vector<UserId> out;
        for (std::size_t s = 0; s < server.shard_count(); ++s) {
          const std::vector<UserId> part =
              server.shard_view(s)->resolve_subgroup(include, exclude);
          out.insert(out.end(), part.begin(), part.end());
        }
        std::sort(out.begin(), out.end());
        return out;
      };
      const auto check = [&] {
        const fanout::Counts counts =
            fanout::expect_exact(transport.take(), userset);
        total.subgroups += counts.subgroups;
        total.excludes += counts.excludes;
      };
      for (UserId user = 1; user <= 40; ++user) {
        server.join(user);
        check();
      }
      for (const UserId user : {5, 12, 1, 40, 17, 33}) {
        server.leave(user);
        check();
      }
      // A batch spanning shards commits them one after another, so a later
      // shard's view moves past what an earlier shard's broadcast resolved
      // on; keep this one inside a single shard.
      std::vector<UserId> joins;
      std::vector<UserId> leaves;
      for (UserId user = 100; joins.size() < 3; ++user) {
        if (server.shard_of(user) == 0) joins.push_back(user);
      }
      for (UserId user = 2; leaves.size() < 3 && user < 40; ++user) {
        if (server.shard_of(user) == 0 && server.has_member(user)) {
          leaves.push_back(user);
        }
      }
      server.batch(joins, leaves);
      check();
      EXPECT_GT(total.subgroups, 0u);
      if (strategy == rekey::StrategyKind::kUserOriented ||
          strategy == rekey::StrategyKind::kKeyOriented) {
        EXPECT_GT(total.excludes, 0u);
      }
    }
  }
}

// --- K > 1 member convergence -----------------------------------------

/// A member client wired to the in-proc network that applies everything
/// delivered to it (and keeps its multicast subscriptions current).
struct Member {
  Member(server::ShardedGroupKeyServer& server,
         transport::InProcNetwork& network, UserId user)
      : network_(network), user_(user) {
    client::ClientConfig config;
    config.user = user;
    config.suite = server.config().base.suite;
    config.group = server.config().base.group;
    config.root = server.root_id();
    config.verify = false;
    config.rng_seed = user;
    client_ = std::make_unique<client::GroupClient>(config, nullptr);
    client_->install_individual_key(SymmetricKey{
        individual_key_id(user), 1,
        server.auth().individual_key(user, config.suite.key_size())});
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

server::ShardedServerConfig sharded_config(std::size_t shards,
                                           std::uint64_t* clock_us) {
  server::ShardedServerConfig config;
  config.base.tree_degree = 3;
  config.base.rng_seed = 404;
  config.base.clock_us = [clock_us] { return *clock_us; };
  config.shards = shards;
  return config;
}

void expect_converged(
    server::ShardedGroupKeyServer& server,
    const std::map<UserId, std::unique_ptr<Member>>& members) {
  const SymmetricKey group = server.group_key();
  for (const auto& [user, member] : members) {
    const auto held = (*member)->group_key();
    ASSERT_TRUE(held.has_value()) << "user " << user;
    EXPECT_EQ(held->id, group.id) << "user " << user;
    EXPECT_EQ(held->version, group.version) << "user " << user;
    EXPECT_EQ(held->secret, group.secret) << "user " << user;
    EXPECT_EQ((*member)->applied_epoch(), server.epoch())
        << "user " << user;
  }
}

TEST(ShardedServer, MultiShardChurnConverges) {
  std::uint64_t now = 1'000'000;
  transport::InProcNetwork network;
  server::ShardedGroupKeyServer server(sharded_config(4, &now), network);
  EXPECT_EQ(server.root_id(), kSharedGroupKeyId);

  std::map<UserId, std::unique_ptr<Member>> members;
  for (UserId user = 1; user <= 24; ++user) {
    members.emplace(user, std::make_unique<Member>(server, network, user));
    ASSERT_EQ(server.join(user), server::JoinResult::kGranted);
  }
  EXPECT_EQ(server.member_count(), 24u);
  EXPECT_EQ(server.epoch(), 24u);
  expect_converged(server, members);

  // Users land on several shards (the router spreads sequential ids).
  bool multiple_shards = false;
  for (UserId user = 2; user <= 24; ++user) {
    if (server.shard_of(user) != server.shard_of(1)) multiple_shards = true;
  }
  EXPECT_TRUE(multiple_shards);

  for (const UserId leaver : {UserId{3}, UserId{7}, UserId{11}, UserId{19}}) {
    members.at(leaver)->detach();
    members.erase(leaver);
    server.leave(leaver);
    expect_converged(server, members);
  }
  EXPECT_EQ(server.member_count(), 20u);

  // Batched update: joiners admitted, leavers cut, at most one epoch per
  // affected shard, and the whole fleet still converges.
  for (const UserId joiner : {UserId{30}, UserId{31}, UserId{32}}) {
    members.emplace(joiner, std::make_unique<Member>(server, network, joiner));
  }
  members.at(2)->detach();
  members.erase(2);
  members.at(13)->detach();
  members.erase(13);
  const std::vector<UserId> admitted = server.batch({30, 31, 32}, {2, 13});
  EXPECT_EQ(admitted.size(), 3u);
  EXPECT_EQ(server.member_count(), 21u);
  expect_converged(server, members);

  // Keysets handed to late observers include the shared group key.
  const std::vector<SymmetricKey> keys = server.keyset(30);
  ASSERT_FALSE(keys.empty());
  EXPECT_EQ(keys.back().id, kSharedGroupKeyId);
}

TEST(ShardedServer, DuplicateAndDeniedJoins) {
  std::uint64_t now = 1'000'000;
  RecordingTransport wire;
  server::ShardedServerConfig config = sharded_config(2, &now);
  server::ShardedGroupKeyServer server(
      config, wire, server::AccessControl::allow_list({1, 2, 3}));
  EXPECT_EQ(server.join(1), server::JoinResult::kGranted);
  EXPECT_EQ(server.join(1), server::JoinResult::kDuplicate);
  EXPECT_EQ(server.join(9), server::JoinResult::kDenied);
  EXPECT_EQ(server.epoch(), 1u);
  EXPECT_THROW(server.leave(42), ProtocolError);
}

TEST(ShardedServer, NoOpBatchAdvancesNothing) {
  std::uint64_t now = 1'000'000;
  RecordingTransport wire;
  server::ShardedGroupKeyServer server(sharded_config(4, &now), wire);
  server.join(1);
  const std::uint64_t epoch = server.epoch();
  const std::size_t sent = wire.sent().size();
  EXPECT_TRUE(server.batch({}, {}).empty());
  EXPECT_TRUE(server.batch({1}, {}).empty());  // duplicate joiner only
  EXPECT_EQ(server.epoch(), epoch);
  EXPECT_EQ(wire.sent().size(), sent);
}

// --- Recovery across shards -------------------------------------------

TEST(ShardedServer, NackReplayCoversCrossShardBroadcasts) {
  std::uint64_t now = 1'000'000;
  transport::InProcNetwork network;
  server::ShardedGroupKeyServer server(sharded_config(4, &now), network);

  std::map<UserId, std::unique_ptr<Member>> members;
  for (UserId user = 1; user <= 12; ++user) {
    members.emplace(user, std::make_unique<Member>(server, network, user));
    server.join(user);
  }
  expect_converged(server, members);

  // The victim goes deaf across operations in *other* shards (it missed
  // only the little G-under-its-shard-root broadcasts) and one in its own.
  const UserId victim = 1;
  members.at(victim)->detach();
  std::vector<UserId> others;
  for (UserId user = 2; user <= 12; ++user) {
    if (server.shard_of(user) != server.shard_of(victim)) {
      others.push_back(user);
    }
  }
  ASSERT_GE(others.size(), 2u);
  server.leave(others[0]);
  members.at(others[0])->detach();
  members.erase(others[0]);
  server.leave(others[1]);
  members.at(others[1])->detach();
  members.erase(others[1]);
  server.join(50);  // may land anywhere, including the victim's shard
  members.emplace(50, std::make_unique<Member>(server, network, 50));
  server.resync(50);  // the welcome predated the member's attach

  members.at(victim)->attach();
  EXPECT_LT((*members.at(victim))->applied_epoch(), server.epoch());
  const std::uint64_t epoch_before = server.epoch();
  EXPECT_EQ(server.handle_nack(victim,
                               (*members.at(victim))->applied_epoch()),
            server::NackOutcome::kRetransmitted);
  EXPECT_EQ(server.epoch(), epoch_before);
  expect_converged(server, members);
}

TEST(ShardedServer, OutOfWindowGapFallsBackToResyncWithSharedKey) {
  std::uint64_t now = 1'000'000;
  transport::InProcNetwork network;
  server::ShardedServerConfig config = sharded_config(4, &now);
  config.base.retransmit_window = 1;  // almost everything falls out
  server::ShardedGroupKeyServer server(config, network);

  std::map<UserId, std::unique_ptr<Member>> members;
  for (UserId user = 1; user <= 10; ++user) {
    members.emplace(user, std::make_unique<Member>(server, network, user));
    server.join(user);
  }
  const UserId victim = 4;
  members.at(victim)->detach();
  server.leave(9);
  members.at(9)->detach();
  members.erase(9);
  server.join(60);
  members.emplace(60, std::make_unique<Member>(server, network, 60));
  server.resync(60);
  server.join(61);
  members.emplace(61, std::make_unique<Member>(server, network, 61));
  server.resync(61);

  members.at(victim)->attach();
  EXPECT_EQ(server.handle_nack(victim,
                               (*members.at(victim))->applied_epoch()),
            server::NackOutcome::kResynced);
  // The resync keyset replay carries the shared group key, so the victim
  // lands on the current group key in one jump.
  expect_converged(server, members);
}

TEST(ShardedServer, NackTokenGuards) {
  std::uint64_t now = 1'000'000;
  transport::InProcNetwork network;
  server::ShardedGroupKeyServer server(sharded_config(2, &now), network);
  Member member(server, network, 5);
  server.join(5);
  EXPECT_FALSE(
      server.nack_with_token(5, bytes_of("bogus"), 0).has_value());
  const Bytes token = server.auth().resync_token(5);
  EXPECT_FALSE(server.nack_with_token(99, token, 0).has_value());
  const auto outcome = server.nack_with_token(5, token, 0);
  ASSERT_TRUE(outcome.has_value());
}

// --- Preload ------------------------------------------------------------

TEST(ShardedServer, PreloadAdmitsWithoutEpochsOrMessages) {
  std::uint64_t now = 1'000'000;
  RecordingTransport wire;
  server::ShardedGroupKeyServer server(sharded_config(4, &now), wire);
  std::vector<UserId> users;
  for (UserId user = 1; user <= 500; ++user) users.push_back(user);
  server.preload(users);
  EXPECT_EQ(server.member_count(), 500u);
  EXPECT_EQ(server.epoch(), 0u);
  EXPECT_TRUE(wire.sent().empty());
  EXPECT_TRUE(server.has_member(250));
  // Churn after a preload behaves normally.
  EXPECT_EQ(server.join(501), server::JoinResult::kGranted);
  EXPECT_EQ(server.epoch(), 1u);
  EXPECT_FALSE(wire.sent().empty());
}

// --- Concurrency (meaningful under TSan) --------------------------------

TEST(ShardedServer, ConcurrentWritersKeepEpochsContiguous) {
  std::uint64_t now = 1'000'000;
  CountingTransport wire;
  server::ShardedServerConfig config = sharded_config(4, &now);
  config.base.seal_threads = 2;
  server::ShardedGroupKeyServer server(config, wire);

  constexpr std::size_t kThreads = 4;
  constexpr UserId kPerThread = 16;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&server, t] {
      const UserId base = 1000 * (static_cast<UserId>(t) + 1);
      for (UserId i = 0; i < kPerThread; ++i) {
        EXPECT_EQ(server.join(base + i), server::JoinResult::kGranted);
      }
      for (UserId i = 0; i < kPerThread; i += 2) {
        server.leave(base + i);
      }
    });
  }
  for (std::thread& writer : writers) writer.join();

  const std::size_t ops = kThreads * (kPerThread + kPerThread / 2);
  EXPECT_EQ(server.epoch(), ops);
  EXPECT_EQ(server.stats().size(), ops);
  EXPECT_EQ(server.member_count(), kThreads * kPerThread / 2);
  EXPECT_GT(wire.deliveries(), 0u);

  // Every member's keyset still resolves and ends in the shared key.
  const std::vector<SymmetricKey> keys = server.keyset(1001);
  ASSERT_FALSE(keys.empty());
  EXPECT_EQ(keys.back().id, kSharedGroupKeyId);
}

TEST(ShardedServer, ConcurrentWritersWithNacks) {
  std::uint64_t now = 1'000'000;
  CountingTransport wire;
  server::ShardedGroupKeyServer server(sharded_config(4, &now), wire);
  for (UserId user = 1; user <= 32; ++user) server.join(user);

  std::atomic<bool> stop{false};
  std::thread nacker([&server, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::uint64_t have = server.epoch();
      (void)server.handle_nack(7, have > 2 ? have - 2 : 0);
    }
  });
  std::vector<std::thread> writers;
  for (std::size_t t = 0; t < 2; ++t) {
    writers.emplace_back([&server, t] {
      const UserId base = 5000 * (static_cast<UserId>(t) + 1);
      for (UserId i = 0; i < 24; ++i) {
        server.join(base + i);
        server.leave(base + i);
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  stop.store(true);
  nacker.join();
  EXPECT_EQ(server.member_count(), 32u);
}

}  // namespace
}  // namespace keygraphs
