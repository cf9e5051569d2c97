// The server at K = 1 under real thread contention: concurrent joins and
// leaves from several threads must leave a consistent tree (deserializing
// the published view re-validates every invariant, and membership counts
// catch lost updates or torn state).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/error.h"
#include "keygraph/key_tree.h"
#include "server/sharded_server.h"
#include "transport/transport.h"

namespace keygraphs::server {
namespace {

ShardedServerConfig one_shard(ServerConfig config) {
  return ShardedServerConfig{std::move(config), 1};
}

/// Round-trips the current view through KeyTree::deserialize, which throws
/// on any broken invariant.
void expect_consistent(const GroupKeyServer& server) {
  crypto::SecureRandom rng(1);
  EXPECT_NO_THROW(
      (void)KeyTree::deserialize(server.shard_view(0)->serialize(), rng));
}

TEST(ServerConcurrency, SingleThreadBehavesLikePlainServer) {
  transport::NullTransport transport;
  ServerConfig config;
  config.rng_seed = 3;
  GroupKeyServer server(one_shard(config), transport);
  EXPECT_EQ(server.join(1), JoinResult::kGranted);
  EXPECT_EQ(server.join(1), JoinResult::kDuplicate);
  EXPECT_TRUE(server.has_member(1));
  server.leave(1);
  EXPECT_FALSE(server.has_member(1));
  EXPECT_EQ(server.epoch(), 2u);
}

TEST(ServerConcurrency, TokenPathsWork) {
  transport::NullTransport transport;
  ServerConfig config;
  config.rng_seed = 4;
  GroupKeyServer server(one_shard(config), transport);
  EXPECT_EQ(server.join_with_token(5, server.auth().join_token(5)),
            JoinResult::kGranted);
  EXPECT_TRUE(server.leave_with_token(5, server.auth().leave_token(5)));
}

TEST(ServerConcurrency, ConcurrentJoinsAllLand) {
  transport::NullTransport transport;
  ServerConfig config;
  config.rng_seed = 5;
  GroupKeyServer server(one_shard(config), transport);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  std::atomic<int> granted{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&server, &granted, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const UserId user =
            static_cast<UserId>(t) * 1000 + static_cast<UserId>(i) + 1;
        if (server.join(user) == JoinResult::kGranted) {
          granted.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(granted.load(), kThreads * kPerThread);
  EXPECT_EQ(server.member_count(),
            static_cast<std::size_t>(kThreads * kPerThread));
  expect_consistent(server);
}

TEST(ServerConcurrency, ConcurrentMixedChurnStaysConsistent) {
  transport::NullTransport transport;
  ServerConfig config;
  config.rng_seed = 6;
  GroupKeyServer server(one_shard(config), transport);
  // Pre-populate a disjoint range per thread; each thread churns only its
  // own users, so every leave targets a member.
  constexpr int kThreads = 6;
  constexpr int kUsersPerThread = 30;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kUsersPerThread; ++i) {
      server.join(static_cast<UserId>(t) * 1000 + static_cast<UserId>(i) +
                  1);
    }
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&server, t] {
      for (int round = 0; round < 20; ++round) {
        const UserId base = static_cast<UserId>(t) * 1000;
        const UserId user = base + static_cast<UserId>(round % 30) + 1;
        server.leave(user);
        server.join(user);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(server.member_count(),
            static_cast<std::size_t>(kThreads * kUsersPerThread));
  expect_consistent(server);
  // Epoch counts every operation exactly once.
  EXPECT_EQ(server.epoch(), static_cast<std::uint64_t>(
                                kThreads * kUsersPerThread +  // initial
                                kThreads * 20 * 2));          // churn
}

// The pipeline's narrow critical section under real contention: 8 threads
// mixing joins, leaves and resyncs while the seal phase itself fans out
// across 4 pool threads. This is the TSan target for the plan/seal/dispatch
// split — any server state touched outside the lane mutex shows up here.
TEST(ServerConcurrency, EightThreadChurnWithParallelSeal) {
  transport::NullTransport transport;
  ServerConfig config;
  config.rng_seed = 8;
  config.seal_threads = 4;
  config.suite = crypto::CryptoSuite::paper_signed();
  config.signing = rekey::SigningMode::kBatch;
  GroupKeyServer server(one_shard(config), transport);

  constexpr int kThreads = 8;
  constexpr int kUsersPerThread = 12;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kUsersPerThread; ++i) {
      server.join(static_cast<UserId>(t) * 1000 + static_cast<UserId>(i) + 1);
    }
  }
  const std::uint64_t epoch_before = server.epoch();

  std::vector<std::thread> threads;
  constexpr int kRounds = 10;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&server, t] {
      const UserId base = static_cast<UserId>(t) * 1000;
      for (int round = 0; round < kRounds; ++round) {
        const UserId user = base + static_cast<UserId>(round % 12) + 1;
        server.resync(user);  // replay: must not advance the epoch
        server.leave(user);
        server.join(user);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(server.member_count(),
            static_cast<std::size_t>(kThreads * kUsersPerThread));
  expect_consistent(server);
  // Leaves and joins each advance the epoch once; resyncs never do.
  EXPECT_EQ(server.epoch(), epoch_before + kThreads * kRounds * 2);
  // Every operation dispatched exactly once, in ticket order; the stats
  // ledger must account all of them (initial joins + churn + resyncs).
  EXPECT_EQ(server.stats().records().size(),
            static_cast<std::size_t>(kThreads * kUsersPerThread +
                                     kThreads * kRounds * 3));
}

TEST(ServerConcurrency, SnapshotWhileChurning) {
  transport::NullTransport transport;
  ServerConfig config;
  config.rng_seed = 7;
  GroupKeyServer server(one_shard(config), transport);
  for (UserId user = 1; user <= 32; ++user) server.join(user);

  std::atomic<bool> stop{false};
  std::thread churner([&server, &stop] {
    UserId next = 1000;
    while (!stop.load(std::memory_order_relaxed)) {
      server.join(next);
      server.leave(next);
      ++next;
    }
  });
  // Snapshots taken mid-churn must always be internally consistent
  // (deserialize validates every invariant).
  for (int i = 0; i < 50; ++i) {
    const Bytes snapshot = server.shard_view(0)->serialize();
    crypto::SecureRandom rng(static_cast<std::uint64_t>(i) + 1);
    std::unique_ptr<KeyTree> replica;
    EXPECT_NO_THROW(replica = KeyTree::deserialize(snapshot, rng));
    ASSERT_NE(replica, nullptr);
    EXPECT_GE(replica->user_count(), 32u);
  }
  stop.store(true);
  churner.join();
}

}  // namespace
}  // namespace keygraphs::server
