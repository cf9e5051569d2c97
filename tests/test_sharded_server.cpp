// The sharded server: K per-shard lanes stitched by a thin root layer.
//
//   - Wire goldens: literal digests of the delivered stream at K = 1 and
//     K = 4, across all four strategies, signed and unsigned, NACK replay
//     and resync fallback, trace propagation and a degraded batch flush.
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
#include "common/io.h"
#include "crypto/sha256.h"
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

void run_churn(server::GroupKeyServer& server) {
  for (UserId user = 1; user <= 16; ++user) server.join(user);
  server.leave(5);
  server.leave(12);
  server.join(100);
  server.resync(7);
  server.batch({200, 201, 202}, {3, 9});
}

// --- Wire goldens -------------------------------------------------------
//
// Literal SHA-256 digests of everything one scripted run delivers: per
// datagram its recipient (kind, user, include, exclude) and its bytes, in
// delivery order. They were captured from the single-tree server (K = 1)
// and the sharded server (K = 4) before the two became one class, so any
// change in the wire bytes, the message order or the addressing fails
// here.

/// Trace ids come from a process-wide counter, so each distinct id is
/// rewritten to its first-appearance ordinal (1, 2, ...) before hashing;
/// every other byte is hashed as delivered.
std::string wire_digest(const std::vector<Sent>& sent) {
  crypto::Sha256 digest;
  std::map<std::uint64_t, std::uint64_t> trace_ordinals;
  for (const Sent& s : sent) {
    Bytes datagram = s.datagram;
    rekey::Datagram decoded = rekey::Datagram::decode(datagram);
    if (decoded.trace) {
      decoded.trace->trace_id =
          trace_ordinals
              .emplace(decoded.trace->trace_id, trace_ordinals.size() + 1)
              .first->second;
      datagram = decoded.encode();
    }
    ByteWriter writer;
    writer.u8(static_cast<std::uint8_t>(s.to.kind));
    writer.u64(s.to.user);
    writer.u64(s.to.include);
    writer.u8(s.to.exclude.has_value() ? 1 : 0);
    writer.u64(s.to.exclude.value_or(0));
    writer.var_bytes(datagram);
    digest.update(writer.take());
  }
  return to_hex(digest.finish());
}

/// Runs `script` on a fresh server with `shards` lanes and checks the
/// delivered stream against `golden`.
template <typename Script>
void expect_golden(const server::ServerConfig& base, std::size_t shards,
                   Script script, const char* golden) {
  RecordingTransport wire;
  server::GroupKeyServer server({base, shards}, wire);
  script(server, wire);
  EXPECT_EQ(wire_digest(wire.sent()), golden) << "K=" << shards;
}

const auto churn = [](server::GroupKeyServer& server,
                       const RecordingTransport&) {
  run_churn(server);
};

struct StrategyGolden {
  rekey::StrategyKind strategy;
  const char* k1;
  const char* k4;
};

const StrategyGolden kStrategyGoldens[] = {
    {rekey::StrategyKind::kUserOriented,
     "c210f9792285b58b9e74dcdd4d2dbb5ec4d47c715a6f4256d96e50d32ca3f700",
     "4a86d1d81220e51e117cc6e98202671a650be52b6a7941380022ba8ad4e4e34b"},
    {rekey::StrategyKind::kKeyOriented,
     "acb6d97458a4ca09b8d70dc71567f8493745f5b8d1ee4c8ed6db02a33968b38d",
     "bba01a3261c9c112fac9fe41fc5e77810fbc77673f4419a4354dac21241e2a66"},
    {rekey::StrategyKind::kGroupOriented,
     "14f5065ff62e1577df90f0b2aedb31e43289b84b9113a5361f03f83df7107e82",
     "9970fe2c8eefb0b0f10b17ae028ab9aaa7c7e585f07621f1046d6a0c1f6992eb"},
    {rekey::StrategyKind::kHybrid,
     "92a8de21b41e51b443a34b03e2b036d4ea3f47c0aaa0c17b184c3f058470a15d",
     "4b7412df5d67e33387cc75c8c34f0fa1409a4e7567281cb0dea067cf118f5858"},
};

TEST(WireGolden, SignedStrategies) {
  for (const StrategyGolden& golden : kStrategyGoldens) {
    SCOPED_TRACE(::testing::Message()
                 << "strategy=" << static_cast<int>(golden.strategy));
    expect_golden(signed_base(golden.strategy, 1), 1, churn, golden.k1);
    expect_golden(signed_base(golden.strategy, 1), 4, churn, golden.k4);
    // All randomness is drawn at plan time: seal fan-out changes nothing.
    expect_golden(signed_base(golden.strategy, 4), 1, churn, golden.k1);
  }
}

TEST(WireGolden, UnsignedDigestPath) {
  server::ServerConfig base;
  base.rng_seed = 77;
  base.clock_us = [] { return std::uint64_t{42}; };
  expect_golden(
      base, 1, churn,
      "763e3c77df6b96a80bf3e44d711af7259c9d09f0d3ca65caf67397dd36653291");
}

// Two NACKs: one inside the retransmit window (stored datagrams replayed
// unicast), one whose gap has left it (resync fallback).
TEST(WireGolden, NacksInAndOutOfWindow) {
  server::ServerConfig base = signed_base(rekey::StrategyKind::kKeyOriented, 1);
  base.retransmit_window = 2;
  expect_golden(
      base, 1,
      [](server::GroupKeyServer& server, const RecordingTransport& wire) {
        run_churn(server);
        const std::size_t before = wire.sent().size();
        EXPECT_EQ(server.handle_nack(7, server.epoch() - 2),
                  server::NackOutcome::kRetransmitted);
        EXPECT_GT(wire.sent().size(), before);
        EXPECT_EQ(server.handle_nack(8, server.epoch() - 5),
                  server::NackOutcome::kResynced);
      },
      "5b74079da8426b21f75badd4c1cbbf631a83affe52164567705fda7a0167524b");
}

TEST(WireGolden, TracePropagation) {
  server::ServerConfig base =
      signed_base(rekey::StrategyKind::kGroupOriented, 1);
  base.trace_propagation = true;
  expect_golden(
      base, 1, churn,
      "004e990bc8862788239b0938bc8a6b6abb385ada40a0c81973a58d8d8a4afcc6");
}

// One degraded flush after the churn: two coalesced joins and a leave
// cost one batch epoch.
TEST(WireGolden, DegradedFlush) {
  std::uint64_t now_us = 1'000'000;
  server::ServerConfig base;
  base.rng_seed = 9;
  base.clock_us = [&now_us] { return now_us; };
  base.overload.enabled = true;
  base.overload.degrade_queue_fraction = 0.0;  // pinned degraded
  expect_golden(
      base, 1,
      [&](server::GroupKeyServer& server, const RecordingTransport&) {
        now_us = 1'000'000;
        run_churn(server);
        server.poll_overload();
        ASSERT_EQ(server.health(), server::overload::HealthState::kDegraded);
        for (const UserId user : {300, 301}) {
          ASSERT_EQ(
              server.offer_join(user, server.auth().join_token(user)).action,
              server::overload::Admission::kCoalesce);
        }
        ASSERT_EQ(server.offer_leave(2, server.auth().leave_token(2)).action,
                  server::overload::Admission::kCoalesce);
        now_us += base.overload.degraded_batch_period_us;
        const server::OverloadTick tick = server.poll_overload();
        ASSERT_TRUE(tick.flushed);
        EXPECT_EQ(tick.joined, (std::vector<UserId>{300, 301}));
      },
      "fb61c3b0202cf49c28d22938ca41a0b0eb4f4ca31525fc895402772857aec676");
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
      server::GroupKeyServer server({base, shards}, transport);
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
  Member(server::GroupKeyServer& server,
         transport::InProcNetwork& network, UserId user)
      : network_(network), user_(user) {
    client::ClientConfig config;
    config.user = user;
    config.suite = server.config().suite;
    config.group = server.config().group;
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
    server::GroupKeyServer& server,
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
  server::GroupKeyServer server(sharded_config(4, &now), network);
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
  server::GroupKeyServer server(
      config, wire, server::AccessControl::allow_list({1, 2, 3}));
  EXPECT_EQ(server.join(1), server::JoinResult::kGranted);
  EXPECT_EQ(server.join(1), server::JoinResult::kDuplicate);
  EXPECT_EQ(server.join(9), server::JoinResult::kDenied);
  EXPECT_EQ(server.epoch(), 1u);
  EXPECT_THROW(server.leave(42), ProtocolError);
}

// A batch that admits and removes nobody uses up no epoch: no mutation,
// no datagram, no op record, so no member sees a gap at the next epoch.
TEST(ShardedServer, NoOpBatchAdvancesNothing) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(::testing::Message() << "K=" << shards);
    std::uint64_t now = 1'000'000;
    transport::InProcNetwork network;
    server::GroupKeyServer server(sharded_config(shards, &now),
                                         network);
    std::map<UserId, std::unique_ptr<Member>> members;
    for (UserId user = 1; user <= 8; ++user) {
      members.emplace(user, std::make_unique<Member>(server, network, user));
      server.join(user);
    }
    const std::uint64_t epoch = server.epoch();
    const std::size_t records = server.stats().size();
    network.reset_counters();
    EXPECT_TRUE(server.batch({}, {}).empty());
    EXPECT_TRUE(server.batch({3}, {}).empty());  // duplicate joiner only
    EXPECT_EQ(server.epoch(), epoch);
    EXPECT_EQ(server.stats().size(), records);
    EXPECT_EQ(network.deliveries(), 0u);

    members.emplace(9, std::make_unique<Member>(server, network, 9));
    ASSERT_EQ(server.join(9), server::JoinResult::kGranted);
    EXPECT_EQ(server.epoch(), epoch + 1);
    expect_converged(server, members);
    for (const auto& [user, member] : members) {
      EXPECT_EQ((*member)->recovery_stats().gaps, 0u) << "user " << user;
    }
  }
}

// A planned epoch that is dropped before dispatch, or whose seal throws,
// gives its dispatch slot back: the next operation still goes out.
TEST(ShardedServer, DroppedPlanDoesNotBlockLaterEpochs) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(::testing::Message() << "K=" << shards);
    std::uint64_t now = 1'000'000;
    RecordingTransport wire;
    server::GroupKeyServer server(sharded_config(shards, &now), wire);
    for (UserId user = 1; user <= 4; ++user) server.join(user);
    {
      server::GroupKeyServer::PendingRekey dropped;
      ASSERT_EQ(server.plan_join(10, dropped), server::JoinResult::kGranted);
    }
    {
      server::GroupKeyServer::PendingRekey failing;
      ASSERT_EQ(server.plan_join(11, failing), server::JoinResult::kGranted);
      failing.plan.ops.front().wrap.version += 1000;  // no such key
      EXPECT_THROW(server.seal(failing), Error);
    }
    const std::size_t sent = wire.sent().size();
    ASSERT_EQ(server.join(12), server::JoinResult::kGranted);
    EXPECT_GT(wire.sent().size(), sent);
    EXPECT_EQ(server.epoch(), 7u);
    server.leave(2);
    EXPECT_EQ(server.epoch(), 8u);
  }
}

// --- Recovery across shards -------------------------------------------

TEST(ShardedServer, NackReplayCoversCrossShardBroadcasts) {
  std::uint64_t now = 1'000'000;
  transport::InProcNetwork network;
  server::GroupKeyServer server(sharded_config(4, &now), network);

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
  server::GroupKeyServer server(config, network);

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
  server::GroupKeyServer server(sharded_config(2, &now), network);
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
  server::GroupKeyServer server(sharded_config(4, &now), wire);
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
  server::GroupKeyServer server(config, wire);

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
  server::GroupKeyServer server(sharded_config(4, &now), wire);
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
