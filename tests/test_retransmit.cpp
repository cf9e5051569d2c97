// Server-side NACK service: the retransmit window replays sealed datagrams
// for in-window gaps, degrades to an authenticated resync beyond it, and
// the per-user token bucket caps recovery traffic — all on an injected
// clock, with no plan/seal work on the retransmit path.
#include "rekey/retransmit.h"

#include <gtest/gtest.h>

#include "client/client.h"
#include "common/error.h"
#include "server/server.h"
#include "server/sharded_server.h"
#include "transport/inproc.h"

namespace keygraphs {
namespace {

/// A member client wired to the in-proc network that applies everything
/// delivered to it (and keeps its multicast subscriptions current).
struct Member {
  Member(server::GroupKeyServer& server, transport::InProcNetwork& network,
         UserId user)
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

server::ServerConfig base_config(std::uint64_t* clock_us) {
  server::ServerConfig config;
  config.tree_degree = 3;
  config.rng_seed = 71;
  config.clock_us = [clock_us] { return *clock_us; };
  return config;
}

TEST(Retransmit, InWindowGapServedFromSealedRing) {
  std::uint64_t now = 1'000'000;
  transport::InProcNetwork network;
  server::GroupKeyServer server(base_config(&now), network);
  Member victim(server, network, 2);
  for (UserId user = 1; user <= 8; ++user) server.join(user);
  ASSERT_EQ(victim->applied_epoch(), server.epoch());

  // The victim goes deaf across two operations.
  victim.detach();
  server.leave(5);
  server.join(9);
  victim.attach();
  EXPECT_LT(victim->applied_epoch(), server.epoch());

  // NACK: both missed epochs are still in the window, so the server
  // replays the sealed datagrams unicast and the victim catches up with
  // no resync and no epoch movement on the server.
  const std::uint64_t epoch_before = server.epoch();
  const std::size_t resyncs_before =
      server.stats().summarize(rekey::RekeyKind::kResync).operations;
  EXPECT_EQ(server.handle_nack(2, victim->applied_epoch()),
            server::NackOutcome::kRetransmitted);
  EXPECT_EQ(server.epoch(), epoch_before);
  EXPECT_EQ(server.stats().summarize(rekey::RekeyKind::kResync).operations,
            resyncs_before);
  EXPECT_EQ(victim->applied_epoch(), server.epoch());
  EXPECT_EQ(victim->group_key()->secret, server.tree().group_key().secret);
}

TEST(Retransmit, NackForNothingIsACheapNoOp) {
  std::uint64_t now = 1'000'000;
  transport::InProcNetwork network;
  server::GroupKeyServer server(base_config(&now), network);
  Member member(server, network, 1);
  for (UserId user = 1; user <= 4; ++user) server.join(user);
  const std::size_t deliveries_before = network.deliveries();
  // Fully caught up: served as a retransmission of zero datagrams.
  EXPECT_EQ(server.handle_nack(1, server.epoch()),
            server::NackOutcome::kRetransmitted);
  EXPECT_EQ(network.deliveries(), deliveries_before);
}

TEST(Retransmit, OutOfWindowGapFallsBackToResync) {
  std::uint64_t now = 1'000'000;
  server::ServerConfig config = base_config(&now);
  config.retransmit_window = 2;
  transport::InProcNetwork network;
  server::GroupKeyServer server(config, network);
  Member victim(server, network, 2);
  for (UserId user = 1; user <= 4; ++user) server.join(user);

  victim.detach();
  server.leave(3);
  server.join(5);
  server.join(6);  // three missed epochs > window of 2
  victim.attach();

  EXPECT_EQ(server.handle_nack(2, victim->applied_epoch()),
            server::NackOutcome::kResynced);
  EXPECT_EQ(server.stats().summarize(rekey::RekeyKind::kResync).operations,
            1u);
  // The keyset replay jump-syncs the victim over the whole gap.
  EXPECT_EQ(victim->applied_epoch(), server.epoch());
  EXPECT_EQ(victim->group_key()->secret, server.tree().group_key().secret);
}

TEST(Retransmit, DisabledWindowAlwaysResyncs) {
  std::uint64_t now = 1'000'000;
  server::ServerConfig config = base_config(&now);
  config.retransmit_window = 0;
  transport::InProcNetwork network;
  server::GroupKeyServer server(config, network);
  Member victim(server, network, 1);
  server.join(1);
  server.join(2);
  EXPECT_FALSE(server.retransmit_window().enabled());
  EXPECT_EQ(server.handle_nack(1, server.epoch()),
            server::NackOutcome::kResynced);
}

TEST(Retransmit, RateLimiterCapsPerUserRequests) {
  std::uint64_t now = 1'000'000;
  server::ServerConfig config = base_config(&now);
  config.recovery_rate = 1.0;  // one request per second after the burst
  config.recovery_burst = 2.0;
  transport::InProcNetwork network;
  server::GroupKeyServer server(config, network);
  Member member(server, network, 1);
  server.join(1);
  server.join(2);

  EXPECT_EQ(server.handle_nack(1, server.epoch()),
            server::NackOutcome::kRetransmitted);
  EXPECT_EQ(server.handle_nack(1, server.epoch()),
            server::NackOutcome::kRetransmitted);
  // Burst spent; same instant -> dropped. Another user is unaffected.
  EXPECT_EQ(server.handle_nack(1, server.epoch()),
            server::NackOutcome::kRateLimited);
  EXPECT_EQ(server.handle_nack(2, server.epoch()),
            server::NackOutcome::kRetransmitted);
  // One second of refill buys exactly one more request.
  now += 1'000'000;
  EXPECT_EQ(server.handle_nack(1, server.epoch()),
            server::NackOutcome::kRetransmitted);
  EXPECT_EQ(server.handle_nack(1, server.epoch()),
            server::NackOutcome::kRateLimited);
}

TEST(Retransmit, WindowTracksDispatchedEpochsButNotResyncs) {
  std::uint64_t now = 1'000'000;
  server::ServerConfig config = base_config(&now);
  config.retransmit_window = 4;
  transport::NullTransport transport;
  server::GroupKeyServer server(config, transport);
  for (UserId user = 1; user <= 6; ++user) server.join(user);

  const rekey::RetransmitWindow& window = server.retransmit_window();
  EXPECT_EQ(window.capacity(), 4u);
  EXPECT_EQ(window.size(), 4u);  // six epochs recorded, oldest two evicted
  EXPECT_EQ(window.newest(), server.epoch());
  EXPECT_EQ(window.oldest(), server.epoch() - 3);

  // A resync replays the current epoch without advancing it; recording it
  // would overwrite that epoch's real datagrams in the ring.
  server.resync(3);
  EXPECT_EQ(window.newest(), server.epoch());
  EXPECT_EQ(window.size(), 4u);
}

TEST(Retransmit, NackRequiresMembershipAndToken) {
  std::uint64_t now = 1'000'000;
  transport::NullTransport transport;
  server::GroupKeyServer server(base_config(&now), transport);
  server.join(1);
  EXPECT_THROW(server.handle_nack(42, 0), ProtocolError);
  EXPECT_FALSE(
      server.nack_with_token(1, bytes_of("forged"), 0).has_value());
  EXPECT_FALSE(
      server.nack_with_token(42, server.auth().resync_token(42), 0)
          .has_value());
  EXPECT_TRUE(
      server.nack_with_token(1, server.auth().resync_token(1), server.epoch())
          .has_value());
}

// The server serves the replay half under its dispatch mutex and falls
// back through its lock-free resync path.
TEST(Retransmit, ConcurrentServerServesNacks) {
  std::uint64_t now = 1'000'000;
  server::ServerConfig config = base_config(&now);
  config.retransmit_window = 1;  // force the resync fallback on a 2-gap
  transport::InProcNetwork network;
  server::GroupKeyServer server({config, 1}, network);

  client::ClientConfig member_config;
  member_config.user = 2;
  member_config.suite = config.suite;
  member_config.root = server.root_id();
  member_config.verify = false;
  client::GroupClient victim(member_config, nullptr);
  victim.install_individual_key(SymmetricKey{
      individual_key_id(2), 1,
      server.auth().individual_key(2, config.suite.key_size())});
  network.attach_client(2, [&](BytesView datagram) {
    victim.handle_datagram(datagram);
    network.resubscribe(2, victim.key_ids());
  });

  for (UserId user = 1; user <= 4; ++user) server.join(user);
  ASSERT_EQ(victim.applied_epoch(), server.epoch());

  EXPECT_FALSE(
      server.nack_with_token(2, bytes_of("forged"), 0).has_value());

  network.detach_client(2);
  server.leave(3);
  server.join(5);
  network.attach_client(2, [&](BytesView datagram) {
    victim.handle_datagram(datagram);
    network.resubscribe(2, victim.key_ids());
  });

  const auto outcome = server.nack_with_token(
      2, server.auth().resync_token(2), victim.applied_epoch());
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(*outcome, server::NackOutcome::kResynced);
  EXPECT_EQ(victim.applied_epoch(), server.epoch());
  EXPECT_EQ(victim.group_key()->secret, server.group_key().secret);

  // Caught up again: the next NACK is served straight from the window.
  const auto cheap = server.nack_with_token(
      2, server.auth().resync_token(2), victim.applied_epoch());
  ASSERT_TRUE(cheap.has_value());
  EXPECT_EQ(*cheap, server::NackOutcome::kRetransmitted);
}

TEST(RecoveryLimiter, TokenBucketRefillsOnInjectedClock) {
  rekey::RecoveryLimiter limiter(2.0, 2.0);  // 2/s, burst 2
  EXPECT_TRUE(limiter.admit(1, 0));
  EXPECT_TRUE(limiter.admit(1, 0));
  EXPECT_FALSE(limiter.admit(1, 0));
  // 500 ms refills one token at 2/s.
  EXPECT_TRUE(limiter.admit(1, 500'000));
  EXPECT_FALSE(limiter.admit(1, 500'000));
  // Buckets are per user.
  EXPECT_TRUE(limiter.admit(2, 500'000));
  // forget() restores the full burst.
  limiter.forget(1);
  EXPECT_TRUE(limiter.admit(1, 500'000));
  EXPECT_TRUE(limiter.admit(1, 500'000));
  EXPECT_FALSE(limiter.admit(1, 500'000));
}

TEST(RecoveryLimiter, NonPositiveRateDisablesLimiting) {
  rekey::RecoveryLimiter limiter(0.0, 1.0);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(limiter.admit(7, 0));
  // A negative rate means the same thing as zero, not a NaN bucket.
  rekey::RecoveryLimiter negative(-3.0, 1.0);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(negative.admit(7, 0));
  // Zero rate admits even with a zero-capacity burst.
  rekey::RecoveryLimiter no_burst(0.0, 0.0);
  EXPECT_TRUE(no_burst.admit(7, 0));
}

TEST(RecoveryLimiter, BackwardsClockMintsNoTokens) {
  rekey::RecoveryLimiter limiter(1.0, 2.0);  // 1/s, burst 2
  EXPECT_TRUE(limiter.admit(1, 10'000'000));
  EXPECT_TRUE(limiter.admit(1, 10'000'000));
  EXPECT_FALSE(limiter.admit(1, 10'000'000));
  // The clock steps back (NTP slew, VM migration): a naive
  // now - refilled_us underflows to ~584,000 years of refill. The bucket
  // must stay empty instead.
  EXPECT_FALSE(limiter.admit(1, 9'000'000));
  EXPECT_FALSE(limiter.admit(1, 0));
  // Forward progress from the high-water mark refills normally again.
  EXPECT_TRUE(limiter.admit(1, 11'000'000));
}

TEST(RecoveryLimiter, ExactRefillBoundaryAfterBurstExhaustion) {
  rekey::RecoveryLimiter limiter(4.0, 3.0);  // 4/s, burst 3
  // Drain the whole burst in one instant.
  EXPECT_TRUE(limiter.admit(5, 1'000'000));
  EXPECT_TRUE(limiter.admit(5, 1'000'000));
  EXPECT_TRUE(limiter.admit(5, 1'000'000));
  EXPECT_FALSE(limiter.admit(5, 1'000'000));
  // One token takes exactly 250 ms at 4/s. One microsecond early: still
  // dry (a failed admit at 1.249999s advances refilled_us, so the
  // boundary probe below must cover the remaining 1 µs).
  EXPECT_FALSE(limiter.admit(5, 1'249'999));
  EXPECT_TRUE(limiter.admit(5, 1'250'000));
  EXPECT_FALSE(limiter.admit(5, 1'250'000));
  // Refill never overshoots the burst cap: after a long idle gap the
  // bucket holds exactly `burst` tokens, not rate * elapsed.
  EXPECT_TRUE(limiter.admit(5, 100'000'000));
  EXPECT_TRUE(limiter.admit(5, 100'000'000));
  EXPECT_TRUE(limiter.admit(5, 100'000'000));
  EXPECT_FALSE(limiter.admit(5, 100'000'000));
}

}  // namespace
}  // namespace keygraphs
