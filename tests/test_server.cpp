// GroupKeyServer: protocol behaviour (grant/deny/duplicate), ACL, token
// authentication, epoch progression, stats recording, resolver semantics
// (including the fan-out each dispatched datagram resolves to), and the
// star baseline configuration.
#include "server/server.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.h"
#include "fanout_check.h"
#include "transport/transport.h"

namespace keygraphs::server {
namespace {

ServerConfig plain_config(rekey::StrategyKind strategy =
                              rekey::StrategyKind::kGroupOriented) {
  ServerConfig config;
  config.strategy = strategy;
  config.rng_seed = 11;
  return config;
}

TEST(Server, JoinGrantDuplicateDeny) {
  transport::NullTransport transport;
  GroupKeyServer server(plain_config(), transport,
                        AccessControl::allow_list({1, 2}));
  EXPECT_EQ(server.join(1), JoinResult::kGranted);
  EXPECT_EQ(server.join(1), JoinResult::kDuplicate);
  EXPECT_EQ(server.join(3), JoinResult::kDenied);
  EXPECT_EQ(server.tree().user_count(), 1u);
}

TEST(Server, AccessControlGrantRevoke) {
  AccessControl acl = AccessControl::allow_list({});
  EXPECT_FALSE(acl.authorizes(5));
  acl.grant(5);
  EXPECT_TRUE(acl.authorizes(5));
  acl.revoke(5);
  EXPECT_FALSE(acl.authorizes(5));
  EXPECT_TRUE(AccessControl::allow_all().authorizes(12345));
}

TEST(Server, LeaveUnknownThrows) {
  transport::NullTransport transport;
  GroupKeyServer server(plain_config(), transport);
  EXPECT_THROW(server.leave(9), ProtocolError);
}

TEST(Server, JoinLeaveLifecycle) {
  transport::NullTransport transport;
  GroupKeyServer server(plain_config(), transport);
  for (UserId user = 1; user <= 10; ++user) {
    EXPECT_EQ(server.join(user), JoinResult::kGranted);
  }
  const SymmetricKey before = server.tree().group_key();
  server.leave(5);
  EXPECT_FALSE(server.tree().has_user(5));
  EXPECT_NE(server.tree().group_key().secret, before.secret);
  server.tree().check_invariants();
}

TEST(Server, EpochIncrementsPerOperation) {
  transport::NullTransport transport;
  GroupKeyServer server(plain_config(), transport);
  EXPECT_EQ(server.epoch(), 0u);
  server.join(1);
  server.join(2);
  server.leave(1);
  EXPECT_EQ(server.epoch(), 3u);
}

TEST(Server, TokenAuthentication) {
  transport::NullTransport transport;
  GroupKeyServer server(plain_config(), transport);
  const AuthService& auth = server.auth();

  EXPECT_EQ(server.join_with_token(7, auth.join_token(7)),
            JoinResult::kGranted);
  EXPECT_EQ(server.join_with_token(8, auth.join_token(9)),
            JoinResult::kDenied);  // token for the wrong user
  EXPECT_EQ(server.join_with_token(8, bytes_of("forged")),
            JoinResult::kDenied);

  EXPECT_FALSE(server.leave_with_token(7, bytes_of("forged")));
  EXPECT_TRUE(server.tree().has_user(7));
  EXPECT_TRUE(server.leave_with_token(7, auth.leave_token(7)));
  EXPECT_FALSE(server.tree().has_user(7));
  // Leaving again fails cleanly (not a member).
  EXPECT_FALSE(server.leave_with_token(7, auth.leave_token(7)));
}

TEST(Server, AuthServiceDerivesStableKeys) {
  const AuthService auth(bytes_of("master"));
  EXPECT_EQ(auth.individual_key(1, 8), auth.individual_key(1, 8));
  EXPECT_NE(auth.individual_key(1, 8), auth.individual_key(2, 8));
  EXPECT_EQ(auth.individual_key(1, 8).size(), 8u);
  EXPECT_EQ(auth.individual_key(1, 16).size(), 16u);
  EXPECT_EQ(auth.individual_key(1, 100).size(), 100u);  // expansion path
  EXPECT_TRUE(auth.verify_join_token(3, auth.join_token(3)));
  EXPECT_FALSE(auth.verify_join_token(3, auth.leave_token(3)));
}

TEST(Server, StatsRecordedPerOperation) {
  transport::NullTransport transport;
  GroupKeyServer server(plain_config(), transport);
  for (UserId user = 1; user <= 8; ++user) server.join(user);
  server.leave(3);
  server.leave(4);
  EXPECT_EQ(server.stats().size(), 10u);
  const Summary joins = server.stats().summarize(rekey::RekeyKind::kJoin);
  const Summary leaves = server.stats().summarize(rekey::RekeyKind::kLeave);
  EXPECT_EQ(joins.operations, 8u);
  EXPECT_EQ(leaves.operations, 2u);
  EXPECT_GT(joins.avg_message_bytes, 0.0);
  EXPECT_GT(leaves.avg_encryptions, 0.0);
  EXPECT_GE(joins.max_message_bytes, joins.min_message_bytes);
  server.stats().reset();
  EXPECT_EQ(server.stats().size(), 0u);
}

TEST(Server, TransportSeesDatagrams) {
  transport::NullTransport transport;
  GroupKeyServer server(plain_config(), transport);
  server.join(1);
  EXPECT_EQ(transport.datagrams(), 1u);  // welcome only (no other members)
  server.join(2);
  // Broadcast + welcome.
  EXPECT_EQ(transport.datagrams(), 3u);
  EXPECT_GT(transport.bytes(), 0u);
}

TEST(Server, ResolveSubgroupDifference) {
  transport::NullTransport transport;
  GroupKeyServer server(plain_config(), transport);
  for (UserId user = 1; user <= 9; ++user) server.join(user);
  const std::vector<UserId> everyone =
      server.resolve_subgroup(server.root_id(), std::nullopt);
  EXPECT_EQ(everyone.size(), 9u);
  const std::vector<UserId> all_but_3 = server.resolve_subgroup(
      server.root_id(), individual_key_id(3));
  EXPECT_EQ(all_but_3.size(), 8u);
  EXPECT_TRUE(std::find(all_but_3.begin(), all_but_3.end(), 3) ==
              all_but_3.end());
  // Vanished k-nodes resolve to empty, not an error.
  EXPECT_TRUE(server.resolve_subgroup(999999, std::nullopt).empty());
  EXPECT_EQ(server.resolve_subgroup(server.root_id(), 999999).size(), 9u);
}

TEST(Server, DispatchFansEachSubgroupOutToItsUserset) {
  for (const rekey::StrategyKind strategy :
       {rekey::StrategyKind::kUserOriented, rekey::StrategyKind::kKeyOriented,
        rekey::StrategyKind::kGroupOriented, rekey::StrategyKind::kHybrid}) {
    SCOPED_TRACE(static_cast<int>(strategy));
    fanout::ResolvingTransport transport;
    GroupKeyServer server(plain_config(strategy), transport);
    fanout::Counts total;
    // Dispatch resolves on the plan-time view, which stays current until
    // the next operation.
    const auto check = [&] {
      const fanout::Counts counts = fanout::expect_exact(
          transport.take(), [&](KeyId include, std::optional<KeyId> exclude) {
            return server.resolve_subgroup(include, exclude);
          });
      total.subgroups += counts.subgroups;
      total.excludes += counts.excludes;
    };
    for (UserId user = 1; user <= 24; ++user) {
      server.join(user);
      check();
    }
    for (const UserId user : {5, 12, 1, 24, 17}) {
      server.leave(user);
      check();
    }
    server.batch({100, 101, 102}, {3, 9});
    check();
    EXPECT_GT(total.subgroups, 0u);
    if (strategy == rekey::StrategyKind::kUserOriented ||
        strategy == rekey::StrategyKind::kKeyOriented) {
      EXPECT_GT(total.excludes, 0u);
    }
  }
}

TEST(Server, SigningModesRequireSuite) {
  transport::NullTransport transport;
  ServerConfig config = plain_config();
  config.signing = rekey::SigningMode::kBatch;  // but suite has no RSA
  EXPECT_THROW(GroupKeyServer(config, transport), ProtocolError);
}

TEST(Server, SignedServerExposesPublicKey) {
  transport::NullTransport transport;
  ServerConfig config = plain_config();
  config.suite = crypto::CryptoSuite::paper_signed();
  config.signing = rekey::SigningMode::kBatch;
  GroupKeyServer server(config, transport);
  ASSERT_NE(server.public_key(), nullptr);
  server.join(1);
  server.join(2);
  const Summary all = server.stats().summarize_all();
  EXPECT_GT(all.avg_signatures, 0.0);
}

TEST(Server, UnsignedServerHasNoPublicKey) {
  transport::NullTransport transport;
  GroupKeyServer server(plain_config(), transport);
  EXPECT_EQ(server.public_key(), nullptr);
}

TEST(Server, StarConfigurationScalesLeaveCostLinearly) {
  transport::NullTransport transport;
  ServerConfig config = ServerConfig::star(plain_config(
      rekey::StrategyKind::kKeyOriented));
  GroupKeyServer server(config, transport);
  for (UserId user = 1; user <= 32; ++user) server.join(user);
  server.stats().reset();
  server.leave(32);
  // Star leave: n - 1 = 31 encryptions (Table 2(c)).
  EXPECT_EQ(server.stats().records()[0].key_encryptions, 31u);
}

TEST(Server, ReproducibleWithSameSeed) {
  auto run = [] {
    transport::NullTransport transport;
    GroupKeyServer server(plain_config(), transport);
    for (UserId user = 1; user <= 6; ++user) server.join(user);
    return server.tree().group_key().secret;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace keygraphs::server
