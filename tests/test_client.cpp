// GroupClient: fixpoint decryption, replay handling, obsolete-key pruning,
// verification gating, and application-data sealing.
#include "client/client.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "rekey_plans.h"

namespace keygraphs::client {
namespace {

using rekey::RekeyMessage;
using rekey_plans::Wrap;

crypto::SecureRandom& rng() {
  static crypto::SecureRandom instance(404);
  return instance;
}

ClientConfig config_for(UserId user, KeyId root) {
  ClientConfig config;
  config.user = user;
  config.suite = crypto::CryptoSuite::paper_plain();
  config.group = 0;  // unit-test messages use the default group id 0
  config.root = root;
  config.verify = false;
  config.rng_seed = 1;
  return config;
}

SymmetricKey make_key(KeyId id, KeyVersion version) {
  return SymmetricKey{id, version, rng().bytes(8)};
}

/// `header` carrying `wraps`, sealed without authentication.
Bytes seal_plain(const RekeyMessage& header, std::vector<Wrap> wraps = {}) {
  return rekey_plans::seal_one({header, std::move(wraps)}, rng());
}

TEST(Client, InstallsAndReportsKeys) {
  GroupClient client(config_for(1, 100), nullptr);
  EXPECT_FALSE(client.group_key().has_value());
  client.install_individual_key(make_key(individual_key_id(1), 1));
  EXPECT_EQ(client.key_count(), 1u);
  EXPECT_NE(client.find_key(individual_key_id(1)), nullptr);
  EXPECT_EQ(client.find_key(12345), nullptr);
}

TEST(Client, DecryptsBlobWrappedWithHeldKey) {
  GroupClient client(config_for(1, 100), nullptr);
  const SymmetricKey individual = make_key(individual_key_id(1), 1);
  client.install_individual_key(individual);

  const SymmetricKey group = make_key(100, 5);
  RekeyMessage message;
  message.epoch = 1;

  const RekeyOutcome outcome =
      client.handle_rekey(seal_plain(message, {{individual, {group}}}));
  EXPECT_TRUE(outcome.accepted);
  EXPECT_EQ(outcome.keys_changed, 1u);
  EXPECT_EQ(outcome.keys_decrypted, 1u);
  ASSERT_TRUE(client.group_key().has_value());
  EXPECT_EQ(client.group_key()->secret, group.secret);
}

TEST(Client, IgnoresBlobsWrappedWithUnknownKeys) {
  GroupClient client(config_for(1, 100), nullptr);
  client.install_individual_key(make_key(individual_key_id(1), 1));

  const SymmetricKey stranger = make_key(77, 1);
  const SymmetricKey target = make_key(100, 1);
  RekeyMessage message;
  message.epoch = 1;

  const RekeyOutcome outcome =
      client.handle_rekey(seal_plain(message, {{stranger, {target}}}));
  EXPECT_TRUE(outcome.accepted);
  EXPECT_EQ(outcome.keys_changed, 0u);
  EXPECT_FALSE(client.group_key().has_value());
}

TEST(Client, WrongWrapVersionIsNotDecrypted) {
  GroupClient client(config_for(1, 100), nullptr);
  const SymmetricKey held = make_key(individual_key_id(1), 2);
  client.install_individual_key(held);

  SymmetricKey newer = held;
  newer.version = 3;  // message wrapped with a version the client lacks
  newer.secret = rng().bytes(8);
  const SymmetricKey target = make_key(100, 1);
  RekeyMessage message;
  message.epoch = 1;

  const Bytes wire = seal_plain(message, {{newer, {target}}});
  EXPECT_EQ(client.handle_rekey(wire).keys_changed, 0u);
}

TEST(Client, FixpointUnlocksChainedBlobs) {
  // Group-oriented leave shape: {group}_{mid}, {mid}_{individual} — the
  // blob order in the message is adversarial (group first).
  GroupClient client(config_for(1, 100), nullptr);
  const SymmetricKey individual = make_key(individual_key_id(1), 1);
  client.install_individual_key(individual);

  const SymmetricKey mid = make_key(50, 7);
  const SymmetricKey group = make_key(100, 9);
  RekeyMessage message;
  message.epoch = 1;

  const RekeyOutcome outcome = client.handle_rekey(
      seal_plain(message, {{mid, {group}}, {individual, {mid}}}));
  EXPECT_EQ(outcome.keys_changed, 2u);
  EXPECT_EQ(client.group_key()->secret, group.secret);
  EXPECT_EQ(client.find_key(50)->secret, mid.secret);
}

TEST(Client, OlderEpochIsStale) {
  GroupClient client(config_for(1, 100), nullptr);
  const SymmetricKey individual = make_key(individual_key_id(1), 1);
  client.install_individual_key(individual);

  RekeyMessage fresh;
  fresh.epoch = 10;
  const SymmetricKey group10 = make_key(100, 10);
  const Bytes fresh_wire = seal_plain(fresh, {{individual, {group10}}});
  EXPECT_TRUE(client.handle_rekey(fresh_wire).accepted);
  EXPECT_EQ(client.last_epoch(), 10u);

  RekeyMessage old;
  old.epoch = 9;
  const SymmetricKey group9 = make_key(100, 9);
  const RekeyOutcome outcome =
      client.handle_rekey(seal_plain(old, {{individual, {group9}}}));
  EXPECT_TRUE(outcome.stale);
  EXPECT_FALSE(outcome.accepted);
  EXPECT_EQ(client.group_key()->version, 10u);  // not rolled back
}

TEST(Client, SameEpochReplayIsIdempotent) {
  GroupClient client(config_for(1, 100), nullptr);
  const SymmetricKey individual = make_key(individual_key_id(1), 1);
  client.install_individual_key(individual);

  RekeyMessage message;
  message.epoch = 4;
  const SymmetricKey group = make_key(100, 4);
  const Bytes wire = seal_plain(message, {{individual, {group}}});
  EXPECT_EQ(client.handle_rekey(wire).keys_changed, 1u);
  EXPECT_EQ(client.handle_rekey(wire).keys_changed, 0u);  // same version
}

TEST(Client, ObsoleteKeysArePruned) {
  GroupClient client(config_for(1, 100), nullptr);
  client.install_individual_key(make_key(individual_key_id(1), 1));
  const SymmetricKey stale = make_key(55, 1);
  client.admit_snapshot({stale}, 0);
  EXPECT_NE(client.find_key(55), nullptr);

  RekeyMessage message;
  message.epoch = 1;
  message.obsolete = {55};
  EXPECT_TRUE(client.handle_rekey(seal_plain(message)).accepted);
  EXPECT_EQ(client.find_key(55), nullptr);
}

TEST(Client, VerificationGateRejectsUnsigned) {
  crypto::SecureRandom key_rng(5);
  const auto server_key = crypto::RsaPrivateKey::generate(key_rng, 512);
  ClientConfig config = config_for(1, 100);
  config.verify = true;
  GroupClient client(config, &server_key.public_key());
  const SymmetricKey individual = make_key(individual_key_id(1), 1);
  client.install_individual_key(individual);

  RekeyMessage message;
  message.epoch = 1;
  const SymmetricKey group = make_key(100, 1);
  const rekey_plans::Crafted crafted{message, {{individual, {group}}}};

  // Unsigned message: parses but must not be applied.
  const RekeyOutcome outcome =
      client.handle_rekey(rekey_plans::seal_one(crafted, rng()));
  EXPECT_FALSE(outcome.accepted);
  EXPECT_FALSE(client.group_key().has_value());
  EXPECT_EQ(client.totals().rejected, 1u);

  // Properly signed: applied.
  const rekey::RekeySealer sealer(rekey::SigningMode::kPerMessage,
                                  crypto::DigestAlgorithm::kMd5, &server_key);
  const Bytes signed_wire = rekey_plans::seal_one(crafted, rng(), sealer);
  EXPECT_TRUE(client.handle_rekey(signed_wire).accepted);
  EXPECT_TRUE(client.group_key().has_value());
}

TEST(Client, TotalsAccumulate) {
  GroupClient client(config_for(1, 100), nullptr);
  const SymmetricKey individual = make_key(individual_key_id(1), 1);
  client.install_individual_key(individual);
  for (std::uint64_t epoch = 1; epoch <= 3; ++epoch) {
    RekeyMessage message;
    message.epoch = epoch;
    const SymmetricKey group = make_key(100, static_cast<KeyVersion>(epoch));
    client.handle_rekey(seal_plain(message, {{individual, {group}}}));
  }
  EXPECT_EQ(client.totals().rekeys_received, 3u);
  EXPECT_EQ(client.totals().keys_changed, 3u);
  EXPECT_GT(client.totals().bytes_received, 0u);
}

TEST(Client, DatagramDispatchIgnoresNonRekey) {
  GroupClient client(config_for(1, 100), nullptr);
  const rekey::Datagram other{rekey::MessageType::kLeaveAck, {}};
  const RekeyOutcome outcome = client.handle_datagram(other.encode());
  EXPECT_FALSE(outcome.accepted);
  EXPECT_EQ(client.totals().rekeys_received, 0u);
}

TEST(Client, ApplicationDataRoundTrip) {
  GroupClient alice(config_for(1, 100), nullptr);
  GroupClient bob(config_for(2, 100), nullptr);
  const SymmetricKey group = make_key(100, 1);
  alice.admit_snapshot({group}, 1);
  bob.admit_snapshot({group}, 1);

  const Bytes sealed = alice.seal_application(bytes_of("hello group"));
  EXPECT_EQ(bob.open_application(sealed), bytes_of("hello group"));
}

TEST(Client, ApplicationDataTamperRejected) {
  GroupClient alice(config_for(1, 100), nullptr);
  const SymmetricKey group = make_key(100, 1);
  alice.admit_snapshot({group}, 1);
  Bytes sealed = alice.seal_application(bytes_of("payload"));
  sealed[sealed.size() / 2] ^= 1;
  EXPECT_THROW(alice.open_application(sealed), CryptoError);
}

TEST(Client, ApplicationDataRequiresAdmission) {
  GroupClient client(config_for(1, 100), nullptr);
  EXPECT_THROW(client.seal_application(bytes_of("x")), ProtocolError);
  EXPECT_THROW(client.open_application(Bytes(64, 0)), ProtocolError);
}

TEST(Client, NonMemberCannotOpenApplicationData) {
  GroupClient alice(config_for(1, 100), nullptr);
  GroupClient eve(config_for(3, 100), nullptr);
  alice.admit_snapshot({make_key(100, 1)}, 1);
  eve.admit_snapshot({make_key(100, 1)}, 1);  // different random secret
  const Bytes sealed = alice.seal_application(bytes_of("secret"));
  EXPECT_THROW(eve.open_application(sealed), CryptoError);
}

TEST(Client, ForgetKeysWipesState) {
  GroupClient client(config_for(1, 100), nullptr);
  client.admit_snapshot({make_key(100, 1), make_key(50, 1)}, 1);
  EXPECT_EQ(client.key_count(), 2u);
  client.forget_keys();
  EXPECT_EQ(client.key_count(), 0u);
  EXPECT_FALSE(client.group_key().has_value());
}

TEST(Client, KeyIdsSorted) {
  GroupClient client(config_for(1, 100), nullptr);
  client.admit_snapshot({make_key(30, 1), make_key(10, 1), make_key(20, 1)},
                        1);
  EXPECT_EQ(client.key_ids(), (std::vector<KeyId>{10, 20, 30}));
}

}  // namespace
}  // namespace keygraphs::client
