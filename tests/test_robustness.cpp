// Adversarial-input robustness: every network-facing parser must reject
// malformed input with ParseError — never crash, hang, or over-read — and
// a verifying client must never change state on corrupted messages.
#include <gtest/gtest.h>

#include "client/client.h"
#include "common/error.h"
#include "common/io.h"
#include "merkle/digest_tree.h"
#include "rekey/codec.h"
#include "rekey_plans.h"

namespace keygraphs {
namespace {

crypto::SecureRandom& rng() {
  static crypto::SecureRandom instance(31337);
  return instance;
}

Bytes sealed_sample(rekey::SigningMode mode,
                    const crypto::RsaPrivateKey* signer) {
  rekey::RekeyMessage message;
  message.epoch = 3;
  message.kind = rekey::RekeyKind::kLeave;
  message.obsolete = {42};
  const SymmetricKey wrap{7, 1, rng().bytes(8)};
  const SymmetricKey target{1, 2, rng().bytes(8)};
  const rekey::RekeySealer sealer(
      mode,
      mode == rekey::SigningMode::kNone ? crypto::DigestAlgorithm::kNone
                                        : crypto::DigestAlgorithm::kMd5,
      signer);
  return rekey_plans::seal_one({message, {{wrap, {target}}}}, rng(), sealer);
}

TEST(Robustness, RandomBytesNeverCrashParsers) {
  const rekey::RekeyOpener opener(nullptr);
  for (int trial = 0; trial < 500; ++trial) {
    const Bytes junk = rng().bytes(rng().uniform(200));
    EXPECT_THROW(
        {
          try {
            (void)opener.open(junk, true);
          } catch (const ParseError&) {
            throw;
          } catch (const Error&) {
            throw ParseError("other library error is acceptable too");
          }
        },
        ParseError)
        << "trial " << trial;
    try {
      (void)rekey::Datagram::decode(junk);
    } catch (const ParseError&) {
    }
    try {
      (void)rekey::RekeyMessage::parse_body(junk);
    } catch (const ParseError&) {
    }
    try {
      (void)merkle::AuthPath::deserialize(junk);
    } catch (const ParseError&) {
    }
  }
}

TEST(Robustness, TruncationsOfValidMessagesAreRejectedCleanly) {
  const Bytes wire = sealed_sample(rekey::SigningMode::kNone, nullptr);
  const rekey::RekeyOpener opener(nullptr);
  for (std::size_t len = 0; len < wire.size(); ++len) {
    EXPECT_THROW((void)opener.open(BytesView(wire.data(), len), true),
                 ParseError)
        << "prefix " << len;
  }
}

TEST(Robustness, RandomBitflipsNeverCrashOpener) {
  crypto::SecureRandom key_rng(5);
  const auto signer = crypto::RsaPrivateKey::generate(key_rng, 512);
  for (rekey::SigningMode mode :
       {rekey::SigningMode::kNone, rekey::SigningMode::kDigestOnly,
        rekey::SigningMode::kPerMessage, rekey::SigningMode::kBatch}) {
    const Bytes wire = sealed_sample(mode, &signer);
    const rekey::RekeyOpener opener(&signer.public_key());
    for (int trial = 0; trial < 200; ++trial) {
      Bytes mutated = wire;
      const std::size_t flips = 1 + rng().uniform(4);
      for (std::size_t f = 0; f < flips; ++f) {
        mutated[rng().uniform(mutated.size())] ^=
            static_cast<std::uint8_t>(1 << rng().uniform(8));
      }
      try {
        const rekey::OpenedRekey opened = opener.open(mutated, true);
        // If it parsed, any body mutation must have been caught by the
        // authentication check (or the flip only touched the auth section,
        // in which case verification also fails, or nothing material).
        (void)opened;
      } catch (const Error&) {
        // Clean rejection is fine.
      }
    }
  }
}

TEST(Robustness, VerifyingClientStateUnchangedByCorruptedMessages) {
  crypto::SecureRandom key_rng(6);
  const auto signer = crypto::RsaPrivateKey::generate(key_rng, 512);

  client::ClientConfig config;
  config.user = 1;
  config.suite = crypto::CryptoSuite::paper_signed();
  config.group = 0;  // raw test messages carry the default group id 0
  config.root = 1;
  config.verify = true;
  client::GroupClient client(config, &signer.public_key());
  const SymmetricKey individual{individual_key_id(1), 1, rng().bytes(8)};
  client.install_individual_key(individual);

  // A genuine signed message the client would accept...
  rekey::RekeyMessage message;
  message.epoch = 1;
  const SymmetricKey group{1, 5, rng().bytes(8)};
  const rekey::RekeySealer sealer(rekey::SigningMode::kBatch,
                                  crypto::DigestAlgorithm::kMd5, &signer);
  const Bytes wire =
      rekey_plans::seal_one({message, {{individual, {group}}}}, rng(), sealer);

  // ...but a corrupted variant must either be rejected outright or — when
  // the flip only touches bytes outside the signed body (auth-path
  // metadata) — decode to exactly the genuine update. No mutation may ever
  // install a key that differs from what the server sent.
  for (int trial = 0; trial < 300; ++trial) {
    Bytes mutated = wire;
    mutated[rng().uniform(mutated.size())] ^=
        static_cast<std::uint8_t>(1 + rng().uniform(255));
    try {
      (void)client.handle_rekey(mutated);
    } catch (const Error&) {
    }
    if (client.group_key().has_value()) {
      EXPECT_EQ(client.group_key()->secret, group.secret)
          << "corrupted message installed a different key";
      EXPECT_EQ(client.key_count(), 2u);
    } else {
      EXPECT_EQ(client.key_count(), 1u)
          << "corrupted message changed state without installing";
    }
  }

  // The pristine message is (still) applied correctly.
  (void)client.handle_rekey(wire);
  ASSERT_TRUE(client.group_key().has_value());
  EXPECT_EQ(client.group_key()->secret, group.secret);
}

TEST(Robustness, OversizedCountsRejectedNotAllocated) {
  // A body claiming 65535 blobs but carrying none must fail on truncation,
  // not attempt a giant allocation or loop.
  ByteWriter writer;
  writer.u8(0x52);
  writer.u8(1);
  writer.u8(1);   // kind join
  writer.u8(3);   // strategy group
  writer.u32(0);  // group
  writer.u64(1);  // epoch
  writer.u64(0);  // timestamp
  writer.u16(0);  // no obsolete
  writer.u16(0xffff);  // blob count lie
  EXPECT_THROW(rekey::RekeyMessage::parse_body(writer.data()), ParseError);
}

}  // namespace
}  // namespace keygraphs
