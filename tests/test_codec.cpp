// RekeySealer / RekeyOpener: every signing mode's seal/open round trip
// through the RekeyExecutor (blobs decrypt to their targets), and tamper
// rejection per mode.
#include "rekey/codec.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "crypto/cbc.h"
#include "rekey_plans.h"

namespace keygraphs::rekey {
namespace {

using rekey_plans::Crafted;

crypto::SecureRandom& rng() {
  static crypto::SecureRandom instance(99);
  return instance;
}

const crypto::RsaPrivateKey& signer() {
  static const crypto::RsaPrivateKey key =
      crypto::RsaPrivateKey::generate(rng(), 512);
  return key;
}

SymmetricKey make_key(KeyId id, KeyVersion version) {
  return SymmetricKey{id, version, rng().bytes(8)};
}

/// Message `i` of a batch: one blob wrapping two fresh keys, with key ids
/// unique to `i` so the messages of one plan never share a key ref.
Crafted message_with_blob(KeyId i) {
  Crafted crafted;
  crafted.header.kind = RekeyKind::kJoin;
  crafted.header.strategy = StrategyKind::kGroupOriented;
  crafted.header.epoch = 5;
  crafted.wraps.push_back(
      {make_key(100 + i, 1), {make_key(200 + i, 2), make_key(300 + i, 2)}});
  return crafted;
}

std::vector<Crafted> messages_with_blobs(std::size_t n) {
  std::vector<Crafted> messages;
  for (KeyId i = 0; i < n; ++i) messages.push_back(message_with_blob(i));
  return messages;
}

/// `opened` carries exactly `crafted`: its header, and one blob per wrap
/// naming the same keys and decrypting to the targets' secrets.
void expect_opens_to(const OpenedRekey& opened, const Crafted& crafted) {
  EXPECT_EQ(opened.message.epoch, crafted.header.epoch);
  EXPECT_EQ(opened.message.kind, crafted.header.kind);
  EXPECT_EQ(opened.message.strategy, crafted.header.strategy);
  EXPECT_EQ(opened.message.obsolete, crafted.header.obsolete);
  ASSERT_EQ(opened.message.blobs.size(), crafted.wraps.size());
  for (std::size_t i = 0; i < crafted.wraps.size(); ++i) {
    const KeyBlob& blob = opened.message.blobs[i];
    const rekey_plans::Wrap& wrap = crafted.wraps[i];
    EXPECT_EQ(blob.wrap, wrap.wrapping.ref());
    Bytes secrets;
    ASSERT_EQ(blob.targets.size(), wrap.targets.size());
    for (std::size_t t = 0; t < wrap.targets.size(); ++t) {
      EXPECT_EQ(blob.targets[t], wrap.targets[t].ref());
      secrets = concat(secrets, wrap.targets[t].secret);
    }
    const crypto::CbcCipher cbc(crypto::make_cipher(
        crypto::CipherAlgorithm::kDes, wrap.wrapping.secret));
    EXPECT_EQ(cbc.decrypt(blob.ciphertext), secrets);
  }
}

TEST(RekeySealer, RequiresSignerForSigningModes) {
  EXPECT_THROW(RekeySealer(SigningMode::kPerMessage,
                           crypto::DigestAlgorithm::kMd5, nullptr),
               CryptoError);
  EXPECT_THROW(RekeySealer(SigningMode::kBatch,
                           crypto::DigestAlgorithm::kMd5, nullptr),
               CryptoError);
  EXPECT_THROW(RekeySealer(SigningMode::kDigestOnly,
                           crypto::DigestAlgorithm::kNone, nullptr),
               CryptoError);
  EXPECT_NO_THROW(RekeySealer(SigningMode::kNone,
                              crypto::DigestAlgorithm::kNone, nullptr));
}

TEST(RekeySealer, SignatureCountPerMode) {
  const RekeySealer none(SigningMode::kNone, crypto::DigestAlgorithm::kMd5,
                         nullptr);
  const RekeySealer per(SigningMode::kPerMessage,
                        crypto::DigestAlgorithm::kMd5, &signer());
  const RekeySealer batch(SigningMode::kBatch, crypto::DigestAlgorithm::kMd5,
                          &signer());
  EXPECT_EQ(none.signatures_for(7), 0u);
  EXPECT_EQ(per.signatures_for(7), 7u);
  EXPECT_EQ(batch.signatures_for(7), 1u);
  EXPECT_EQ(batch.signatures_for(0), 0u);
}

class SealOpen : public ::testing::TestWithParam<SigningMode> {
 protected:
  RekeySealer make_sealer() const {
    return RekeySealer(GetParam(), crypto::DigestAlgorithm::kMd5, &signer());
  }
};

TEST_P(SealOpen, RoundTripVerifies) {
  const std::vector<Crafted> messages = messages_with_blobs(5);
  const std::vector<Bytes> wire =
      rekey_plans::seal(messages, rng(), make_sealer());
  ASSERT_EQ(wire.size(), messages.size());

  const RekeyOpener opener(&signer().public_key());
  for (std::size_t i = 0; i < wire.size(); ++i) {
    const OpenedRekey opened = opener.open(wire[i], /*verify=*/true);
    EXPECT_TRUE(opened.verified);
    expect_opens_to(opened, messages[i]);
    EXPECT_EQ(opened.wire_size, wire[i].size());
  }
}

TEST_P(SealOpen, TamperedBodyRejectedWhenAuthenticated) {
  if (GetParam() == SigningMode::kNone) return;  // nothing to detect with
  std::vector<Bytes> wire =
      rekey_plans::seal(messages_with_blobs(2), rng(), make_sealer());
  // Flip a byte inside the body region (skip the 4-byte length prefix and
  // the first header bytes so the message still parses).
  wire[0][20] ^= 0x01;
  const RekeyOpener opener(&signer().public_key());
  const OpenedRekey opened = opener.open(wire[0], /*verify=*/true);
  EXPECT_FALSE(opened.verified);
}

TEST_P(SealOpen, VerificationSkippableForBenchmarks) {
  const Crafted message = message_with_blob(0);
  const Bytes wire = rekey_plans::seal_one(message, rng(), make_sealer());
  const RekeyOpener opener(nullptr);
  const OpenedRekey opened = opener.open(wire, /*verify=*/false);
  EXPECT_TRUE(opened.verified);  // unverified-but-accepted by request
  expect_opens_to(opened, message);
}

INSTANTIATE_TEST_SUITE_P(Modes, SealOpen,
                         ::testing::Values(SigningMode::kNone,
                                           SigningMode::kDigestOnly,
                                           SigningMode::kPerMessage,
                                           SigningMode::kBatch));

TEST(RekeyOpener, SignedMessageWithoutKeyFailsVerification) {
  const RekeySealer sealer(SigningMode::kPerMessage,
                           crypto::DigestAlgorithm::kMd5, &signer());
  const Bytes wire = rekey_plans::seal_one(message_with_blob(0), rng(), sealer);
  const RekeyOpener opener(nullptr);  // client has no server key
  EXPECT_FALSE(opener.open(wire, /*verify=*/true).verified);
}

TEST(RekeyOpener, BatchModeAddsBoundedOverhead) {
  // Table 4: the Merkle path adds ~50-70 bytes per message at n=8192; here
  // just check the overhead of batch vs per-message is the path size, not
  // an extra signature.
  const std::vector<Crafted> messages = messages_with_blobs(8);
  const RekeySealer per(SigningMode::kPerMessage,
                        crypto::DigestAlgorithm::kMd5, &signer());
  const RekeySealer batch(SigningMode::kBatch, crypto::DigestAlgorithm::kMd5,
                          &signer());
  const std::size_t per_size =
      rekey_plans::seal(messages, rng(), per)[0].size();
  const std::size_t batch_size =
      rekey_plans::seal(messages, rng(), batch)[0].size();
  EXPECT_GT(batch_size, per_size);
  EXPECT_LT(batch_size, per_size + 100);
}

TEST(RekeyOpener, GarbageRejected) {
  const RekeyOpener opener(nullptr);
  EXPECT_THROW(opener.open(bytes_of("not a rekey message"), true),
               ParseError);
  EXPECT_THROW(opener.open(Bytes{}, true), ParseError);
}

}  // namespace
}  // namespace keygraphs::rekey
