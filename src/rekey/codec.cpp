#include "rekey/codec.h"

#include "common/error.h"
#include "common/io.h"
#include "merkle/batch_signer.h"
#include "telemetry/stage.h"

namespace keygraphs::rekey {

std::string signing_mode_name(SigningMode mode) {
  switch (mode) {
    case SigningMode::kNone:
      return "none";
    case SigningMode::kDigestOnly:
      return "digest";
    case SigningMode::kPerMessage:
      return "per-message signature";
    case SigningMode::kBatch:
      return "batch signature";
  }
  return "?";
}

RekeySealer::RekeySealer(SigningMode mode, crypto::DigestAlgorithm digest,
                         const crypto::RsaPrivateKey* signer)
    : mode_(mode), digest_(digest), signer_(signer) {
  if ((mode == SigningMode::kPerMessage || mode == SigningMode::kBatch) &&
      signer == nullptr) {
    throw CryptoError("RekeySealer: signing mode requires a private key");
  }
  if (mode != SigningMode::kNone && digest == crypto::DigestAlgorithm::kNone) {
    throw CryptoError("RekeySealer: digest algorithm required");
  }
}

std::size_t RekeySealer::signatures_for(std::size_t n) const {
  switch (mode_) {
    case SigningMode::kPerMessage:
      return n;
    case SigningMode::kBatch:
      return n == 0 ? 0 : 1;
    default:
      return 0;
  }
}

std::vector<merkle::BatchSignatureItem> RekeySealer::batch_items_from_leaves(
    std::vector<Bytes> leaves) const {
  if (mode_ != SigningMode::kBatch) {
    throw CryptoError("RekeySealer: batch items requested outside kBatch");
  }
  return merkle::batch_sign_leaves(*signer_, digest_, std::move(leaves));
}

Bytes RekeySealer::envelope(
    const Bytes& body, const merkle::BatchSignatureItem* batch_item) const {
  using telemetry::Stage;
  using telemetry::StageScope;

  ByteWriter writer;
  writer.var_bytes(body);
  switch (mode_) {
    case SigningMode::kNone:
      writer.u8(static_cast<std::uint8_t>(AuthKind::kNone));
      break;
    case SigningMode::kDigestOnly: {
      writer.u8(static_cast<std::uint8_t>(AuthKind::kDigest));
      writer.u8(static_cast<std::uint8_t>(digest_));
      Bytes digest;
      {
        const StageScope scope(Stage::kSign);
        digest = crypto::digest_of(digest_, body);
      }
      writer.var_bytes(digest);
      break;
    }
    case SigningMode::kPerMessage: {
      writer.u8(static_cast<std::uint8_t>(AuthKind::kSignature));
      writer.u8(static_cast<std::uint8_t>(digest_));
      Bytes signature;
      {
        const StageScope scope(Stage::kSign);
        signature = signer_->sign(digest_, body);
      }
      writer.var_bytes(signature);
      break;
    }
    case SigningMode::kBatch:
      if (batch_item == nullptr) {
        throw CryptoError("RekeySealer: kBatch envelope needs a batch item");
      }
      writer.u8(static_cast<std::uint8_t>(AuthKind::kBatchSignature));
      writer.u8(static_cast<std::uint8_t>(digest_));
      writer.var_bytes(batch_item->signature);
      writer.var_bytes(batch_item->path.serialize());
      break;
  }
  return writer.take();
}

RekeyOpener::RekeyOpener(const crypto::RsaPublicKey* server_key)
    : server_key_(server_key) {}

OpenedRekey RekeyOpener::open(BytesView wire, bool verify) const {
  ByteReader reader(wire);
  const Bytes body = reader.var_bytes();

  OpenedRekey opened;
  opened.wire_size = wire.size();
  opened.auth = static_cast<AuthKind>(reader.u8());
  switch (opened.auth) {
    case AuthKind::kNone:
      reader.expect_done();
      opened.verified = true;
      break;
    case AuthKind::kDigest: {
      const auto algorithm = static_cast<crypto::DigestAlgorithm>(reader.u8());
      const Bytes digest = reader.var_bytes();
      reader.expect_done();
      opened.verified =
          !verify ||
          constant_time_equal(crypto::digest_of(algorithm, body), digest);
      break;
    }
    case AuthKind::kSignature: {
      const auto algorithm = static_cast<crypto::DigestAlgorithm>(reader.u8());
      const Bytes signature = reader.var_bytes();
      reader.expect_done();
      opened.verified = !verify || (server_key_ != nullptr &&
                                    server_key_->verify(algorithm, body,
                                                        signature));
      break;
    }
    case AuthKind::kBatchSignature: {
      const auto algorithm = static_cast<crypto::DigestAlgorithm>(reader.u8());
      merkle::BatchSignatureItem item;
      item.signature = reader.var_bytes();
      item.path = merkle::AuthPath::deserialize(reader.var_bytes());
      reader.expect_done();
      opened.verified =
          !verify || (server_key_ != nullptr &&
                      merkle::batch_verify(*server_key_, algorithm, body,
                                           item));
      break;
    }
    default:
      throw ParseError("rekey envelope: bad auth kind");
  }
  opened.message = RekeyMessage::parse_body(body);
  return opened;
}

}  // namespace keygraphs::rekey
