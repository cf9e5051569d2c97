// Authentication and opening of rekey messages.
//
// RekeySealer holds the server's authentication policy for the messages of
// one operation (none, digest, one signature per message, or the Section 4
// batch signature) and builds each message's wire envelope; the
// RekeyExecutor (rekey/executor.h) drives it and is the only path that
// turns a plan into wire bytes. RekeyOpener is the client side: parse,
// verify, expose body.
#pragma once

#include "crypto/rsa.h"
#include "crypto/suite.h"
#include "merkle/batch_signer.h"
#include "rekey/message.h"

namespace keygraphs::rekey {

/// How the server authenticates outgoing rekey messages.
enum class SigningMode : std::uint8_t {
  kNone = 0,        // encryption only (paper Figure 10/11 left-hand side)
  kDigestOnly = 1,  // MD5 integrity check, no signature
  kPerMessage = 2,  // Table 4 "one signature per rekey msg"
  kBatch = 3,       // Table 4 "one signature for all rekey msgs" (Sec. 4)
};

std::string signing_mode_name(SigningMode mode);

/// Applies a signing policy to the rekey messages of one operation.
class RekeySealer {
 public:
  /// `signer` may be null only for kNone/kDigestOnly modes.
  RekeySealer(SigningMode mode, crypto::DigestAlgorithm digest,
              const crypto::RsaPrivateKey* signer);

  /// Number of RSA signature operations sealing `n` messages takes.
  [[nodiscard]] std::size_t signatures_for(std::size_t n) const;

  [[nodiscard]] SigningMode mode() const noexcept { return mode_; }
  [[nodiscard]] crypto::DigestAlgorithm digest() const noexcept {
    return digest_;
  }

  /// Batch-signature items for pre-hashed message digests (kBatch mode
  /// only; throws otherwise). The RekeyExecutor computes the leaf digests
  /// in parallel and funnels them through here for the single root
  /// signature.
  [[nodiscard]] std::vector<merkle::BatchSignatureItem>
  batch_items_from_leaves(std::vector<Bytes> leaves) const;

  /// One message's wire envelope: length-prefixed body plus the auth
  /// section for this sealer's mode. `batch_item` must be non-null exactly
  /// when mode() == kBatch. Digest/signature work inside charges the sign
  /// stage; the assembly around it is the caller's to attribute.
  [[nodiscard]] Bytes envelope(
      const Bytes& body, const merkle::BatchSignatureItem* batch_item) const;

 private:
  SigningMode mode_;
  crypto::DigestAlgorithm digest_;
  const crypto::RsaPrivateKey* signer_;
};

/// A parsed-and-checked incoming rekey message.
struct OpenedRekey {
  RekeyMessage message;
  AuthKind auth = AuthKind::kNone;
  bool verified = false;  // digest/signature checked (kNone counts as true)
  std::size_t wire_size = 0;
};

/// Client-side envelope parser/verifier.
class RekeyOpener {
 public:
  /// `server_key` may be null: signed messages then parse but verify=false.
  explicit RekeyOpener(const crypto::RsaPublicKey* server_key);

  /// Parses the envelope. If `verify` is set, checks the digest/signature;
  /// otherwise only parses (the client-simulator benches skip verification
  /// the way the paper excludes client auth costs from server timings).
  [[nodiscard]] OpenedRekey open(BytesView wire, bool verify) const;

 private:
  const crypto::RsaPublicKey* server_key_;
};

}  // namespace keygraphs::rekey
