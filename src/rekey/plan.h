// The intermediate representation between the rekey pipeline's phases.
//
// The plan phase (strategy code, running under the server lock) encrypts
// nothing: it emits symbolic WrapOps — "targets' secrets under this
// wrapping key" — plus the messages that reference them by index, and
// snapshots every key secret an op needs. The seal phase (RekeyExecutor,
// the only path from a plan to wire bytes) later resolves the ops against
// that immutable snapshot on any number of worker threads. Because ops
// carry a pre-drawn IV, sealing is fully deterministic and workers never
// touch the (single-threaded) SecureRandom.
//
// A plan is also where the paper's Section 3 results are read off:
// `key_encryptions` is the Section 3.5 cost, `messages[i].to` the
// recipients, and `ops[j].wrap`/`targets` each blob's keys. Blob sharing is
// first-class: a message lists op *indices*, so the key-oriented leave
// chain of Figure 8 (each link encrypted once, reused in every message
// below it) is one op referenced by many messages, and the paper's
// encryption counts stay exact.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "crypto/block_cipher.h"
#include "crypto/random.h"
#include "keygraph/tree_view.h"
#include "rekey/message.h"

namespace keygraphs::rekey {

/// One deferred key encryption: the concatenated secrets of `targets`
/// CBC-encrypted under `wrap` with the pre-drawn `iv`.
struct WrapOp {
  KeyRef wrap;
  std::vector<KeyRef> targets;
  Bytes iv;  // exactly one cipher block, drawn in the plan phase
};

/// Immutable (id, version) -> secret resolver taken while planning. Old and
/// new generations of the same node coexist (a join wraps K'_i under K_i).
///
/// When bound to a TreeView, current-generation keys resolve straight from
/// the view's pooled secret buffer — holding the view's refcount instead of
/// copying key material. Only keys the view cannot answer (old generations,
/// keys of deleted nodes) land in the overlay map. Unbound snapshots (plans
/// made without a view, as the tests and benches make them) copy
/// everything. Overlay secrets are wiped on destruction; view secrets are
/// wiped by the view's destructor.
class KeySnapshot {
 public:
  KeySnapshot() = default;
  ~KeySnapshot();
  KeySnapshot(KeySnapshot&&) noexcept = default;
  KeySnapshot& operator=(KeySnapshot&&) noexcept = default;
  KeySnapshot(const KeySnapshot&) = default;
  KeySnapshot& operator=(const KeySnapshot&) = default;

  /// Resolve current-generation refs through `view` from now on. Keys
  /// already in the overlay stay there.
  void bind(TreeViewPtr view);

  void add(const SymmetricKey& key);
  /// Throws Error for a ref that was never snapshotted. The returned view
  /// stays valid for the snapshot's lifetime.
  [[nodiscard]] BytesView secret(const KeyRef& ref) const;
  /// Overlay entries only (excludes keys resolved through the view).
  [[nodiscard]] std::size_t size() const noexcept { return secrets_.size(); }

 private:
  TreeViewPtr view_;
  std::unordered_map<KeyRef, Bytes> secrets_;
};

/// One planned rekey message: destination, header (kind/strategy from the
/// strategy; group/epoch/timestamp/obsolete stamped by the server) and the
/// plan ops whose blobs it carries, in wire order. `header.blobs` stays
/// empty until the seal phase fills it.
struct PlannedRekey {
  Recipient to;
  RekeyMessage header;
  std::vector<std::uint32_t> ops;
};

/// Everything the seal phase needs, detached from the live tree.
struct RekeyPlan {
  std::vector<WrapOp> ops;
  KeySnapshot keys;
  std::vector<PlannedRekey> messages;
  /// Sum of targets per op — the paper's Section 3.5 server-cost unit,
  /// counted at plan time so OpRecords do not wait for the seal.
  std::size_t key_encryptions = 0;
};

/// The strategies' planning interface: records ops instead of encrypting.
/// Draws each op's IV from `rng` immediately, in wrap-call order, so the
/// RNG stream (and with it every wire byte) depends only on the plan, and
/// the seal phase needs no randomness at all.
class RekeyPlanner {
 public:
  RekeyPlanner(crypto::CipherAlgorithm cipher, crypto::SecureRandom& rng);

  /// Binds the plan's snapshot to `view`: wrap() calls skip copying any
  /// secret the view can resolve. The server path passes the tree view the
  /// plan was computed against.
  RekeyPlanner(crypto::CipherAlgorithm cipher, crypto::SecureRandom& rng,
               TreeViewPtr view);

  /// Registers one wrap op and returns its index for message references.
  /// Counts targets.size() key encryptions (a combined user-oriented blob
  /// of i keys costs i). Throws on an empty target list.
  [[nodiscard]] std::uint32_t wrap(const SymmetricKey& wrapping,
                                   std::span<const SymmetricKey> targets);

  [[nodiscard]] std::size_t key_encryptions() const noexcept {
    return key_encryptions_;
  }

  /// Finalizes the plan around the given messages. The planner is spent
  /// afterwards.
  [[nodiscard]] RekeyPlan take(std::vector<PlannedRekey> messages);

 private:
  std::size_t block_size_;
  crypto::SecureRandom& rng_;
  RekeyPlan plan_;
  std::size_t key_encryptions_ = 0;
};

}  // namespace keygraphs::rekey
