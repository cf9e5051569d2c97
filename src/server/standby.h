// Hot-standby failover (the replicated-server sketch of paper Section 6,
// realized over the PR's write-ahead journal).
//
// A StandbyServer wraps a fully constructed — but not yet serving —
// GroupKeyServer that tails the primary's journal:
//
//   poll()    pulls newly durable records (and, after a compaction, the
//             fresh snapshot) from the shared storage backend and replays
//             them through the real plan/seal pipeline with the journaled
//             rng tapes injected. The standby's tree, epoch, and even its
//             retransmit window converge to byte-identical copies of the
//             primary's — without a single datagram leaving its transport.
//   promote() final catch-up, truncates the dead primary's torn tail (if
//             any), re-anchors the convergence monitor, and hands back the
//             inner server ready to serve joins/leaves/NACKs immediately.
//
// Sharing the journal: tests hand both servers one make_memory_backend()
// instance via StorageConfig::backend; across processes, both point
// `journal_dir` at the same directory (file backend) — the standby only
// ever reads until promotion.
//
// Caveat: replay reproduces signed bytes only when the replica owns the
// same RSA signer (same rng_seed), because the signing key is drawn at
// construction, outside any journaled operation. Unsigned groups replicate
// byte-identically regardless of seed.
#pragma once

#include <cstddef>

#include "server/server.h"
#include "storage/durable.h"

namespace keygraphs::server {

class StandbyServer {
 public:
  /// `config.storage` must be enabled (it locates the primary's journal).
  /// Construction is cheap; the first poll() does the initial catch-up.
  /// Throws StorageError when storage is not configured.
  StandbyServer(ServerConfig config, transport::ServerTransport& transport,
                AccessControl acl = AccessControl::allow_all());

  /// Applies every operation that became durable since the last poll.
  /// Returns the number of records applied. Safe to call at any cadence;
  /// each call leaves the standby at a consistent epoch. Throws storage
  /// errors (corrupt journal, replay divergence) — a standby that throws
  /// is out of the failover pool.
  std::size_t poll();

  /// Final catch-up and takeover. After this the inner server serves
  /// traffic (and journals to the same backend, continuing the sequence);
  /// poll() becomes a no-op. Idempotent.
  GroupKeyServer& promote();

  [[nodiscard]] GroupKeyServer& server() noexcept { return server_; }
  [[nodiscard]] const GroupKeyServer& server() const noexcept {
    return server_;
  }
  /// Epoch the standby has converged to so far.
  [[nodiscard]] std::uint64_t epoch() const noexcept {
    return server_.epoch();
  }
  [[nodiscard]] bool promoted() const noexcept { return promoted_; }

 private:
  GroupKeyServer server_;
  storage::Cursor cursor_;
  storage::RecoveryOptions options_;
  bool promoted_ = false;
};

}  // namespace keygraphs::server
