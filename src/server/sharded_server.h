// The sharded group key server: per-shard arenas and seal pipelines under
// a thin root layer, for groups far past one tree's mutation throughput.
//
// GroupKeyServer (server.h) serializes every membership operation on one
// key tree and one rng, on one thread. This server partitions the user
// population across K subtree shards (keygraph/sharded_tree.h):
// each shard owns its own arena-backed KeyTree, its own deterministic rng,
// its own RekeyExecutor seal lane with a private wrapping-key schedule
// cache, and its own mutex — a leaf join/leave locks exactly one shard and
// one short root-layer critical section, never a global tree lock.
//
// The thin root layer holds the only cross-shard state:
//
//   root key   — at K > 1, the group key G is a flat key wrapped under
//                every shard's subtree root. A membership change in shard
//                s refreshes G, appends one G-under-new-shard-root blob to
//                shard s's own rekey messages (clients decrypt it in the
//                same fixpoint pass), and broadcasts one tiny
//                G-under-shard-root message to each other shard. At K = 1
//                the layer vanishes: the shard root IS the group key and
//                the wire bytes are byte-identical to GroupKeyServer,
//                so K = 1 is the concurrent single-tree server: plan
//                under the lane mutex, seal unlocked, dispatch in ticket
//                order, resync lock-free on an acquired view.
//   epochs     — one global epoch counter stitches the K per-shard update
//                streams into the single total order the client recovery
//                machinery (PR 5) and fleet convergence SLOs (PR 6)
//                already consume. Epoch tickets are allocated under the
//                root mutex at plan time and dispatch is sequenced by
//                ticket, so clients see exactly one contiguous epoch
//                stream regardless of which shards produced it.
//   recovery   — one RetransmitWindow over the stitched stream. Stored
//                datagrams pin the view they were addressed against
//                (StoredDatagram::view), so NACK replay filters correctly
//                even though one epoch's datagrams span several shards.
//   journal    — with ServerConfig::storage enabled, every committed op
//                appends one record to its shard's journal lane (plus the
//                stitched root-layer rng tape) before its dispatch ticket
//                is released. There is no cross-shard snapshot: recovery
//                replays the lanes merged by global commit sequence
//                (recover_from_storage), so snapshot_interval is ignored
//                at K > 1.
//
// Locking order (inner to outer acquisitions never reverse):
//   lane mutex -> root mutex, then (all dropped) sequence mutex ->
//   dispatch mutex. Seal runs with no lock held.
#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "keygraph/sharded_tree.h"
#include "server/server.h"
#include "telemetry/metrics.h"

namespace keygraphs::server {

struct ShardedServerConfig {
  ServerConfig base;
  /// Subtree shard count K. 1 = unsharded compatibility mode
  /// (byte-identical wire output to GroupKeyServer for the same base
  /// config and seed).
  std::size_t shards = 1;
};

class ShardedGroupKeyServer {
 public:
  ShardedGroupKeyServer(ShardedServerConfig config,
                        transport::ServerTransport& transport,
                        AccessControl acl = AccessControl::allow_all());
  ~ShardedGroupKeyServer();

  ShardedGroupKeyServer(const ShardedGroupKeyServer&) = delete;
  ShardedGroupKeyServer& operator=(const ShardedGroupKeyServer&) = delete;

  // --- Membership (concurrency-safe; one lane lock + root stitch each) --

  JoinResult join(UserId user);
  JoinResult join_with_token(UserId user, BytesView token);
  /// Throws ProtocolError for non-members.
  void leave(UserId user);
  bool leave_with_token(UserId user, BytesView token);
  /// Partitions the batch by shard and runs one batched update per
  /// affected shard (each with its own epoch). Returns the users actually
  /// joined. Throws ProtocolError if a leave targets a non-member or a
  /// user appears on both lists; shards already dispatched stay applied.
  std::vector<UserId> batch(const std::vector<UserId>& join_users,
                            const std::vector<UserId>& leave_users);

  // --- Recovery (PR 5 contract, unchanged for clients) ------------------

  /// Keyset replay at the current epoch: the user's shard path plus, at
  /// K > 1, the shared group key. No epoch advance.
  void resync(UserId user);
  bool resync_with_token(UserId user, BytesView token);
  NackOutcome handle_nack(UserId user, std::uint64_t have_epoch);
  std::optional<NackOutcome> nack_with_token(UserId user, BytesView token,
                                             std::uint64_t have_epoch);

  // --- Bulk build -------------------------------------------------------

  /// Admits `users` (ACL-filtered, duplicates skipped) without sending a
  /// single rekey message or advancing the epoch: the build phase of an
  /// experiment, like the unsharded harness's unsigned preload. Chunks
  /// each shard's admissions through batch_update so peak record/publish
  /// memory stays bounded at million-user scale. When storage is enabled
  /// each chunk journals one kPreload record (epoch 0) so recovery can
  /// rebuild the preloaded population too. Not safe concurrently with
  /// membership operations.
  void preload(const std::vector<UserId>& users);

  // --- Overload control (server/overload.h) -----------------------------
  // One admission lane per shard: a flash crowd hashing into one shard
  // (or one slow shard's open circuit breaker) sheds there without
  // touching its siblings. The gate is internally synchronized — offers
  // never take a lane or root mutex.

  /// Gates one join (see GroupKeyServer::offer_join for the contract).
  GateResult offer_join(UserId user, BytesView token);
  GateResult offer_leave(UserId user, BytesView token);

  /// Degraded-mode tick: evaluates health and, when the batch tick is
  /// due, drains every shard's buffer into one batch() call (which
  /// partitions by shard internally, one epoch per affected shard).
  OverloadTick poll_overload();

  [[nodiscard]] overload::HealthState health() const {
    return gate_.health();
  }
  [[nodiscard]] overload::AdmissionController& admission() noexcept {
    return gate_.admission();
  }

  // --- Durable state (write-ahead journal) ------------------------------

  /// Boot-time crash recovery: replays the whole journal — preload chunks
  /// and committed ops, lanes merged by global commit sequence — through
  /// the real per-lane plan/seal pipeline with the journaled rng tapes
  /// (lane and root layer) injected. Call on a freshly constructed server
  /// before serving. Throws StorageError subclasses on corruption or
  /// divergence; also when the journal carries a single-tree snapshot
  /// (the sharded server compacts nothing and cannot restore one).
  void recover_from_storage(const storage::RecoveryOptions& options = {});
  /// Replays one journal record (kPreload rebuilds its chunk; others
  /// re-plan, re-seal, verify the sealed digest, and refill the
  /// retransmit window). Records must arrive in commit-sequence order.
  void replay_record(const storage::JournalRecord& record,
                     const storage::RecoveryOptions& options);
  /// Null when ServerConfig::storage is not enabled.
  [[nodiscard]] storage::DurableStore* durable() noexcept {
    return durable_.get();
  }

  // --- Introspection ----------------------------------------------------

  [[nodiscard]] std::uint64_t epoch() const;
  /// The group key's k-node id: the shard-0 tree root at K = 1, the
  /// shared root-layer key id otherwise.
  [[nodiscard]] KeyId root_id() const noexcept;
  /// Current group key (throws if the group is empty at K = 1).
  [[nodiscard]] SymmetricKey group_key() const;
  /// The user's full keyset for admit_snapshot: its shard path keys plus,
  /// at K > 1, the shared group key. Throws for non-members.
  [[nodiscard]] std::vector<SymmetricKey> keyset(UserId user) const;
  [[nodiscard]] std::size_t member_count() const;
  [[nodiscard]] bool has_member(UserId user) const;
  [[nodiscard]] std::size_t shard_count() const noexcept;
  [[nodiscard]] std::size_t shard_of(UserId user) const noexcept;
  [[nodiscard]] TreeViewPtr shard_view(std::size_t shard) const;
  [[nodiscard]] const crypto::RsaPublicKey* public_key() const noexcept;
  [[nodiscard]] const AuthService& auth() const noexcept { return auth_; }
  [[nodiscard]] ServerStats& stats() noexcept { return stats_; }
  [[nodiscard]] const ShardedServerConfig& config() const noexcept {
    return config_;
  }
  /// For tests/tools; read only while no operation is in flight.
  [[nodiscard]] const rekey::RetransmitWindow& retransmit_window()
      const noexcept {
    return retransmit_;
  }

 private:
  /// One shard's serialization + seal pipeline.
  struct Lane {
    std::mutex mutex;
    std::unique_ptr<rekey::RekeyExecutor> executor;
    telemetry::Gauge* users = nullptr;
    telemetry::Gauge* epoch = nullptr;
    telemetry::Gauge* seal_us = nullptr;
  };

  /// One stitched operation between plan and dispatch.
  struct Pending {
    rekey::RekeyPlan plan;
    /// Per plan-message addressing view (broadcast messages resolve
    /// against *other* shards' views).
    std::vector<TreeViewPtr> views;
    /// The mutated shard's post-op view (retransmit entry view).
    TreeViewPtr lane_view;
    OpRecord op;
    std::vector<rekey::SealedRekey> sealed;
    std::chrono::steady_clock::time_point started{};
    std::uint64_t epoch = 0;  // global ticket; 0 = unsequenced (resync)
    std::size_t shard = 0;
    std::size_t fleet = 0;  // total users at epoch allocation
    /// Inactive unless trace propagation is on; carried on every datagram.
    telemetry::TraceContext trace{};
    /// Header timestamp stamped by stitch (journaled, pinned on replay).
    std::uint64_t timestamp_us = 0;
    /// Root-layer rng draws captured inside stitch's critical section.
    Bytes root_tape;
    /// Journal record built at plan time, appended at dispatch (after the
    /// sealed digest is known). Null when storage is off or replaying.
    std::unique_ptr<storage::JournalRecord> commit;
  };

  [[nodiscard]] std::uint64_t now_us() const;
  /// Admission + tree mutation + symbolic planning for one join; caller
  /// holds lanes_[shard]->mutex.
  JoinResult plan_join_locked(UserId user, std::size_t shard,
                              Pending& pending);
  void plan_leave_locked(UserId user, std::size_t shard, Pending& pending);
  /// Returns admitted joiners; pending.epoch stays 0 when the sub-batch
  /// was entirely no-op (nothing to stitch).
  std::vector<UserId> plan_batch_locked(
      std::size_t shard, const std::vector<UserId>& join_users,
      const std::vector<UserId>& leave_users, Pending& pending);
  /// The shared body of the plan_*_locked mutators once admission has
  /// run: records the lane-rng tape, mutates the shard tree with `mutate`,
  /// plans the record with `plan`, stitches it and builds the journal
  /// record of `joins`/`leaves`. Departed members' convergence gauges
  /// drop. Caller holds lanes_[shard]->mutex.
  template <typename Mutate, typename Plan>
  void plan_locked(std::size_t shard, Pending& pending,
                   rekey::RekeyKind kind, storage::OpKind journal_kind,
                   const std::vector<UserId>& joins,
                   const std::vector<UserId>& leaves, Mutate&& mutate,
                   Plan&& plan);
  /// Allocates the global epoch, refreshes the root layer, stamps headers
  /// and appends the shared-key ops/broadcasts. Caller holds the lane
  /// mutex; takes root_mutex_ internally. On exception the allocated
  /// ticket is retired.
  void stitch(Pending& pending, std::size_t shard, TreeViewPtr view,
              rekey::RekeyPlanner& planner,
              std::vector<rekey::PlannedRekey> messages,
              rekey::RekeyKind op_kind, rekey::RekeyKind wire_kind,
              const std::vector<KeyId>& obsolete);
  void plan_resync(UserId user, Pending& pending);
  /// Seal on the lane executor, then dispatch in global ticket order.
  void seal_and_dispatch(Lane& lane, Pending&& pending);
  void dispatch_locked(Lane& lane, Pending& pending, double seal_us);
  /// Skips ticket `epoch` in the dispatch sequence (failed operation).
  void retire(std::uint64_t epoch);
  [[nodiscard]] SymmetricKey shared_key_locked() const;  // root_mutex_ held

  ShardedServerConfig config_;
  transport::ServerTransport& transport_;
  AccessControl acl_;
  AuthService auth_;
  std::unique_ptr<ShardedKeyTree> tree_;
  std::unique_ptr<rekey::RekeyStrategy> strategy_;  // stateless, shared
  std::unique_ptr<crypto::RsaPrivateKey> signer_;
  std::unique_ptr<rekey::RekeySealer> sealer_;
  std::vector<std::unique_ptr<Lane>> lanes_;

  // Root layer: the only cross-shard mutable state.
  mutable std::mutex root_mutex_;
  std::uint64_t epoch_ = 0;
  crypto::SecureRandom root_rng_;  // G refreshes + stitch IVs (K > 1)
  Bytes group_secret_;             // current G secret (K > 1 only)
  KeyVersion group_version_ = 0;
  std::vector<SymmetricKey> shard_roots_;  // as of the last allocated epoch
  std::vector<TreeViewPtr> shard_views_;

  // Dispatch sequencing: tickets are epochs; dispatch in ticket order.
  std::mutex sequence_mutex_;
  std::condition_variable sequence_cv_;
  std::uint64_t next_dispatch_ = 1;
  std::mutex dispatch_mutex_;
  rekey::RetransmitWindow retransmit_;
  rekey::RecoveryLimiter limiter_;
  ServerStats stats_;

  // Durable state: per-shard journal lanes under one commit sequence.
  std::unique_ptr<storage::DurableStore> durable_;
  bool replaying_ = false;
  std::uint64_t pinned_clock_us_ = 0;

  telemetry::Gauge* fleet_users_ = nullptr;
  telemetry::Gauge* fleet_epoch_ = nullptr;
  telemetry::Gauge* fleet_seal_us_ = nullptr;

  /// Overload control: one admission lane per shard.
  overload::Gate gate_;
};

}  // namespace keygraphs::server
