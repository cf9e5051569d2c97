// The group key server (paper Sections 3 and 5): one server that owns one
// key graph and executes the join/leave protocols under a configured
// rekeying strategy and signing mode. Every membership operation runs as
// a three-phase pipeline:
//
//   plan     — admission, tree mutation, symbolic rekey planning (WrapOps
//              with pre-drawn IVs), epoch allocation and header stamping,
//              under one lane mutex. The only phase that touches mutable
//              group state.
//   seal     — the lane's RekeyExecutor resolves the plan against its
//              immutable key snapshot (encryptions, digests, signatures,
//              fanned across ServerConfig::seal_threads). No lock held.
//   dispatch — datagram framing, transport delivery and stats, in epoch
//              order.
//
// join()/leave()/batch()/resync() run the three phases back to back; the
// phase methods are public so a caller can time each one. Processing time
// per request covers what the paper's prototype measured (tree update, key
// generation, encryption, digests/signatures, serialization, send handoff)
// but never authentication.
//
// Lanes. Users are partitioned across K subtree shards (K = 1 by default;
// keygraph/sharded_tree.h). Each lane owns one shard's KeyTree, rng, seal
// executor and mutex, so a join or leave locks one lane plus one short
// root-layer critical section. The root layer holds the only cross-lane
// state:
//
//   root key — at K > 1 the group key G is a flat key wrapped under every
//              shard root. A change in shard s refreshes G, appends G under
//              s's new root to s's own rekey messages, and broadcasts G
//              under each other shard's root to that shard. At K = 1 the
//              layer vanishes: the shard root IS the group key.
//   epochs   — one global counter stitches the lanes into the single epoch
//              stream clients and convergence SLOs consume. Each epoch is
//              allocated at plan time with a dispatch ticket; dispatch runs
//              in ticket order, and a plan dropped before dispatch (or
//              whose seal throws) gives its ticket back.
//   journal  — with storage enabled, each committed op appends one record
//              (lane and root rng tapes) to its shard's journal lane before
//              any datagram leaves. Only K = 1 compacts into snapshots.
//
// Locking order: lane mutex -> root mutex -> sequence mutex (a ticket
// retires under whatever its owner holds). The dispatch mutex nests none
// of them, seal runs with no lock held, and a thread waiting for its
// dispatch turn holds no other lock.
#pragma once

#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "crypto/random.h"
#include "crypto/rsa.h"
#include "crypto/suite.h"
#include "keygraph/key_tree.h"
#include "keygraph/sharded_tree.h"
#include "rekey/codec.h"
#include "rekey/executor.h"
#include "rekey/retransmit.h"
#include "rekey/strategy.h"
#include "server/access_control.h"
#include "server/overload.h"
#include "server/stats.h"
#include "storage/durable.h"
#include "telemetry/metrics.h"
#include "telemetry/stage.h"
#include "telemetry/trace.h"
#include "transport/transport.h"

namespace keygraphs::server {

struct ServerConfig {
  GroupId group = 1;
  /// Key tree degree d. The paper found d = 4 optimal. Use
  /// StarConfig() below for the star baseline.
  int tree_degree = 4;
  crypto::CryptoSuite suite;
  rekey::StrategyKind strategy = rekey::StrategyKind::kGroupOriented;
  rekey::SigningMode signing = rekey::SigningMode::kNone;
  /// 0 = seed from the OS; anything else gives a reproducible run (the
  /// paper replays the same request sequences across configurations).
  std::uint64_t rng_seed = 0;
  /// Master secret shared with the simulated authentication service.
  Bytes auth_master = bytes_of("keygraph");
  /// Seal-phase fan-out: 1 (default) seals serially on the calling
  /// thread; N > 1 adds N - 1 pool workers. Output bytes are identical
  /// for any value — work is index-keyed and all randomness is drawn in
  /// the plan phase.
  std::size_t seal_threads = 1;
  /// Clock for rekey message timestamps (microseconds since the Unix
  /// epoch); unset = system clock. Signatures cover the timestamp, so
  /// byte-reproducibility tests pin this. The recovery rate limiter reads
  /// the same clock, so loss-recovery tests are wall-clock free.
  std::function<std::uint64_t()> clock_us;
  /// Epochs of sealed rekey datagrams retained for NACK retransmission
  /// (rekey/retransmit.h); 0 disables the window, degrading every epoch-gap
  /// recovery to a full keyset resync. Spec key `retransmit_window`.
  std::size_t retransmit_window = 32;
  /// Per-user recovery-request budget: token-bucket refill rate in requests
  /// per second (<= 0 disables limiting) and burst capacity. Spec keys
  /// `recovery_rate` / `recovery_burst`.
  double recovery_rate = 16.0;
  double recovery_burst = 8.0;
  /// Capacity of the RekeyExecutor's wrapping-key ScheduleCache (expanded
  /// cipher schedules retained across seals; rekey/schedule_cache.h). The
  /// default fits every internal node of the simulator's largest trees;
  /// each lane has its own cache of this size. Spec key
  /// `schedule_cache_capacity`.
  std::size_t schedule_cache_capacity =
      rekey::RekeyExecutor::kDefaultCacheCapacity;
  /// Stamp every membership operation with a telemetry::TraceContext at
  /// plan time, emit rekey.plan/seal/dispatch spans for it, and carry the
  /// context on dispatched datagrams as the optional TraceExtension so
  /// client spans correlate with the server's. Off by default: without it
  /// the wire bytes are identical to the untraced format. Spec key
  /// `trace_propagation`.
  bool trace_propagation = false;
  /// Durable-state configuration (storage/backend.h). When enabled the
  /// server journals every committed membership operation before its
  /// datagrams leave the transport, compacts snapshots on the configured
  /// interval (K = 1 only), and can rebuild byte-identical state from the
  /// journal via recover_from_storage(). Spec keys `storage`, `journal_dir`,
  /// `snapshot_interval`. Default: disabled (the pre-durability behavior).
  storage::StorageConfig storage;
  /// Overload-control configuration (server/overload.h). Off by default:
  /// every request is admitted immediately and no kRetryLater byte ever
  /// reaches the wire, so the pre-overload goldens hold. Spec keys
  /// `overload`, `admission_queue`, `shed_deadline_us`,
  /// `degraded_batch_period_us`.
  overload::OverloadConfig overload;

  /// Star baseline: unbounded degree.
  static ServerConfig star(ServerConfig base);
  static ServerConfig star();
};

/// Outcome of a join request.
enum class JoinResult : std::uint8_t {
  kGranted = 1,
  kDenied = 2,     // ACL rejection ("join-denied" in the paper)
  kDuplicate = 3,  // already a member
};

/// How the server satisfied a kNackRequest.
enum class NackOutcome : std::uint8_t {
  /// Gap inside the retransmit window: the missed datagrams were replayed
  /// unicast from the sealed-bytes ring (no plan/seal work).
  kRetransmitted = 1,
  /// Gap outside the window (or window disabled): full keyset resync.
  kResynced = 2,
  /// The user's recovery token bucket was empty; request dropped.
  kRateLimited = 3,
};

using overload::GateResult;
using overload::OverloadTick;

struct ShardedServerConfig;  // server/sharded_server.h

class GroupKeyServer {
  /// A planned epoch's slot in the dispatch sequence. Destroying a ticket
  /// that was never dispatched retires its slot, so later epochs go out.
  class DispatchTicket {
   public:
    DispatchTicket() = default;
    DispatchTicket(GroupKeyServer& server, std::uint64_t epoch) noexcept
        : server_(&server), epoch_(epoch) {}
    DispatchTicket(DispatchTicket&& other) noexcept
        : server_(std::exchange(other.server_, nullptr)),
          epoch_(other.epoch_) {}
    DispatchTicket& operator=(DispatchTicket&& other) noexcept;
    ~DispatchTicket() { retire(); }

    [[nodiscard]] bool held() const noexcept { return server_ != nullptr; }
    /// Frees the slot: the dispatch sequence moves past every retired
    /// epoch.
    void retire() noexcept;

   private:
    GroupKeyServer* server_ = nullptr;
    std::uint64_t epoch_ = 0;
  };

 public:
  /// One membership operation in flight between the pipeline phases.
  struct PendingRekey {
    rekey::RekeyPlan plan;
    /// The lane's tree view this plan was computed against (post-mutation
    /// for join/leave/batch, the root layer's current view for resync);
    /// its retransmit entry pins it. Null when nothing was planned (a
    /// batch that admits and removes nobody).
    TreeViewPtr view;
    /// Per-message addressing views: a cross-shard broadcast resolves on
    /// the view of the shard it addresses, so later mutations never skew
    /// an in-flight operation.
    std::vector<TreeViewPtr> views;
    OpRecord op;
    std::vector<rekey::SealedRekey> sealed;
    /// Stage self-time accumulated across the phases so far.
    telemetry::StageBreakdown stage_us{};
    std::chrono::steady_clock::time_point started{};
    /// Cross-process correlation context (inactive unless the server runs
    /// with trace_propagation): stamped in plan_*, rebound around every
    /// phase and copied onto each dispatched datagram.
    telemetry::TraceContext trace{};
    /// The epoch this operation's headers carry.
    std::uint64_t epoch = 0;
    std::size_t shard = 0;
    /// Total members when the epoch was allocated (convergence target).
    std::size_t fleet = 0;
    /// Header timestamp the plan stamped (what the journal records and
    /// replay pins the clock to).
    std::uint64_t timestamp_us = 0;
    /// Wall time of seal(), for the lane gauges.
    double seal_us = 0.0;
    /// The journal record this operation will commit in dispatch() —
    /// op inputs plus the plan-phase rng tapes. Null when storage is
    /// disabled, during replay, and for resyncs (which mutate nothing).
    std::unique_ptr<storage::JournalRecord> commit;
    /// Held from epoch allocation until dispatch; none for a resync.
    DispatchTicket ticket;
  };

  /// One lane: the single-tree server (K = 1).
  GroupKeyServer(ServerConfig config, transport::ServerTransport& transport,
                 AccessControl acl = AccessControl::allow_all());
  /// `config.shards` lanes (0 is treated as 1).
  GroupKeyServer(ShardedServerConfig config,
                 transport::ServerTransport& transport,
                 AccessControl acl = AccessControl::allow_all());

  GroupKeyServer(const GroupKeyServer&) = delete;
  GroupKeyServer& operator=(const GroupKeyServer&) = delete;

  // --- Membership (thread-safe; one lane lock + root stitch each) -------

  /// Grants or denies a join. On grant, runs the configured join protocol:
  /// tree update, rekey message construction, sealing, sending.
  JoinResult join(UserId user);

  /// Join with an authentication token (the datagram path). The token must
  /// verify against the auth service or the request is denied.
  JoinResult join_with_token(UserId user, BytesView token);

  /// Runs the leave protocol. Throws ProtocolError for non-members.
  void leave(UserId user);

  /// Authenticated leave (the paper's {leave-request}_{k_u}).
  bool leave_with_token(UserId user, BytesView token);

  /// Batched membership update (periodic rekeying): admits every
  /// authorized joiner and removes every member in `leave_users`, rekeying
  /// each affected k-node exactly once: one epoch per affected shard, none
  /// when the batch admits and removes nobody. Returns the users actually
  /// joined (ACL rejections and duplicates are skipped). Throws
  /// ProtocolError if a leave targets a non-member or a user appears on
  /// both lists; shards already dispatched stay applied.
  std::vector<UserId> batch(const std::vector<UserId>& join_users,
                            const std::vector<UserId>& leave_users);

  // --- Pipeline phases -----------------------------------------------
  // plan_*() lock the user's lane for the mutation and allocate the
  // epoch; they leave `pending` ready for seal(). seal() holds no lock.
  // dispatch() delivers in epoch order: it waits until every earlier epoch
  // was dispatched or dropped, so one thread must dispatch its plans in
  // plan order.

  JoinResult plan_join(UserId user, PendingRekey& pending);
  JoinResult plan_join_with_token(UserId user, BytesView token,
                                  PendingRekey& pending);
  /// Throws ProtocolError for non-members.
  void plan_leave(UserId user, PendingRekey& pending);
  bool plan_leave_with_token(UserId user, BytesView token,
                             PendingRekey& pending);
  /// K = 1 only (ProtocolError when sharded: batch() partitions by shard).
  /// Plans nothing when the batch admits and removes nobody.
  std::vector<UserId> plan_batch(const std::vector<UserId>& join_users,
                                 const std::vector<UserId>& leave_users,
                                 PendingRekey& pending);
  /// Plans a keyset replay at the current epoch (no tree mutation, no
  /// epoch advance) on the root layer's current view of the user's shard.
  /// Throws ProtocolError for non-members.
  void plan_resync(UserId user, PendingRekey& pending);
  bool plan_resync_with_token(UserId user, BytesView token,
                              PendingRekey& pending);

  void seal(PendingRekey& pending);
  void dispatch(PendingRekey&& pending);

  /// Switches the signing mode at runtime. The experiment harness builds
  /// the initial group unsigned (the paper never measures the build phase)
  /// and then turns signing on for the measured churn. Requires the suite
  /// to carry an RSA algorithm if `mode` signs. Not safe while an
  /// operation is in flight between phases.
  void set_signing_mode(rekey::SigningMode mode);

  // --- Recovery -------------------------------------------------------

  /// Replays a member's current keyset as a welcome-style unicast rekey
  /// message (all its path keys, plus the shared group key at K > 1,
  /// wrapped under its individual key, at the current epoch). Recovery
  /// path for clients that missed a rekey on a lossy transport. Does not
  /// advance the epoch or touch any key; the operation is recorded in
  /// stats as RekeyKind::kResync. Throws ProtocolError for non-members.
  void resync(UserId user);

  /// Authenticated resync (requires the auth service's resync token).
  bool resync_with_token(UserId user, BytesView token);

  /// Serves a negative acknowledgement from a member whose last fully
  /// applied epoch is `have_epoch`. Rate-limits per user first; then, if
  /// every missed epoch is still in the retransmit window, replays the
  /// member's datagrams unicast (already sealed — no crypto); otherwise
  /// falls back to resync(). Throws ProtocolError for non-members.
  NackOutcome handle_nack(UserId user, std::uint64_t have_epoch);

  /// Authenticated NACK (reuses the resync token — both are keyset-replay
  /// requests). nullopt on bad token or non-member.
  std::optional<NackOutcome> nack_with_token(UserId user, BytesView token,
                                             std::uint64_t have_epoch);

  // --- Bulk build -----------------------------------------------------

  /// Admits `users` (ACL-filtered, duplicates skipped) without sending a
  /// single rekey message or advancing the epoch: the build phase of an
  /// experiment. Chunks each shard's admissions through batch_update so
  /// peak record/publish memory stays bounded at million-user scale. When
  /// storage is enabled each chunk journals one kPreload record (epoch 0)
  /// so recovery can rebuild the preloaded population too. Not safe
  /// concurrently with membership operations.
  void preload(const std::vector<UserId>& users);

  // --- Overload control (server/overload.h) ---------------------------
  // One admission lane per shard: a flash crowd hashing into one shard
  // (or one slow shard's open circuit breaker) sheds there without
  // touching its siblings. With config.overload.enabled == false every
  // offer answers kAdmit and the caller runs the usual immediate path.

  /// Gates one join request. Validates the token and ACL first (bad
  /// requests are denied without consuming a queue slot), then asks the
  /// admission controller: kAdmit = caller runs join_with_token now;
  /// kCoalesce = buffered for the next degraded batch (the welcome
  /// arrives with the flush); kShed = answer kRetryLater.
  GateResult offer_join(UserId user, BytesView token);

  /// Gates one leave request (same contract as offer_join).
  GateResult offer_leave(UserId user, BytesView token);

  /// Degraded-mode tick: re-evaluates health and, when the batch tick is
  /// due (or the queue hit its bound), runs the buffered ops through one
  /// batch() and returns the deadline-expired ones to shed. Call
  /// periodically (e.g. every receive-loop pass).
  OverloadTick poll_overload();

  /// Current overload health (kHealthy whenever overload is off).
  [[nodiscard]] overload::HealthState health() const {
    return gate_.health();
  }
  [[nodiscard]] overload::AdmissionController& admission() noexcept {
    return gate_.admission();
  }

  // --- Durable state (storage/durable.h) -----------------------------

  /// Serializes the server's replicable state (epoch + full key tree with
  /// key material) for the standby-replica path Section 6 sketches. As
  /// sensitive as the server's memory; transfer over a secure channel only.
  /// K = 1 only (throws ProtocolError when sharded).
  [[nodiscard]] Bytes snapshot() const;

  /// Replaces this server's group state with a snapshot taken from another
  /// server with the same configuration. Clients notice nothing: node ids,
  /// versions and key material are identical. Throws ParseError on
  /// malformed snapshots (state is unchanged on failure). Also resets the
  /// delivery-side state the old timeline owned: the retransmit window
  /// (its sealed bytes predate the restored state) and the convergence
  /// monitor's published-epoch anchor. K = 1 only, and not while an
  /// operation is in flight.
  void restore(BytesView snapshot);

  /// Rebuilds group state from the configured storage backend: restores
  /// the compacted snapshot (if any), then replays every journaled
  /// record — preload chunks and committed ops, lanes merged by global
  /// commit sequence — through the real plan/seal pipeline with the
  /// recorded rng tapes injected, reproducing byte-identical keys, epochs
  /// and sealed datagrams and rehydrating the retransmit window along the
  /// way. Call on a freshly constructed server before serving traffic.
  /// Throws StorageError subclasses (JournalCorruptError /
  /// JournalTruncatedError / EpochGapError / ReplayDivergenceError) per
  /// storage/errors.h, also when storage is not configured or a sharded
  /// server finds a snapshot; state may be partially rebuilt on failure
  /// and must not be served.
  void recover_from_storage(const storage::RecoveryOptions& options = {});

  /// Re-runs one journaled record through plan/seal with its rng tapes
  /// injected and absorbs the result without delivering datagrams or
  /// publishing telemetry. Boot recovery and the standby tail both feed
  /// records through here, in sequence order. Throws
  /// ReplayDivergenceError when the replayed operation does not reproduce
  /// the journal's epoch, admissions, or sealed digest.
  void replay_record(const storage::JournalRecord& record,
                     const storage::RecoveryOptions& options);

  /// The journal store, null when storage is disabled. Exposed for the
  /// standby tail and for tests to inspect compaction behavior.
  [[nodiscard]] storage::DurableStore* durable() noexcept {
    return durable_.get();
  }

  // --- Introspection --------------------------------------------------

  [[nodiscard]] std::uint64_t epoch() const;
  /// The group key's k-node id — clients use it to identify the group key:
  /// the tree root at K = 1, the shared root-layer key id otherwise.
  [[nodiscard]] KeyId root_id() const noexcept;
  /// Current group key (throws if the group is empty at K = 1).
  [[nodiscard]] SymmetricKey group_key() const;
  /// The user's full keyset for admit_snapshot: its shard path keys plus,
  /// at K > 1, the shared group key. Throws for non-members.
  [[nodiscard]] std::vector<SymmetricKey> keyset(UserId user) const;
  [[nodiscard]] std::size_t member_count() const;
  [[nodiscard]] bool has_member(UserId user) const;
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return tree_->shard_count();
  }
  [[nodiscard]] std::size_t shard_of(UserId user) const noexcept {
    return tree_->shard_of(user);
  }
  [[nodiscard]] TreeViewPtr shard_view(std::size_t shard) const {
    return tree_->shard(shard).view();
  }

  /// K = 1 accessors: the key tree and its current epoch view (shard 0's
  /// when sharded). The view is safe to read from any thread while a
  /// writer mutates; the tree is not.
  [[nodiscard]] const KeyTree& tree() const noexcept {
    return tree_->shard(0);
  }
  [[nodiscard]] TreeViewPtr tree_view() const { return shard_view(0); }
  /// userset(include) - userset(exclude) on the current K = 1 epoch view,
  /// ascending: the set a subgroup datagram's Resolver yields (dispatch
  /// resolves it on the plan-time view via TreeView::recipients).
  /// Lock-free: safe to call from any thread while the writer mutates.
  [[nodiscard]] std::vector<UserId> resolve_subgroup(
      KeyId include, std::optional<KeyId> exclude) const;

  [[nodiscard]] ServerStats& stats() noexcept { return stats_; }
  [[nodiscard]] const ServerStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const ServerConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const AuthService& auth() const noexcept { return auth_; }

  /// Public verification key; null when the server does not sign.
  [[nodiscard]] const crypto::RsaPublicKey* public_key() const noexcept {
    return signer_ ? &signer_->public_key() : nullptr;
  }

  /// The retransmit window, for tests and tools; read only while no
  /// operation is in flight.
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

  [[nodiscard]] std::uint64_t now_us() const;
  /// seal() then dispatch(); passes the plan phase's answer through.
  template <typename Result>
  Result run(Result planned, PendingRekey& pending);
  /// Admission + mutation + plan of one lane's batch; takes the lane
  /// mutex.
  std::vector<UserId> plan_shard_batch(std::size_t shard,
                                       const std::vector<UserId>& join_users,
                                       const std::vector<UserId>& leave_users,
                                       PendingRekey& pending);
  /// The shared body of plan_join/plan_leave/plan_batch once admission has
  /// run: records the lane-rng tape, traces, mutates the shard tree with
  /// `mutate`, plans the record with `plan`, stitches it and builds the
  /// journal record of `joins`/`leaves`. Departed members' convergence
  /// gauges drop. Caller holds lanes_[shard].mutex.
  template <typename Mutate, typename Plan>
  void plan_mutation(std::size_t shard, PendingRekey& pending,
                     const telemetry::StageCollector& stages,
                     rekey::RekeyKind kind, storage::OpKind journal_kind,
                     const std::vector<UserId>& joins,
                     const std::vector<UserId>& leaves, Mutate&& mutate,
                     Plan&& plan);
  /// Allocates the global epoch and its dispatch ticket, refreshes the
  /// root layer, stamps headers and appends the shared-key ops and
  /// broadcasts. Caller holds the lane mutex; takes root_mutex_ inside.
  /// Returns the root-layer rng tape (empty unless journaling).
  Bytes stitch(PendingRekey& pending, std::size_t shard,
               rekey::RekeyPlanner& planner,
               std::vector<rekey::PlannedRekey> messages,
               rekey::RekeyKind kind, const std::vector<KeyId>& obsolete);
  /// plan_resync minus the membership throw: false for non-members.
  bool plan_replay(UserId user, PendingRekey& pending);
  /// Admits `users` into shard `shard` with no epoch and no message (one
  /// preload chunk, live or replayed).
  void admit_chunk(std::size_t shard, const std::vector<UserId>& users);
  /// Points the root layer at every shard's current view.
  void adopt_views();
  void dispatch_locked(PendingRekey& pending);
  [[nodiscard]] SymmetricKey shared_key_locked() const;  // root_mutex_ held

  ServerConfig config_;
  transport::ServerTransport& transport_;
  AccessControl acl_;
  AuthService auth_;
  std::unique_ptr<ShardedKeyTree> tree_;
  std::unique_ptr<rekey::RekeyStrategy> strategy_;  // stateless, shared
  std::unique_ptr<crypto::RsaPrivateKey> signer_;
  std::unique_ptr<rekey::RekeySealer> sealer_;
  std::vector<Lane> lanes_;

  // Root layer: the only cross-lane mutable state.
  mutable std::mutex root_mutex_;
  std::uint64_t epoch_ = 0;
  crypto::SecureRandom root_rng_;  // G refreshes + stitch IVs (K > 1)
  Bytes group_secret_;             // current G secret (K > 1 only)
  KeyVersion group_version_ = 0;
  /// Each shard's view as of the last allocated epoch.
  std::vector<TreeViewPtr> shard_views_;

  // Dispatch sequencing: tickets are epochs; dispatch in ticket order.
  std::mutex sequence_mutex_;
  std::condition_variable sequence_cv_;
  std::uint64_t next_dispatch_ = 1;
  std::set<std::uint64_t> retired_;  // dropped tickets past next_dispatch_
  std::mutex dispatch_mutex_;
  rekey::RetransmitWindow retransmit_;
  rekey::RecoveryLimiter limiter_;
  ServerStats stats_;

  /// Write-ahead journal, one lane per shard under one commit sequence;
  /// null when config_.storage is disabled.
  std::unique_ptr<storage::DurableStore> durable_;
  /// True while replaying journal records: suppresses re-journaling,
  /// transport delivery, telemetry publishes, and pins now_us() onto the
  /// replayed record's timestamp. The standby toggles this around its
  /// tail-applied records (friend below).
  bool replaying_ = false;
  std::uint64_t pinned_clock_us_ = 0;

  telemetry::Gauge* fleet_users_ = nullptr;
  telemetry::Gauge* fleet_epoch_ = nullptr;
  telemetry::Gauge* fleet_seal_us_ = nullptr;

  /// Overload control: one admission lane per shard.
  overload::Gate gate_;

  friend class StandbyServer;
};

}  // namespace keygraphs::server
