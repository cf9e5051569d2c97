// The group key server (paper Sections 3 and 5).
//
// Owns the key tree and executes the join/leave protocols under a
// configured rekeying strategy and signing mode. Every membership
// operation runs as a three-phase pipeline:
//
//   plan     — admission, tree mutation, symbolic rekey planning (WrapOps
//              with pre-drawn IVs), epoch advance and header stamping.
//              The only phase that touches mutable group state.
//   seal     — RekeyExecutor resolves the plan against its immutable key
//              snapshot: all encryptions, digests and signatures, fanned
//              across ServerConfig::seal_threads threads. Touches no
//              server state besides the (immutable-after-construction)
//              sealer, so concurrent seals are safe.
//   dispatch — datagram framing, transport delivery in plan order, stats.
//
// join()/leave()/batch()/resync() run the three phases back to back; the
// phase methods are public so a caller can time each one. The server is
// single-threaded; ShardedGroupKeyServer (sharded_server.h) at K = 1 is
// its concurrent, byte-identical counterpart. It measures itself the way
// the paper's prototype did: processing time per request covering request
// handling, tree update, key generation, encryption, digest/signature
// computation, serialization and handoff to the send path — but never
// authentication.
#pragma once

#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "crypto/random.h"
#include "crypto/rsa.h"
#include "crypto/suite.h"
#include "keygraph/key_tree.h"
#include "rekey/codec.h"
#include "rekey/executor.h"
#include "rekey/retransmit.h"
#include "rekey/strategy.h"
#include "server/access_control.h"
#include "server/overload.h"
#include "server/stats.h"
#include "storage/durable.h"
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
  /// default fits every internal node of the simulator's largest trees; a
  /// sharded server gives each shard lane its own cache of this size. Spec
  /// key `schedule_cache_capacity`.
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
  /// interval, and can rebuild byte-identical state from the journal via
  /// recover_from_storage(). Spec keys `storage`, `journal_dir`,
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

class GroupKeyServer {
 public:
  /// One membership operation in flight between the pipeline phases.
  struct PendingRekey {
    rekey::RekeyPlan plan;
    /// The tree view this plan was computed against (post-mutation for
    /// join/leave/batch, the acquired read view for resync). seal() reads
    /// key material through it and dispatch() resolves subgroup fan-out on
    /// it, so later mutations never skew an in-flight operation.
    TreeViewPtr view;
    OpRecord op;
    std::vector<rekey::SealedRekey> sealed;
    /// Stage self-time accumulated across the phases so far.
    telemetry::StageBreakdown stage_us{};
    std::chrono::steady_clock::time_point started{};
    /// Cross-process correlation context (inactive unless the server runs
    /// with trace_propagation): stamped in plan_*, epoch filled by
    /// finish_plan, rebound around every phase and copied onto each
    /// dispatched datagram.
    telemetry::TraceContext trace{};
    /// Header timestamp finish_plan stamped (what the journal records and
    /// replay pins the clock to).
    std::uint64_t timestamp_us = 0;
    /// The journal record this operation will commit in dispatch() —
    /// op inputs plus the plan-phase rng tape. Null when storage is
    /// disabled, during replay, and for resyncs (which mutate nothing).
    std::unique_ptr<storage::JournalRecord> commit;
  };

  GroupKeyServer(ServerConfig config, transport::ServerTransport& transport,
                 AccessControl acl = AccessControl::allow_all());

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
  /// each affected k-node exactly once and sending one multicast plus one
  /// welcome unicast per joiner. Returns the users actually joined (ACL
  /// rejections and duplicates are skipped). Throws ProtocolError if a
  /// leave targets a non-member or a user appears on both lists.
  std::vector<UserId> batch(const std::vector<UserId>& join_users,
                            const std::vector<UserId>& leave_users);

  // --- Pipeline phases -----------------------------------------------
  // plan_*() mutate group state and must be externally serialized; they
  // leave `pending` ready for seal(). seal() touches no mutable server
  // state (concurrent seals are fine). dispatch() sends and records; call
  // it in plan order to preserve epoch-ordered delivery.

  JoinResult plan_join(UserId user, PendingRekey& pending);
  JoinResult plan_join_with_token(UserId user, BytesView token,
                                  PendingRekey& pending);
  /// Throws ProtocolError for non-members.
  void plan_leave(UserId user, PendingRekey& pending);
  bool plan_leave_with_token(UserId user, BytesView token,
                             PendingRekey& pending);
  std::vector<UserId> plan_batch(const std::vector<UserId>& join_users,
                                 const std::vector<UserId>& leave_users,
                                 PendingRekey& pending);
  /// Plans a keyset replay at the current epoch (no tree mutation, no
  /// epoch advance). Runs entirely on an acquired TreeView — callers may
  /// invoke it without serializing against the plan_* mutators. Throws
  /// ProtocolError for non-members.
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

  [[nodiscard]] const KeyTree& tree() const noexcept { return *tree_; }
  /// Current epoch view of the tree — safe to read from any thread while
  /// the writer mutates.
  [[nodiscard]] TreeViewPtr tree_view() const { return tree_->view(); }
  [[nodiscard]] ServerStats& stats() noexcept { return stats_; }
  [[nodiscard]] const ServerStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const ServerConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const AuthService& auth() const noexcept { return auth_; }
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

  /// Public verification key; null when the server does not sign.
  [[nodiscard]] const crypto::RsaPublicKey* public_key() const noexcept {
    return signer_ ? &signer_->public_key() : nullptr;
  }

  /// The root k-node id — clients use it to identify the group key.
  [[nodiscard]] KeyId root_id() const noexcept { return tree_->root_id(); }

  /// Replays a member's current keyset as a welcome-style unicast rekey
  /// message (all its path keys wrapped under its individual key, at the
  /// current epoch). Recovery path for clients that missed a rekey on a
  /// lossy transport. Does not advance the epoch or touch any key; the
  /// operation is recorded in stats as RekeyKind::kResync. Throws
  /// ProtocolError for non-members.
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

  // --- Overload control (server/overload.h) ---------------------------
  // With config.overload.enabled == false every offer answers kAdmit and
  // the caller runs the usual immediate path.

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

  /// The retransmit window, for introspection in tests and tools.
  [[nodiscard]] const rekey::RetransmitWindow& retransmit_window()
      const noexcept {
    return retransmit_;
  }

  /// Serializes the server's replicable state (epoch + full key tree with
  /// key material) for the standby-replica path Section 6 sketches. As
  /// sensitive as the server's memory; transfer over a secure channel only.
  [[nodiscard]] Bytes snapshot() const;

  /// Replaces this server's group state with a snapshot taken from another
  /// server with the same configuration. Clients notice nothing: node ids,
  /// versions and key material are identical. Throws ParseError on
  /// malformed snapshots (state is unchanged on failure). Also resets the
  /// delivery-side state the old timeline owned: the retransmit window
  /// (its sealed bytes predate the restored state) and the convergence
  /// monitor's published-epoch anchor.
  void restore(BytesView snapshot);

  // --- Durable state (storage/durable.h) -----------------------------

  /// Rebuilds group state from the configured storage backend: restores
  /// the compacted snapshot (if any), then replays every journaled
  /// operation through the real plan/seal pipeline with the recorded rng
  /// tape injected — reproducing byte-identical keys, epochs, and sealed
  /// datagrams, and rehydrating the retransmit window along the way.
  /// Call before serving traffic. Throws StorageError subclasses
  /// (JournalCorruptError / JournalTruncatedError / EpochGapError /
  /// ReplayDivergenceError) per storage/errors.h; state may be partially
  /// rebuilt on failure and must not be served. Throws StorageError when
  /// storage is not configured.
  void recover_from_storage(const storage::RecoveryOptions& options = {});

  /// Re-runs one journaled operation through plan/seal with its rng tape
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

  /// userset(include) - userset(exclude) on the current epoch view,
  /// ascending: the set a subgroup datagram's Resolver yields (dispatch
  /// resolves it on the plan-time view via TreeView::recipients).
  /// Lock-free: safe to call from any thread while the writer mutates.
  [[nodiscard]] std::vector<UserId> resolve_subgroup(
      KeyId include, std::optional<KeyId> exclude) const;

 private:
  /// Stamps headers (epoch/timestamp/kind/obsolete), finalizes the plan
  /// and the OpRecord skeleton into `pending`.
  void finish_plan(PendingRekey& pending, rekey::RekeyPlanner& planner,
                   std::vector<rekey::PlannedRekey> messages,
                   rekey::RekeyKind op_kind, rekey::RekeyKind wire_kind,
                   const std::vector<KeyId>& obsolete, bool advance_epoch,
                   const telemetry::StageCollector& stages);
  /// The shared body of plan_join/plan_leave/plan_batch once admission has
  /// run: records the rng tape, traces, mutates the tree under the next
  /// epoch's label with `mutate`, plans the record with `plan`, finishes
  /// the plan and builds the journal record of `joins`/`leaves`. Departed
  /// members' convergence gauges drop.
  template <typename Mutate, typename Plan>
  void plan_mutation(PendingRekey& pending,
                     const telemetry::StageCollector& stages,
                     rekey::RekeyKind kind, storage::OpKind journal_kind,
                     const std::vector<UserId>& joins,
                     const std::vector<UserId>& leaves, Mutate&& mutate,
                     Plan&& plan);
  [[nodiscard]] std::uint64_t now_us() const;

  ServerConfig config_;
  transport::ServerTransport& transport_;
  AccessControl acl_;
  AuthService auth_;
  crypto::SecureRandom rng_;
  std::unique_ptr<crypto::RsaPrivateKey> signer_;
  std::unique_ptr<KeyTree> tree_;
  std::unique_ptr<rekey::RekeyStrategy> strategy_;
  rekey::RekeyExecutor executor_;
  std::unique_ptr<rekey::RekeySealer> sealer_;
  ServerStats stats_;
  std::uint64_t epoch_ = 0;
  /// Dispatch-phase state (recorded in dispatch(), read by handle_nack).
  rekey::RetransmitWindow retransmit_;
  rekey::RecoveryLimiter limiter_;
  /// Write-ahead journal; null when config_.storage is disabled.
  std::unique_ptr<storage::DurableStore> durable_;
  /// True while replaying journal records: suppresses re-journaling,
  /// transport delivery, telemetry publishes, and un-pins now_us() onto
  /// the replayed record's timestamp. The standby toggles this around its
  /// tail-applied records (friend below).
  bool replaying_ = false;
  std::uint64_t pinned_clock_us_ = 0;

  /// Overload control, one lane.
  overload::Gate gate_;

  friend class StandbyServer;
};

}  // namespace keygraphs::server
