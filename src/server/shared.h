// The parts of the rekey pipeline that GroupKeyServer and
// ShardedGroupKeyServer share: clock and trace stamping, the NACK
// retransmit path, and the journal-replay checks. Internal to src/server;
// not part of the public API.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "crypto/random.h"
#include "rekey/executor.h"
#include "rekey/message.h"
#include "rekey/retransmit.h"
#include "server/server.h"
#include "storage/durable.h"
#include "telemetry/trace.h"
#include "transport/transport.h"

namespace keygraphs::server::detail {

/// `clock()` when set, else the system clock: µs since the Unix epoch.
[[nodiscard]] std::uint64_t clock_now_us(
    const std::function<std::uint64_t()>& clock);

/// A fresh trace context for one `kind` operation when `propagate` is set
/// and telemetry is on; inactive otherwise. Callers pass propagate = false
/// while replaying: replayed operations are reconstructions, and tracing
/// them would double-count the original dispatch.
[[nodiscard]] telemetry::TraceContext begin_trace(bool propagate,
                                                  rekey::RekeyKind kind);

/// The datagram extension carrying `trace`; nullopt when inactive.
[[nodiscard]] std::optional<rekey::TraceExtension> trace_extension(
    const telemetry::TraceContext& trace);

/// The rate-limit + window-replay half of a NACK: kRateLimited,
/// kRetransmitted (the gap's stored datagrams unicast back to `user`, no
/// plan/seal work), or nullopt when the gap has left the window and the
/// caller must fall back to a resync (the fallback is counted here). Not
/// synchronized: the caller serializes it with dispatch.
[[nodiscard]] std::optional<NackOutcome> try_retransmit(
    const rekey::RetransmitWindow& window, rekey::RecoveryLimiter& limiter,
    transport::ServerTransport& transport, UserId user,
    std::uint64_t have_epoch, std::uint64_t now_us);

/// The journal record one committed op appends at dispatch: its inputs
/// plus the lane rng tape `capture` recorded while planning.
[[nodiscard]] std::unique_ptr<storage::JournalRecord> commit_record(
    storage::OpKind kind, std::uint64_t epoch, std::uint64_t timestamp_us,
    std::vector<UserId> joins, std::vector<UserId> leaves,
    crypto::RngCapture& capture);

/// Write-ahead commit: stamps `record` (null = nothing to journal) with
/// the digest of `sealed` and appends it durably, before the first
/// datagram leaves and before the epoch is published. A crash after the
/// append replays the op; a crash before it means no client ever saw the
/// epoch, so nothing is lost.
void append_commit(storage::DurableStore* durable,
                   storage::JournalRecord* record,
                   const std::vector<rekey::SealedRekey>& sealed);

/// Frames each sealed message as a kRekey datagram carrying `extension`,
/// hands the whole burst to `transport` in one deliver_many call
/// (gather-capable transports such as UDP sendmmsg amortize the syscall;
/// the default keeps per-message order) and adds message count and sizes
/// to `op`. Message i's subgroup recipients resolve on `views[i]`, or on
/// `view` when `views` is empty. Returns the framed datagrams.
std::vector<Bytes> deliver_burst(
    const std::vector<rekey::SealedRekey>& sealed,
    const std::optional<rekey::TraceExtension>& extension,
    const TreeViewPtr& view, const std::vector<TreeViewPtr>& views,
    transport::ServerTransport& transport, OpRecord& op);

/// Parks one epoch's framed datagrams in `window` so a later NACK replays
/// these exact bytes; datagram i is pinned to `views[i]` (empty = every
/// datagram resolves on `view`). No-op when the window is off.
void remember(rekey::RetransmitWindow& window, std::uint64_t epoch,
              const TreeViewPtr& view,
              const std::vector<rekey::SealedRekey>& sealed,
              std::vector<Bytes> datagrams,
              const std::vector<TreeViewPtr>& views);

/// Saves and force-sets a flag for one scope (exception-safe), restoring
/// the caller's value on exit — the standby keeps replaying_ latched
/// across many replay_record calls.
class ScopedFlag {
 public:
  explicit ScopedFlag(bool& flag) : flag_(flag), saved_(flag) { flag_ = true; }
  ~ScopedFlag() { flag_ = saved_; }
  ScopedFlag(const ScopedFlag&) = delete;
  ScopedFlag& operator=(const ScopedFlag&) = delete;

 private:
  bool& flag_;
  bool saved_;
};

/// Loads the journal for boot recovery. Throws StorageError when storage
/// is not configured (`durable` null).
[[nodiscard]] storage::RecoveredLog load_journal(
    storage::DurableStore* durable, const storage::RecoveryOptions& options);

/// Ends boot recovery: counts the replayed records and re-anchors the
/// convergence monitor at the recovered epoch.
void note_recovered(std::size_t records, std::uint64_t epoch);

/// Runs one replay step and reports every plan/seal failure (bad
/// auth_master, wrong config, tape exhaustion) as ReplayDivergenceError:
/// all mean this process cannot reproduce the journaled state. Storage
/// errors pass through unchanged.
void as_divergence(const std::function<void()>& step);

/// Re-plans a journaled join, leave or batch through the server's own
/// planners and checks the answer matches the journal: one user per
/// join/leave, the join granted, the batch admitting exactly the journaled
/// joiners. Throws ReplayDivergenceError otherwise, and for kPreload
/// records (the sharded server rebuilds those itself).
void replay_plan(
    const storage::JournalRecord& record,
    const std::function<JoinResult(UserId)>& join,
    const std::function<void(UserId)>& leave,
    const std::function<std::vector<UserId>(const std::vector<UserId>&,
                                            const std::vector<UserId>&)>&
        batch);

/// Throws ReplayDivergenceError when a replayed plan left bytes of its
/// `stream` tape unread: it did less work than the original.
void expect_drained(const crypto::RngTape& tape, const char* stream,
                    const storage::JournalRecord& record);

/// Throws ReplayDivergenceError when the replayed op landed on an epoch
/// other than the journaled one.
void expect_epoch(std::uint64_t replayed,
                  const storage::JournalRecord& record);

/// Post-seal half of replay: checks the sealed digest (when `options` ask),
/// then remember()s the datagrams exactly as the original dispatch did,
/// untraced, so a promoted replica serves pre-failover NACKs warm. No
/// transport, no stats, no publish.
void absorb_replayed(const storage::JournalRecord& record,
                     const storage::RecoveryOptions& options,
                     const std::vector<rekey::SealedRekey>& sealed,
                     const TreeViewPtr& view,
                     const std::vector<TreeViewPtr>& views,
                     rekey::RetransmitWindow& window);

}  // namespace keygraphs::server::detail
