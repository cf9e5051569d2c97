#include "server/server.h"

#include <algorithm>
#include <limits>
#include <span>
#include <string>

#include "common/error.h"
#include "common/io.h"
#include "crypto/sha256.h"
#include "rekey/batch.h"
#include "server/sharded_server.h"
#include "storage/errors.h"
#include "telemetry/convergence.h"

namespace keygraphs::server {

using telemetry::Stage;
using telemetry::StageCollector;
using telemetry::StageScope;

namespace {

/// Reserved shard_seed lane for the root layer's rng, far outside any
/// realistic shard index.
constexpr std::uint64_t kRootRngLane = 999983;

/// Preload admits in bounded batch_update chunks: BatchRecord materializes
/// every joiner's keyset, so one million-user update would hold the whole
/// group's path key material at once. 8192 keeps the record and the
/// per-chunk view publish both small while amortizing the per-publish
/// node copy.
constexpr std::size_t kPreloadChunk = 8192;

telemetry::Gauge* lane_gauge(std::size_t shard, const char* what) {
  return &telemetry::Registry::global().gauge(
      "shard." + std::to_string(shard) + "." + what);
}

/// Adds `n` to counter rekey.retransmit.<name> when telemetry is on.
void count_retransmit(const char* name, std::size_t n = 1) {
  if (!telemetry::enabled()) return;
  telemetry::Registry::global()
      .counter(std::string("rekey.retransmit.") + name)
      .add(n);
}

/// `users` grouped by the shard each one routes to, in input order.
std::vector<std::vector<UserId>> by_shard(const ShardedKeyTree& tree,
                                          const std::vector<UserId>& users) {
  std::vector<std::vector<UserId>> out(tree.shard_count());
  for (const UserId user : users) out[tree.shard_of(user)].push_back(user);
  return out;
}

/// sha256 over the concatenated sealed wire bytes, in message order — the
/// journal's replay-divergence check value.
Bytes sealed_digest(const std::vector<rekey::SealedRekey>& sealed) {
  crypto::Sha256 digest;
  for (const rekey::SealedRekey& message : sealed) {
    digest.update(message.wire);
  }
  return digest.finish();
}

[[noreturn]] void diverged(const std::string& what) {
  throw storage::ReplayDivergenceError("replay: " + what);
}

/// Throws ReplayDivergenceError when a replayed plan left bytes of its
/// `stream` tape unread: it did less work than the original.
void expect_drained(const crypto::RngTape& tape, const char* stream,
                    const storage::JournalRecord& record) {
  if (tape.remaining() == 0) return;
  diverged("epoch " + std::to_string(record.epoch) + " (sequence " +
           std::to_string(record.sequence) + ") left " +
           std::to_string(tape.remaining()) + " " + stream +
           " rng tape bytes unread");
}

/// A fresh trace context for one `kind` operation when `propagate` is set
/// and telemetry is on; inactive otherwise. Replayed operations are
/// reconstructions and pass propagate = false: tracing them would
/// double-count the original dispatch.
telemetry::TraceContext begin_trace(bool propagate, rekey::RekeyKind kind) {
  telemetry::TraceContext trace;
  if (!propagate || !telemetry::enabled()) return trace;
  trace.trace_id = telemetry::next_trace_id();
  trace.op_kind = static_cast<std::uint8_t>(kind);
  return trace;
}

/// One pipeline phase of a traced operation: binds `trace` to this thread
/// and, when it is active, records the phase as span `name`.
class TracedPhase {
 public:
  TracedPhase(const telemetry::TraceContext& trace, const char* name)
      : binding_(trace, telemetry::kServerProcess) {
    if (trace.active()) span_.emplace(name);
  }

 private:
  telemetry::TraceBinding binding_;
  std::optional<telemetry::ScopedSpan> span_;
};

/// Parks one epoch's framed datagrams in `window` so a later NACK replays
/// these exact bytes; datagram i stays pinned to `views[i]`, the view its
/// subgroup was addressed against. No-op when the window is off.
void remember(rekey::RetransmitWindow& window, std::uint64_t epoch,
              const TreeViewPtr& view,
              const std::vector<rekey::SealedRekey>& sealed,
              std::vector<Bytes> datagrams,
              const std::vector<TreeViewPtr>& views) {
  if (!window.enabled()) return;
  std::vector<rekey::StoredDatagram> stored;
  stored.reserve(sealed.size());
  for (std::size_t i = 0; i < sealed.size(); ++i) {
    stored.push_back(
        rekey::StoredDatagram{sealed[i].to, std::move(datagrams[i]), views[i]});
  }
  window.record(epoch, view, std::move(stored));
}

/// Stamps one epoch's headers onto every planned message.
void stamp_headers(std::span<rekey::PlannedRekey> messages, GroupId group,
                   std::uint64_t epoch, std::uint64_t timestamp_us,
                   rekey::RekeyKind kind, const std::vector<KeyId>& obsolete) {
  const StageScope scope(Stage::kSerialize);
  for (rekey::PlannedRekey& message : messages) {
    message.header.group = group;
    message.header.epoch = epoch;
    message.header.timestamp_us = timestamp_us;
    message.header.kind = kind;
    message.header.obsolete = obsolete;
  }
}

/// Frames each sealed message as a kRekey datagram carrying `extension`.
std::vector<Bytes> frame(
    const std::vector<rekey::SealedRekey>& sealed,
    const std::optional<rekey::TraceExtension>& extension) {
  std::vector<Bytes> datagrams;
  datagrams.reserve(sealed.size());
  for (const rekey::SealedRekey& message : sealed) {
    datagrams.push_back(
        rekey::Datagram{rekey::MessageType::kRekey, message.wire, extension}
            .encode());
  }
  return datagrams;
}

void accumulate(telemetry::StageBreakdown& total,
                const telemetry::StageBreakdown& part) {
  for (std::size_t i = 0; i < telemetry::kStageCount; ++i) {
    total[i] += part[i];
  }
}

Bytes encode_snapshot(std::uint64_t epoch, const TreeView& view) {
  ByteWriter writer;
  writer.u64(epoch);
  writer.var_bytes(view.serialize());
  return writer.take();
}

}  // namespace

ServerConfig ServerConfig::star(ServerConfig base) {
  base.tree_degree = std::numeric_limits<int>::max();
  return base;
}

ServerConfig ServerConfig::star() { return star(ServerConfig{}); }

// --- Dispatch tickets -----------------------------------------------------

GroupKeyServer::DispatchTicket& GroupKeyServer::DispatchTicket::operator=(
    DispatchTicket&& other) noexcept {
  if (this != &other) {
    retire();
    server_ = std::exchange(other.server_, nullptr);
    epoch_ = other.epoch_;
  }
  return *this;
}

void GroupKeyServer::DispatchTicket::retire() noexcept {
  if (server_ == nullptr) return;
  GroupKeyServer& server = *std::exchange(server_, nullptr);
  const std::lock_guard<std::mutex> lock(server.sequence_mutex_);
  server.retired_.insert(epoch_);
  while (server.retired_.erase(server.next_dispatch_) != 0) {
    ++server.next_dispatch_;
  }
  server.sequence_cv_.notify_all();
}

// --- Construction ---------------------------------------------------------

GroupKeyServer::GroupKeyServer(ServerConfig config,
                               transport::ServerTransport& transport,
                               AccessControl acl)
    : GroupKeyServer(ShardedServerConfig{std::move(config), 1}, transport,
                     std::move(acl)) {}

GroupKeyServer::GroupKeyServer(ShardedServerConfig config,
                               transport::ServerTransport& transport,
                               AccessControl acl)
    : config_(std::move(config.base)),
      transport_(transport),
      acl_(std::move(acl)),
      auth_(config_.auth_master),
      tree_(std::make_unique<ShardedKeyTree>(
          config_.tree_degree, config_.suite.key_size(),
          std::max<std::size_t>(config.shards, 1), config_.rng_seed)),
      strategy_(rekey::make_strategy(config_.strategy)),
      lanes_(tree_->shard_count()),
      root_rng_(shard_seed(config_.rng_seed, kRootRngLane) == 0
                    ? crypto::SecureRandom()
                    : crypto::SecureRandom(
                          shard_seed(config_.rng_seed, kRootRngLane))),
      retransmit_(config_.retransmit_window),
      limiter_(config_.recovery_rate, config_.recovery_burst),
      // One admission lane per shard, so a flash crowd (or slow seal) in
      // one shard sheds there while its siblings keep admitting.
      gate_(config_.overload, tree_->shard_count()) {
  const std::size_t shards = shard_count();
  for (std::size_t i = 0; i < shards; ++i) {
    Lane& lane = lanes_[i];
    lane.executor = std::make_unique<rekey::RekeyExecutor>(
        config_.suite.cipher, config_.seal_threads,
        config_.schedule_cache_capacity);
    lane.users = lane_gauge(i, "users");
    lane.epoch = lane_gauge(i, "epoch");
    lane.seal_us = lane_gauge(i, "seal_us");
    shard_views_.push_back(shard_view(i));
  }
  auto& registry = telemetry::Registry::global();
  fleet_users_ = &registry.gauge("shard.users");
  fleet_epoch_ = &registry.gauge("shard.epoch");
  fleet_seal_us_ = &registry.gauge("shard.seal_us");
  registry.gauge("server.shards").set(static_cast<std::int64_t>(shards));

  // At K > 1 the root layer owns the group key G from birth (version 0,
  // refreshed on every epoch). Drawn before the signer so the root rng
  // stream layout is fixed.
  if (shards > 1) group_secret_ = root_rng_.bytes(config_.suite.key_size());
  set_signing_mode(config_.signing);

  // One journal lane per shard: lanes append independently under their
  // dispatch tickets, and the global commit sequence (assigned inside
  // DurableStore::append) stitches them back into total order at recovery.
  if (config_.storage.enabled()) {
    durable_ = std::make_unique<storage::DurableStore>(
        storage::make_backend(config_.storage, shards),
        config_.storage.snapshot_interval);
  }
}

std::uint64_t GroupKeyServer::now_us() const {
  // Replay pins the clock to the journaled timestamp: signatures cover it,
  // so reproducing the original sealed bytes requires the original time.
  if (replaying_) return pinned_clock_us_;
  if (config_.clock_us) return config_.clock_us();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

void GroupKeyServer::set_signing_mode(rekey::SigningMode mode) {
  if (mode == rekey::SigningMode::kPerMessage ||
      mode == rekey::SigningMode::kBatch) {
    if (!config_.suite.signs()) {
      throw ProtocolError("server: signing mode set but suite has no RSA");
    }
    if (!signer_) {
      // K = 1 draws the signer from the tree's rng right after the tree
      // root; a sharded server draws it from the root rng after G.
      crypto::SecureRandom& rng =
          shard_count() == 1 ? tree_->rng(0) : root_rng_;
      signer_ = std::make_unique<crypto::RsaPrivateKey>(
          crypto::RsaPrivateKey::generate(
              rng, crypto::signature_modulus_bits(config_.suite.signature)));
    }
  }
  config_.signing = mode;
  sealer_ = std::make_unique<rekey::RekeySealer>(
      mode, config_.suite.signing_digest(), signer_.get());
}

SymmetricKey GroupKeyServer::shared_key_locked() const {
  return SymmetricKey{kSharedGroupKeyId, group_version_, group_secret_};
}

void GroupKeyServer::adopt_views() {
  const std::lock_guard<std::mutex> lock(root_mutex_);
  for (std::size_t shard = 0; shard < shard_count(); ++shard) {
    shard_views_[shard] = shard_view(shard);
  }
}

// --- Membership entry points ----------------------------------------------

// Each entry point runs the three phases back to back; seal() and
// dispatch() do nothing when the plan phase planned nothing.

template <typename Result>
Result GroupKeyServer::run(Result planned, PendingRekey& pending) {
  seal(pending);
  dispatch(std::move(pending));
  return planned;
}

JoinResult GroupKeyServer::join(UserId user) {
  PendingRekey pending;
  return run(plan_join(user, pending), pending);
}

JoinResult GroupKeyServer::join_with_token(UserId user, BytesView token) {
  PendingRekey pending;
  return run(plan_join_with_token(user, token, pending), pending);
}

void GroupKeyServer::leave(UserId user) {
  PendingRekey pending;
  plan_leave(user, pending);
  run(true, pending);
}

bool GroupKeyServer::leave_with_token(UserId user, BytesView token) {
  PendingRekey pending;
  return run(plan_leave_with_token(user, token, pending), pending);
}

std::vector<UserId> GroupKeyServer::batch(
    const std::vector<UserId>& join_users,
    const std::vector<UserId>& leave_users) {
  const auto joins_by_shard = by_shard(*tree_, join_users);
  const auto leaves_by_shard = by_shard(*tree_, leave_users);
  std::vector<UserId> admitted;
  for (std::size_t shard = 0; shard < shard_count(); ++shard) {
    if (joins_by_shard[shard].empty() && leaves_by_shard[shard].empty()) {
      continue;
    }
    PendingRekey pending;
    const std::vector<UserId> shard_admitted =
        run(plan_shard_batch(shard, joins_by_shard[shard],
                             leaves_by_shard[shard], pending),
            pending);
    admitted.insert(admitted.end(), shard_admitted.begin(),
                    shard_admitted.end());
  }
  return admitted;
}

void GroupKeyServer::resync(UserId user) {
  PendingRekey pending;
  plan_resync(user, pending);
  run(true, pending);
}

bool GroupKeyServer::resync_with_token(UserId user, BytesView token) {
  PendingRekey pending;
  return run(plan_resync_with_token(user, token, pending), pending);
}

// --- Planning -------------------------------------------------------------

template <typename Mutate, typename Plan>
void GroupKeyServer::plan_mutation(std::size_t shard, PendingRekey& pending,
                                   const StageCollector& stages,
                                   rekey::RekeyKind kind,
                                   storage::OpKind journal_kind,
                                   const std::vector<UserId>& joins,
                                   const std::vector<UserId>& leaves,
                                   Mutate&& mutate, Plan&& plan) {
  // Record every lane-rng byte the plan draws (tree keygen + planner IVs):
  // the tape is what makes a journal replay byte-identical on any replica.
  // Root-layer draws are captured separately inside stitch.
  std::optional<crypto::RngCapture> capture;
  if (durable_ != nullptr && !replaying_) capture.emplace(tree_->rng(shard));

  pending.trace = begin_trace(config_.trace_propagation && !replaying_, kind);
  const TracedPhase phase(pending.trace, "rekey.plan");

  pending.started = std::chrono::steady_clock::now();
  const auto record = [&] {
    const StageScope scope(Stage::kTreeUpdate);  // keygen nests inside
    return mutate();
  }();
  pending.view = shard_view(shard);
  rekey::RekeyPlanner planner(config_.suite.cipher, tree_->rng(shard),
                              pending.view);
  std::vector<rekey::PlannedRekey> messages;
  {
    const StageScope scope(Stage::kEncrypt);  // symbolic wraps + IV draws
    messages = plan(record, planner);
  }
  Bytes root_tape = stitch(pending, shard, planner, std::move(messages),
                           kind, record.removed_nodes);
  if (capture) {
    pending.commit = std::make_unique<storage::JournalRecord>();
    storage::JournalRecord& commit = *pending.commit;
    commit.kind = journal_kind;
    commit.epoch = pending.epoch;
    commit.shard = static_cast<std::uint32_t>(shard);
    commit.timestamp_us = pending.timestamp_us;
    commit.joins = joins;
    commit.leaves = leaves;
    commit.rng_tape = capture->take();
    commit.root_tape = std::move(root_tape);
  }
  // A departed member no longer owes convergence; drop its lag gauge.
  // Replay skips this: the monitor belongs to the live timeline (an
  // in-process standby shares it with the primary).
  if (telemetry::enabled() && !replaying_) {
    for (const UserId leaver : leaves) {
      telemetry::ConvergenceMonitor::global().forget_user(leaver);
    }
  }
  pending.stage_us = stages.breakdown();
}

JoinResult GroupKeyServer::plan_join(UserId user, PendingRekey& pending) {
  StageCollector stages;
  const std::size_t shard = shard_of(user);
  const std::lock_guard<std::mutex> lock(lanes_[shard].mutex);
  KeyTree& tree = tree_->shard(shard);
  Bytes individual_key;
  {
    // Authentication/admission is excluded from the measured processing
    // time, as in the paper, but attributed to the auth stage; the
    // individual key is the session key that exchange produced.
    const StageScope scope(Stage::kAuth);
    if (!acl_.authorizes(user)) return JoinResult::kDenied;
    if (tree.has_user(user)) return JoinResult::kDuplicate;
    individual_key = auth_.individual_key(user, config_.suite.key_size());
  }
  plan_mutation(
      shard, pending, stages, rekey::RekeyKind::kJoin, storage::OpKind::kJoin,
      {user}, {}, [&] { return tree.join(user, std::move(individual_key)); },
      [&](const JoinRecord& record, rekey::RekeyPlanner& planner) {
        return strategy_->plan_join(record, planner);
      });
  return JoinResult::kGranted;
}

JoinResult GroupKeyServer::plan_join_with_token(UserId user, BytesView token,
                                                PendingRekey& pending) {
  if (!auth_.verify_join_token(user, token)) {
    if (telemetry::enabled()) {
      static auto& denied =
          telemetry::Registry::global().counter("server.auth_denied");
      denied.add(1);
    }
    return JoinResult::kDenied;
  }
  return plan_join(user, pending);
}

void GroupKeyServer::plan_leave(UserId user, PendingRekey& pending) {
  StageCollector stages;
  const std::size_t shard = shard_of(user);
  const std::lock_guard<std::mutex> lock(lanes_[shard].mutex);
  KeyTree& tree = tree_->shard(shard);
  plan_mutation(
      shard, pending, stages, rekey::RekeyKind::kLeave,
      storage::OpKind::kLeave, {}, {user},
      [&] { return tree.leave(user); },  // throws: non-member
      [&](const LeaveRecord& record, rekey::RekeyPlanner& planner) {
        return strategy_->plan_leave(record, planner);
      });
}

bool GroupKeyServer::plan_leave_with_token(UserId user, BytesView token,
                                           PendingRekey& pending) {
  if (!auth_.verify_leave_token(user, token)) return false;
  if (!has_member(user)) return false;
  plan_leave(user, pending);
  return true;
}

std::vector<UserId> GroupKeyServer::plan_batch(
    const std::vector<UserId>& join_users,
    const std::vector<UserId>& leave_users, PendingRekey& pending) {
  if (shard_count() != 1) {
    throw ProtocolError("plan_batch: a sharded server batches via batch()");
  }
  return plan_shard_batch(0, join_users, leave_users, pending);
}

std::vector<UserId> GroupKeyServer::plan_shard_batch(
    std::size_t shard, const std::vector<UserId>& join_users,
    const std::vector<UserId>& leave_users, PendingRekey& pending) {
  StageCollector stages;
  const std::lock_guard<std::mutex> lock(lanes_[shard].mutex);
  KeyTree& tree = tree_->shard(shard);
  std::vector<std::pair<UserId, Bytes>> joins;
  std::vector<UserId> admitted;
  {
    const StageScope scope(Stage::kAuth);
    for (UserId user : join_users) {
      if (!acl_.authorizes(user) || tree.has_user(user)) continue;
      joins.emplace_back(user,
                         auth_.individual_key(user, config_.suite.key_size()));
      admitted.push_back(user);
    }
  }
  // Admits and removes nobody: no mutation, no epoch, no datagram.
  if (joins.empty() && leave_users.empty()) return admitted;
  // The journal stores the *admitted* joiners, not the requested list:
  // replay re-admits exactly these and checks it got the same answer.
  plan_mutation(
      shard, pending, stages, rekey::RekeyKind::kBatch,
      storage::OpKind::kBatch, admitted, leave_users,
      [&] { return tree.batch_update(joins, leave_users); },
      [](const BatchRecord& record, rekey::RekeyPlanner& planner) {
        return rekey::plan_batch(record, planner);
      });
  return admitted;
}

Bytes GroupKeyServer::stitch(PendingRekey& pending, std::size_t shard,
                             rekey::RekeyPlanner& planner,
                             std::vector<rekey::PlannedRekey> messages,
                             rekey::RekeyKind kind,
                             const std::vector<KeyId>& obsolete) {
  const std::size_t shards = shard_count();
  const std::size_t block = crypto::cipher_block_size(config_.suite.cipher);
  const TreeViewPtr& view = pending.view;

  // Take the plan before the root critical section: the shared-key append
  // below needs to know each message's wrapping shape, and none of this
  // inspection needs the root lock.
  pending.plan = planner.take(std::move(messages));
  const std::size_t lane_messages = pending.plan.messages.size();
  // Classify lane messages by how their recipients decrypt:
  //   member messages (wrapped under tree keys) learn the new shard root
  //   from their own blobs, so G rides along wrapped under that root;
  //   individually-keyed messages (welcomes / keyset replays, every blob
  //   under one individual key) must stay all-individual so the client's
  //   keyset-replay jump-sync detection keeps working — G is wrapped under
  //   the same individual key instead.
  std::vector<std::size_t> member_messages;
  std::vector<std::size_t> welcome_messages;
  if (shards > 1) {
    for (std::size_t i = 0; i < lane_messages; ++i) {
      const auto& ops = pending.plan.messages[i].ops;
      if (ops.empty()) continue;
      bool individual = true;
      for (const std::uint32_t op : ops) {
        individual &= (pending.plan.ops[op].wrap.id >> 63) != 0;
      }
      (individual ? welcome_messages : member_messages).push_back(i);
    }
  }

  struct Broadcast {
    SymmetricKey root;
    TreeViewPtr view;
    Bytes iv;
  };
  std::vector<Broadcast> broadcasts;
  SymmetricKey shared;
  Bytes lane_iv;
  std::vector<Bytes> welcome_ivs;
  Bytes root_tape;
  {
    // The root critical section: allocate the epoch, record this shard's
    // new root, refresh G and capture the *other* shards' roots exactly as
    // of this epoch. Because capture happens under the same lock as
    // allocation, an epoch never wraps G under a shard root newer than the
    // one its clients hold at that point of the stitched stream.
    const std::lock_guard<std::mutex> lock(root_mutex_);
    // Root-rng draws interleave across shards in epoch order, which no
    // single lane's replay could reproduce — so each record carries its
    // own slice of the root stream (G refresh + stitch IVs) as a second
    // tape, recorded under the same lock that orders the draws.
    std::optional<crypto::RngCapture> root_capture;
    if (durable_ != nullptr && !replaying_) root_capture.emplace(root_rng_);
    pending.epoch = ++epoch_;
    pending.ticket = DispatchTicket(*this, pending.epoch);
    shard_views_[shard] = view;
    pending.fleet = 0;
    for (const TreeViewPtr& v : shard_views_) pending.fleet += v->user_count();
    if (shards > 1) {
      group_secret_ = root_rng_.bytes(config_.suite.key_size());
      group_version_ = static_cast<KeyVersion>(pending.epoch);
      shared = shared_key_locked();
      if (!member_messages.empty()) lane_iv = root_rng_.bytes(block);
      welcome_ivs.reserve(welcome_messages.size());
      for (std::size_t i = 0; i < welcome_messages.size(); ++i) {
        welcome_ivs.push_back(root_rng_.bytes(block));
      }
      for (std::size_t j = 0; j < shards; ++j) {
        if (j == shard || shard_views_[j]->user_count() == 0) continue;
        broadcasts.push_back(
            Broadcast{shard_views_[j]->group_key(), shard_views_[j],
                      root_rng_.bytes(block)});
      }
    }
    if (root_capture) root_tape = root_capture->take();
  }

  pending.shard = shard;
  if (pending.trace.active()) pending.trace.epoch = pending.epoch;
  pending.timestamp_us = now_us();
  stamp_headers(pending.plan.messages, config_.group, pending.epoch,
                pending.timestamp_us, kind, obsolete);
  pending.views.assign(lane_messages, view);

  if (shards > 1) {
    const StageScope scope(Stage::kEncrypt);  // shared-key wraps
    pending.plan.keys.add(shared);
    // Ride-along blob on every member message: G_E wrapped under this
    // shard's new root. Clients unwrap it in the same fixpoint pass that
    // gives them the new root — no extra message for the mutated shard.
    if (!member_messages.empty()) {
      const auto op_index = static_cast<std::uint32_t>(pending.plan.ops.size());
      pending.plan.ops.push_back(rekey::WrapOp{
          view->group_key().ref(), {shared.ref()}, std::move(lane_iv)});
      pending.plan.key_encryptions += 1;
      for (const std::size_t i : member_messages) {
        pending.plan.messages[i].ops.push_back(op_index);
      }
    }
    // Welcomes stay wrapped entirely under the recipient's individual key
    // (one G wrap per welcome), preserving keyset-replay semantics.
    for (std::size_t w = 0; w < welcome_messages.size(); ++w) {
      const std::size_t i = welcome_messages[w];
      const KeyRef individual =
          pending.plan.ops[pending.plan.messages[i].ops.front()].wrap;
      const auto op_index = static_cast<std::uint32_t>(pending.plan.ops.size());
      pending.plan.ops.push_back(rekey::WrapOp{
          individual, {shared.ref()}, std::move(welcome_ivs[w])});
      pending.plan.key_encryptions += 1;
      pending.plan.messages[i].ops.push_back(op_index);
    }
    // One broadcast per other populated shard: G_E under that shard's
    // current root, multicast to its root's subgroup.
    for (Broadcast& b : broadcasts) {
      pending.plan.keys.add(b.root);
      const auto op_index = static_cast<std::uint32_t>(pending.plan.ops.size());
      pending.plan.ops.push_back(
          rekey::WrapOp{b.root.ref(), {shared.ref()}, std::move(b.iv)});
      pending.plan.key_encryptions += 1;
      rekey::PlannedRekey& update = pending.plan.messages.emplace_back();
      update.to = rekey::Recipient::to_subgroup(b.root.id);
      update.header.strategy = config_.strategy;
      update.ops.push_back(op_index);
      pending.views.push_back(std::move(b.view));
    }
    stamp_headers(std::span(pending.plan.messages).subspan(lane_messages),
                  config_.group, pending.epoch, pending.timestamp_us, kind, {});
  }
  pending.op.kind = kind;
  pending.op.key_encryptions = pending.plan.key_encryptions;
  return root_tape;
}

void GroupKeyServer::plan_resync(UserId user, PendingRekey& pending) {
  if (!plan_replay(user, pending)) {
    throw ProtocolError("resync for non-member user " + std::to_string(user));
  }
}

bool GroupKeyServer::plan_resync_with_token(UserId user, BytesView token,
                                            PendingRekey& pending) {
  if (!auth_.verify_resync_token(user, token)) return false;
  return plan_replay(user, pending);
}

bool GroupKeyServer::plan_replay(UserId user, PendingRekey& pending) {
  StageCollector stages;
  const std::size_t shard = shard_of(user);
  TreeViewPtr view;
  std::optional<SymmetricKey> shared;
  {
    // The root layer publishes each shard's view, the epoch and G together,
    // so the replay plans on one consistent state with no lane lock.
    const std::lock_guard<std::mutex> lock(root_mutex_);
    view = shard_views_[shard];
    pending.epoch = epoch_;
    if (shard_count() > 1) shared = shared_key_locked();
  }
  if (!view->has_user(user)) return false;
  pending.trace = begin_trace(config_.trace_propagation && !replaying_,
                              rekey::RekeyKind::kResync);
  const TracedPhase phase(pending.trace, "rekey.plan");
  pending.started = std::chrono::steady_clock::now();
  pending.shard = shard;
  pending.view = view;
  std::vector<SymmetricKey> keys;
  {
    const StageScope scope(Stage::kTreeUpdate);  // view read, no mutation
    keys = view->keyset(user);
  }
  rekey::RekeyPlanner planner(config_.suite.cipher, tree_->rng(shard), view);
  std::vector<rekey::PlannedRekey> messages(1);
  {
    const StageScope scope(Stage::kEncrypt);
    rekey::PlannedRekey& welcome = messages.front();
    welcome.header.strategy = config_.strategy;
    std::vector<SymmetricKey> path(keys.begin() + 1, keys.end());
    if (shared) path.push_back(*shared);
    if (!path.empty()) welcome.ops.push_back(planner.wrap(keys.front(), path));
    welcome.to = rekey::Recipient::to_user(user);
  }
  // A replay of current state, not a new operation: no epoch advance, and
  // the wire message stays welcome-shaped (kJoin) so clients need no new
  // message kind. Only the OpRecord says kResync.
  if (pending.trace.active()) pending.trace.epoch = pending.epoch;
  pending.timestamp_us = now_us();
  stamp_headers(messages, config_.group, pending.epoch, pending.timestamp_us,
                rekey::RekeyKind::kJoin, {});
  pending.plan = planner.take(std::move(messages));
  pending.views.assign(1, view);
  pending.op.kind = rekey::RekeyKind::kResync;
  pending.op.key_encryptions = pending.plan.key_encryptions;
  pending.stage_us = stages.breakdown();
  if (telemetry::enabled()) {
    static auto& resyncs =
        telemetry::Registry::global().counter("server.resyncs");
    resyncs.add(1);
  }
  return true;
}

// --- Seal + sequenced dispatch ----------------------------------------------

void GroupKeyServer::seal(PendingRekey& pending) {
  if (!pending.view) return;  // nothing planned
  StageCollector stages;
  const TracedPhase phase(pending.trace, "rekey.seal");
  const auto seal_started = std::chrono::steady_clock::now();
  pending.sealed = lanes_[pending.shard].executor->seal(pending.plan, *sealer_);
  pending.seal_us = std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - seal_started)
                        .count();
  // Seal-stage latency is an overload pressure signal: a lane whose EWMA
  // blows past degrade_seal_us trips its own circuit breaker (the "one
  // slow shard" case) and drives the health machine toward batching.
  if (gate_.enabled() && !replaying_) {
    gate_.note_seal(pending.shard, static_cast<std::uint64_t>(pending.seal_us),
                    now_us());
  }
  accumulate(pending.stage_us, stages.breakdown());
}

void GroupKeyServer::dispatch(PendingRekey&& pending) {
  if (!pending.view) return;  // a batch that admitted and removed nobody
  const TracedPhase phase(pending.trace, "rekey.dispatch");
  // A resync holds no ticket: it is not part of the stitched epoch stream
  // and goes out whenever the dispatch lock is free. Everything else waits
  // for its epoch's turn; no later epoch can go out before this ticket
  // retires.
  if (pending.ticket.held()) {
    std::unique_lock<std::mutex> order(sequence_mutex_);
    sequence_cv_.wait(order, [&] { return next_dispatch_ == pending.epoch; });
  }
  {
    const std::lock_guard<std::mutex> lock(dispatch_mutex_);
    dispatch_locked(pending);
  }
  pending.ticket.retire();
}

void GroupKeyServer::dispatch_locked(PendingRekey& pending) {
  StageCollector stages;
  OpRecord op = pending.op;
  op.signatures = sealer_->signatures_for(pending.sealed.size());
  const bool resync = op.kind == rekey::RekeyKind::kResync;
  // Write-ahead commit: the record (with its sealed digest) is durable on
  // this shard's lane before any datagram leaves or the epoch is
  // published. A crash after the append replays the op; a crash before it
  // means no client ever saw the epoch. Tickets are held in epoch order,
  // so the global commit sequence the append assigns is in epoch order.
  if (pending.commit != nullptr) {
    pending.commit->sealed_digest = sealed_digest(pending.sealed);
    durable_->append(*pending.commit);
  }
  // The publish timestamp for fleet convergence: recorded before the first
  // delivery, because in-process transports apply on the client inside
  // deliver() and an apply must never precede its publish. Resyncs replay
  // an already-published epoch, so they never re-publish it.
  if (telemetry::enabled() && !resync && !pending.plan.messages.empty()) {
    telemetry::ConvergenceMonitor::global().note_publish(
        pending.epoch, now_us() * 1000, pending.fleet);
  }

  std::optional<rekey::TraceExtension> extension;
  if (pending.trace.active()) {
    extension = rekey::TraceExtension{pending.trace.trace_id,
                                      pending.trace.epoch,
                                      pending.trace.op_kind};
  }
  const std::vector<rekey::SealedRekey>& sealed = pending.sealed;
  std::vector<Bytes> datagrams;
  {
    const StageScope scope(Stage::kSerialize);
    datagrams = frame(sealed, extension);
  }
  op.messages = sealed.size();
  op.min_message = sealed.empty() ? 0 : std::numeric_limits<std::size_t>::max();
  for (const Bytes& datagram : datagrams) {
    op.bytes += datagram.size();
    op.min_message = std::min(op.min_message, datagram.size());
    op.max_message = std::max(op.max_message, datagram.size());
  }
  {
    // One burst per operation: gather-capable transports (UDP sendmmsg)
    // amortize the syscall. Each subgroup resolves on the view it was
    // planned against, immune to mutations planned since.
    const StageScope scope(Stage::kSend);
    std::vector<transport::ServerTransport::OutboundDatagram> items;
    items.reserve(sealed.size());
    for (std::size_t i = 0; i < sealed.size(); ++i) {
      const rekey::Recipient to = sealed[i].to;
      items.push_back({to, datagrams[i], [view = pending.views[i], to] {
                         return to.kind == rekey::Recipient::Kind::kUser
                                    ? std::vector<UserId>{to.user}
                                    : view->recipients(to.include, to.exclude);
                       }});
    }
    transport_.deliver_many(items);
  }
  // Resyncs stay out of the retransmit window: they re-stamp the current
  // epoch and would collide with the real rekey recorded under it.
  if (!resync && !sealed.empty()) {
    remember(retransmit_, pending.epoch, pending.view, sealed,
             std::move(datagrams), pending.views);
  }
  op.processing_us = std::chrono::duration<double, std::micro>(
                         std::chrono::steady_clock::now() - pending.started)
                         .count();
  op.stage_us = pending.stage_us;
  accumulate(op.stage_us, stages.breakdown());
  stats_.record(op);
  if (telemetry::enabled() && !resync) {
    Lane& lane = lanes_[pending.shard];
    lane.users->set(static_cast<std::int64_t>(pending.view->user_count()));
    lane.epoch->set(static_cast<std::int64_t>(pending.epoch));
    lane.seal_us->set(static_cast<std::int64_t>(pending.seal_us));
    fleet_users_->set(static_cast<std::int64_t>(pending.fleet));
    fleet_epoch_->set(static_cast<std::int64_t>(pending.epoch));
    fleet_seal_us_->set(static_cast<std::int64_t>(pending.seal_us));
  }
  // Periodic compaction (K = 1), keyed off this op's own view and epoch so
  // the snapshot matches the last journaled record even when a later plan
  // has already advanced the tree.
  if (pending.commit != nullptr && shard_count() == 1 &&
      durable_->snapshot_due()) {
    durable_->compact(pending.epoch,
                      encode_snapshot(pending.epoch, *pending.view));
  }
}

// --- Overload control -------------------------------------------------------

GateResult GroupKeyServer::offer_join(UserId user, BytesView token) {
  if (!gate_.enabled()) return {};  // kAdmit: normal path
  // Validate before consuming any admission budget: a forged token or an
  // ACL reject must never shed (or displace) honest work.
  if (!auth_.verify_join_token(user, token) || !acl_.authorizes(user)) {
    return GateResult{.denied = true};
  }
  return gate_.offer(shard_of(user), user, /*join=*/true, has_member(user),
                     now_us());
}

GateResult GroupKeyServer::offer_leave(UserId user, BytesView token) {
  if (!gate_.enabled()) return {};
  if (!auth_.verify_leave_token(user, token)) return GateResult{.denied = true};
  return gate_.offer(shard_of(user), user, /*join=*/false, has_member(user),
                     now_us());
}

OverloadTick GroupKeyServer::poll_overload() {
  return gate_.poll(
      now_us(), [this](UserId user) { return has_member(user); },
      [this](const std::vector<UserId>& joins,
             const std::vector<UserId>& leaves) {
        return batch(joins, leaves);
      });
}

// --- Recovery ---------------------------------------------------------------

NackOutcome GroupKeyServer::handle_nack(UserId user,
                                        std::uint64_t have_epoch) {
  if (!has_member(user)) {
    throw ProtocolError("nack from non-member user " + std::to_string(user));
  }
  {
    // The window is recorded under the dispatch mutex; replaying from it
    // (and the limiter beside it) shares that lock.
    const std::lock_guard<std::mutex> lock(dispatch_mutex_);
    count_retransmit("nacks");
    if (!limiter_.admit(user, now_us())) {
      count_retransmit("rate_limited");
      return NackOutcome::kRateLimited;
    }
    if (retransmit_.enabled()) {
      if (const auto replays = retransmit_.collect(user, have_epoch)) {
        count_retransmit("served");
        count_retransmit("datagrams", replays->size());
        const rekey::Recipient to = rekey::Recipient::to_user(user);
        for (const BytesView datagram : *replays) {
          // Already framed kRekey bytes; unicast them back regardless of
          // their original (subgroup) addressing.
          transport_.deliver(to, datagram,
                             [user] { return std::vector<UserId>{user}; });
        }
        return NackOutcome::kRetransmitted;
      }
      count_retransmit("out_of_window");
    }
    count_retransmit("resync_fallbacks");
  }
  resync(user);
  return NackOutcome::kResynced;
}

std::optional<NackOutcome> GroupKeyServer::nack_with_token(
    UserId user, BytesView token, std::uint64_t have_epoch) {
  if (!auth_.verify_resync_token(user, token)) return std::nullopt;
  if (!has_member(user)) return std::nullopt;
  return handle_nack(user, have_epoch);
}

// --- Bulk build -------------------------------------------------------------

void GroupKeyServer::admit_chunk(std::size_t shard,
                                 const std::vector<UserId>& users) {
  std::vector<std::pair<UserId, Bytes>> joins;
  joins.reserve(users.size());
  for (const UserId user : users) {
    joins.emplace_back(user,
                       auth_.individual_key(user, config_.suite.key_size()));
  }
  KeyTree& tree = tree_->shard(shard);
  // Preload advances no epoch, so the view keeps its epoch label.
  tree.stamp_next_epoch(tree.view()->epoch());
  tree.batch_update(joins, {});
}

void GroupKeyServer::preload(const std::vector<UserId>& users) {
  const auto users_by_shard = by_shard(*tree_, users);
  for (std::size_t shard = 0; shard < shard_count(); ++shard) {
    const KeyTree& tree = tree_->shard(shard);
    std::vector<UserId> chunk;
    // One kPreload record per chunk: epoch 0 (no rekey was sent), carrying
    // the admitted ids and the chunk's lane-rng tape so recovery rebuilds
    // the same tree bytes before replaying the epoch stream.
    const auto flush = [&] {
      if (chunk.empty()) return;
      std::optional<crypto::RngCapture> capture;
      if (durable_ != nullptr && !replaying_) {
        capture.emplace(tree_->rng(shard));
      }
      admit_chunk(shard, chunk);
      if (capture) {
        storage::JournalRecord record;
        record.kind = storage::OpKind::kPreload;
        record.shard = static_cast<std::uint32_t>(shard);
        record.timestamp_us = now_us();
        record.joins = chunk;
        record.rng_tape = capture->take();
        durable_->append(record);
      }
      chunk.clear();
    };
    for (const UserId user : users_by_shard[shard]) {
      if (!acl_.authorizes(user) || tree.has_user(user)) continue;
      chunk.push_back(user);
      if (chunk.size() == kPreloadChunk) flush();
    }
    flush();
  }
  adopt_views();
}

// --- Durable state ----------------------------------------------------------

Bytes GroupKeyServer::snapshot() const {
  if (shard_count() != 1) {
    throw ProtocolError("snapshot: a sharded server has no tree snapshot");
  }
  // The root layer publishes the view together with its epoch, so a
  // snapshot taken while a writer mutates is still internally consistent.
  TreeViewPtr view;
  std::uint64_t epoch = 0;
  {
    const std::lock_guard<std::mutex> lock(root_mutex_);
    view = shard_views_[0];
    epoch = epoch_;
  }
  return encode_snapshot(epoch, *view);
}

void GroupKeyServer::restore(BytesView snapshot) {
  if (shard_count() != 1) {
    throw ProtocolError("restore: a sharded server has no tree snapshot");
  }
  ByteReader reader(snapshot);
  const std::uint64_t epoch = reader.u64();
  const Bytes tree_bytes = reader.var_bytes();
  reader.expect_done();
  tree_->restore_shard(0, tree_bytes);  // throws before any change
  // Re-label the restored tree's view with the snapshot's group epoch.
  KeyTree& tree = tree_->shard(0);
  tree.stamp_next_epoch(epoch);
  tree.publish_view();
  adopt_views();
  {
    const std::lock_guard<std::mutex> lock(root_mutex_);
    epoch_ = epoch;
  }
  {
    const std::lock_guard<std::mutex> lock(sequence_mutex_);
    next_dispatch_ = epoch + 1;
    retired_.clear();
  }
  // The old timeline's delivery state must not survive: the retransmit
  // ring holds sealed bytes for epochs that may disagree with the restored
  // tree (serving them would hand clients stale keys), and the
  // convergence monitor's publish ring carries timestamps from before the
  // restore. Journal replay (replaying_) re-anchors the monitor once, at
  // the end of recovery, rather than per restored snapshot.
  {
    const std::lock_guard<std::mutex> lock(dispatch_mutex_);
    retransmit_.clear();
  }
  if (telemetry::enabled() && !replaying_) {
    telemetry::ConvergenceMonitor::global().restart_from(epoch);
  }
}

void GroupKeyServer::recover_from_storage(
    const storage::RecoveryOptions& options) {
  if (durable_ == nullptr) {
    throw storage::StorageError(
        "recover_from_storage: storage is not configured");
  }
  storage::RecoveredLog log = durable_->load(options);
  if (log.snapshot) {
    // Only a one-lane server compacts: there is no cross-shard snapshot
    // format, so a sharded config cannot restore this journal.
    if (shard_count() != 1) {
      throw storage::JournalCorruptError(
          "recover: journal carries a snapshot but the server is sharded");
    }
    restore(*log.snapshot);
  }
  for (const storage::JournalRecord& record : log.records) {
    replay_record(record, options);
  }
  if (telemetry::enabled()) {
    static auto& replay_ops = telemetry::Registry::global().counter(
        "storage.replay_ops", "journal records replayed during recovery");
    replay_ops.add(log.records.size());
    telemetry::ConvergenceMonitor::global().restart_from(epoch());
  }
}

void GroupKeyServer::replay_record(const storage::JournalRecord& record,
                                   const storage::RecoveryOptions& options) {
  // The standby keeps replaying_ latched across many records; restore
  // whatever the caller had, on every exit.
  struct Restore {
    bool& flag;
    bool saved;
    ~Restore() { flag = saved; }
  } const restore{replaying_, std::exchange(replaying_, true)};
  pinned_clock_us_ = record.timestamp_us;
  const std::string at = "epoch " + std::to_string(record.epoch);
  // Every plan/seal failure (bad auth_master, wrong config, tape
  // exhaustion) means this process cannot reproduce the journaled state:
  // report it as divergence. Storage errors pass through unchanged.
  try {
    const std::size_t shard = record.shard;
    if (shard >= shard_count()) {
      diverged("record names shard " + std::to_string(shard) +
               " but the server has " + std::to_string(shard_count()));
    }
    if (record.kind == storage::OpKind::kPreload) {
      if (record.epoch != 0 || !record.leaves.empty()) {
        diverged("malformed preload record (sequence " +
                 std::to_string(record.sequence) + ")");
      }
      const crypto::RngTape tape(tree_->rng(shard), record.rng_tape);
      admit_chunk(shard, record.joins);
      expect_drained(tape, "preload", record);
      adopt_views();
      return;
    }

    PendingRekey pending;
    {
      // Two tapes, two streams: the lane rng (tree mutation + plan) and
      // the root rng (G refresh + stitch IVs). Both must drain exactly; a
      // tape that runs short throws inside the drawing code.
      const crypto::RngTape tape(tree_->rng(shard), record.rng_tape);
      const crypto::RngTape root_tape(root_rng_, record.root_tape);
      const std::size_t joins = record.joins.size();
      const std::size_t leaves = record.leaves.size();
      if (record.kind == storage::OpKind::kJoin) {
        if (joins != 1 || leaves != 0 ||
            plan_join(record.joins[0], pending) != JoinResult::kGranted) {
          diverged("journaled join not granted or malformed at " + at);
        }
      } else if (record.kind == storage::OpKind::kLeave) {
        if (joins != 0 || leaves != 1) {
          diverged("malformed leave record at " + at);
        }
        plan_leave(record.leaves[0], pending);
      } else if (plan_shard_batch(shard, record.joins, record.leaves,
                                  pending) != record.joins) {
        diverged("batch at " + at +
                 " admitted a different join set than the journal");
      }
      expect_drained(tape, "lane", record);
      expect_drained(root_tape, "root", record);
    }
    if (pending.epoch != record.epoch) {
      diverged("operation landed on epoch " + std::to_string(pending.epoch) +
               " but the journal recorded " + std::to_string(record.epoch));
    }
    seal(pending);
    if (options.verify_digests &&
        sealed_digest(pending.sealed) != record.sealed_digest) {
      diverged(at + " sealed bytes diverge from the journaled digest");
    }
    // Park the datagrams exactly as the original dispatch did, untraced,
    // so a promoted replica serves pre-failover NACKs warm. No transport,
    // no stats, no publish.
    if (retransmit_.enabled() && !pending.sealed.empty()) {
      const std::lock_guard<std::mutex> lock(dispatch_mutex_);
      remember(retransmit_, pending.epoch, pending.view, pending.sealed,
               frame(pending.sealed, std::nullopt), pending.views);
    }
    // The replayed op is never delivered: dropping `pending` retires its
    // dispatch ticket, so the next record (and, after recovery, live
    // traffic) dispatches at epoch + 1.
  } catch (const storage::StorageError&) {
    throw;
  } catch (const Error& error) {
    diverged(error.what());
  }
}

// --- Introspection ----------------------------------------------------------

std::uint64_t GroupKeyServer::epoch() const {
  const std::lock_guard<std::mutex> lock(root_mutex_);
  return epoch_;
}

KeyId GroupKeyServer::root_id() const noexcept {
  return shard_count() == 1 ? tree().root_id() : kSharedGroupKeyId;
}

SymmetricKey GroupKeyServer::group_key() const {
  if (shard_count() == 1) return tree_view()->group_key();
  const std::lock_guard<std::mutex> lock(root_mutex_);
  return shared_key_locked();
}

std::vector<SymmetricKey> GroupKeyServer::keyset(UserId user) const {
  std::vector<SymmetricKey> keys = shard_view(shard_of(user))->keyset(user);
  if (shard_count() > 1) {
    const std::lock_guard<std::mutex> lock(root_mutex_);
    keys.push_back(shared_key_locked());
  }
  return keys;
}

// Membership reads go through the published views, never the live trees,
// so they stay lock-free and race-free while a lane writer mutates.
std::size_t GroupKeyServer::member_count() const {
  std::size_t total = 0;
  for (std::size_t shard = 0; shard < shard_count(); ++shard) {
    total += shard_view(shard)->user_count();
  }
  return total;
}

bool GroupKeyServer::has_member(UserId user) const {
  return shard_view(shard_of(user))->has_user(user);
}

std::vector<UserId> GroupKeyServer::resolve_subgroup(
    KeyId include, std::optional<KeyId> exclude) const {
  return tree_view()->resolve_subgroup(include, exclude);
}

}  // namespace keygraphs::server
