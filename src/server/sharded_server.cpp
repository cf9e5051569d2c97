#include "server/sharded_server.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <string>
#include <utility>

#include "common/error.h"
#include "crypto/random.h"
#include "rekey/batch.h"
#include "server/shared.h"
#include "telemetry/convergence.h"

namespace keygraphs::server {

namespace {

/// Reserved shard_seed lane for the root layer's rng, far outside any
/// realistic shard index.
constexpr std::uint64_t kRootRngLane = 999983;

telemetry::Gauge* lane_gauge(std::size_t shard, const char* what) {
  return &telemetry::Registry::global().gauge(
      "shard." + std::to_string(shard) + "." + what);
}

}  // namespace

ShardedGroupKeyServer::ShardedGroupKeyServer(
    ShardedServerConfig config, transport::ServerTransport& transport,
    AccessControl acl)
    : config_(std::move(config)),
      transport_(transport),
      acl_(std::move(acl)),
      auth_(config_.base.auth_master),
      root_rng_(shard_seed(config_.base.rng_seed, kRootRngLane) == 0
                    ? crypto::SecureRandom()
                    : crypto::SecureRandom(
                          shard_seed(config_.base.rng_seed, kRootRngLane))),
      retransmit_(config_.base.retransmit_window),
      limiter_(config_.base.recovery_rate, config_.base.recovery_burst),
      // One admission lane per shard, so a flash crowd (or slow seal) in
      // one shard sheds there while its siblings keep admitting.
      gate_(config_.base.overload, std::max<std::size_t>(config_.shards, 1)) {
  if (config_.shards == 0) config_.shards = 1;
  const ServerConfig& base = config_.base;
  tree_ = std::make_unique<ShardedKeyTree>(base.tree_degree,
                                           base.suite.key_size(),
                                           config_.shards, base.rng_seed);
  strategy_ = rekey::make_strategy(base.strategy);

  const std::size_t shards = config_.shards;
  lanes_.reserve(shards);
  shard_roots_.reserve(shards);
  shard_views_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    auto lane = std::make_unique<Lane>();
    lane->executor = std::make_unique<rekey::RekeyExecutor>(
        base.suite.cipher, base.seal_threads, base.schedule_cache_capacity);
    lane->users = lane_gauge(i, "users");
    lane->epoch = lane_gauge(i, "epoch");
    lane->seal_us = lane_gauge(i, "seal_us");
    lanes_.push_back(std::move(lane));
    const TreeViewPtr view = tree_->shard(i).view();
    shard_roots_.push_back(view->group_key());
    shard_views_.push_back(view);
  }
  auto& registry = telemetry::Registry::global();
  fleet_users_ = &registry.gauge("shard.users");
  fleet_epoch_ = &registry.gauge("shard.epoch");
  fleet_seal_us_ = &registry.gauge("shard.seal_us");
  registry.gauge("server.shards").set(static_cast<std::int64_t>(shards));

  // At K > 1 the root layer owns the group key G from birth (version 0,
  // refreshed on every epoch). Drawn before the signer so the root rng
  // stream layout is fixed.
  if (shards > 1) {
    group_secret_ = root_rng_.bytes(base.suite.key_size());
    group_version_ = 0;
  }

  if (base.signing == rekey::SigningMode::kPerMessage ||
      base.signing == rekey::SigningMode::kBatch) {
    if (!base.suite.signs()) {
      throw ProtocolError("server: signing mode set but suite has no RSA");
    }
    // K = 1 draws the signer from the lane-0 rng *after* the tree root,
    // matching GroupKeyServer's construction order exactly (same stream,
    // same key, byte-identical signatures).
    crypto::SecureRandom& signer_rng =
        shards == 1 ? tree_->rng(0) : root_rng_;
    signer_ = std::make_unique<crypto::RsaPrivateKey>(
        crypto::RsaPrivateKey::generate(
            signer_rng, crypto::signature_modulus_bits(base.suite.signature)));
  }
  sealer_ = std::make_unique<rekey::RekeySealer>(
      base.signing, base.suite.signing_digest(), signer_.get());

  // One journal lane per shard: lanes append independently under their
  // dispatch tickets, and the global commit sequence (assigned inside
  // DurableStore::append) stitches them back into total order at recovery.
  if (base.storage.enabled()) {
    durable_ = std::make_unique<storage::DurableStore>(
        storage::make_backend(base.storage, shards),
        base.storage.snapshot_interval);
  }
}

ShardedGroupKeyServer::~ShardedGroupKeyServer() = default;

std::uint64_t ShardedGroupKeyServer::now_us() const {
  if (replaying_) return pinned_clock_us_;  // journal replay pins the clock
  return detail::clock_now_us(config_.base.clock_us);
}

SymmetricKey ShardedGroupKeyServer::shared_key_locked() const {
  return SymmetricKey{kSharedGroupKeyId, group_version_, group_secret_};
}

// --- Planning -----------------------------------------------------------

template <typename Mutate, typename Plan>
void ShardedGroupKeyServer::plan_locked(
    std::size_t shard, Pending& pending, rekey::RekeyKind kind,
    storage::OpKind journal_kind, const std::vector<UserId>& joins,
    const std::vector<UserId>& leaves, Mutate&& mutate, Plan&& plan) {
  // Journal tape: every lane-rng byte the mutation + plan draw below.
  // (Root-layer draws are captured separately inside stitch.)
  std::optional<crypto::RngCapture> capture;
  if (durable_ != nullptr && !replaying_) capture.emplace(tree_->rng(shard));
  pending.started = std::chrono::steady_clock::now();
  KeyTree& tree = tree_->shard(shard);
  const auto record = mutate(tree);
  const TreeViewPtr view = tree.view();
  rekey::RekeyPlanner planner(config_.base.suite.cipher, tree_->rng(shard),
                              view);
  std::vector<rekey::PlannedRekey> messages = plan(record, planner);
  stitch(pending, shard, view, planner, std::move(messages), kind, kind,
         record.removed_nodes);
  if (capture) {
    pending.commit =
        detail::commit_record(journal_kind, pending.epoch,
                              pending.timestamp_us, joins, leaves, *capture);
    pending.commit->shard = static_cast<std::uint32_t>(shard);
    pending.commit->root_tape = std::move(pending.root_tape);
  }
  if (telemetry::enabled() && !replaying_) {
    for (const UserId leaver : leaves) {
      telemetry::ConvergenceMonitor::global().forget_user(leaver);
    }
  }
}

JoinResult ShardedGroupKeyServer::plan_join_locked(UserId user,
                                                   std::size_t shard,
                                                   Pending& pending) {
  if (!acl_.authorizes(user)) return JoinResult::kDenied;
  if (tree_->shard(shard).has_user(user)) return JoinResult::kDuplicate;
  Bytes individual_key =
      auth_.individual_key(user, config_.base.suite.key_size());
  plan_locked(
      shard, pending, rekey::RekeyKind::kJoin, storage::OpKind::kJoin, {user},
      {},
      [&](KeyTree& tree) {
        return tree.join(user, std::move(individual_key));
      },
      [&](const JoinRecord& record, rekey::RekeyPlanner& planner) {
        return strategy_->plan_join(record, planner);
      });
  return JoinResult::kGranted;
}

void ShardedGroupKeyServer::plan_leave_locked(UserId user, std::size_t shard,
                                              Pending& pending) {
  plan_locked(
      shard, pending, rekey::RekeyKind::kLeave, storage::OpKind::kLeave, {},
      {user},
      [&](KeyTree& tree) { return tree.leave(user); },  // throws: non-member
      [&](const LeaveRecord& record, rekey::RekeyPlanner& planner) {
        return strategy_->plan_leave(record, planner);
      });
}

std::vector<UserId> ShardedGroupKeyServer::plan_batch_locked(
    std::size_t shard, const std::vector<UserId>& join_users,
    const std::vector<UserId>& leave_users, Pending& pending) {
  const KeyTree& tree = tree_->shard(shard);
  std::vector<std::pair<UserId, Bytes>> joins;
  std::vector<UserId> admitted;  // post-ACL, pre-mutation order: journaled
  for (UserId user : join_users) {
    if (!acl_.authorizes(user) || tree.has_user(user)) continue;
    joins.emplace_back(user,
                       auth_.individual_key(user, config_.base.suite.key_size()));
    admitted.push_back(user);
  }
  // Entirely filtered out and nothing to remove: no mutation, no epoch.
  if (joins.empty() && leave_users.empty()) return admitted;
  plan_locked(
      shard, pending, rekey::RekeyKind::kBatch, storage::OpKind::kBatch,
      admitted, leave_users,
      [&](KeyTree& mutated) {
        return mutated.batch_update(joins, leave_users);
      },
      [](const BatchRecord& record, rekey::RekeyPlanner& planner) {
        return rekey::plan_batch(record, planner);
      });
  return admitted;
}

void ShardedGroupKeyServer::stitch(Pending& pending, std::size_t shard,
                                   TreeViewPtr view,
                                   rekey::RekeyPlanner& planner,
                                   std::vector<rekey::PlannedRekey> messages,
                                   rekey::RekeyKind op_kind,
                                   rekey::RekeyKind wire_kind,
                                   const std::vector<KeyId>& obsolete) {
  const std::size_t shards = shard_count();
  const std::size_t block = crypto::cipher_block_size(config_.base.suite.cipher);

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
  std::size_t fleet = 0;
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
    shard_roots_[shard] = view->group_key();
    shard_views_[shard] = view;
    for (const TreeViewPtr& v : shard_views_) fleet += v->user_count();
    if (shards > 1) {
      group_secret_ = root_rng_.bytes(config_.base.suite.key_size());
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
            Broadcast{shard_roots_[j], shard_views_[j], root_rng_.bytes(block)});
      }
    }
    if (root_capture) pending.root_tape = root_capture->take();
  }

  try {
    pending.shard = shard;
    pending.fleet = fleet;
    pending.lane_view = view;
    pending.trace = detail::begin_trace(
        config_.base.trace_propagation && !replaying_, op_kind);
    pending.trace.epoch = pending.epoch;
    const std::uint64_t timestamp = now_us();
    pending.timestamp_us = timestamp;
    for (rekey::PlannedRekey& message : pending.plan.messages) {
      message.header.group = config_.base.group;
      message.header.epoch = pending.epoch;
      message.header.timestamp_us = timestamp;
      message.header.kind = wire_kind;
      message.header.obsolete = obsolete;
    }
    pending.views.assign(lane_messages, view);

    if (shards > 1) {
      pending.plan.keys.add(shared);
      // Ride-along blob on every member message: G_E wrapped under this
      // shard's new root. Clients unwrap it in the same fixpoint pass that
      // gives them the new root — no extra message for the mutated shard.
      if (!member_messages.empty()) {
        const auto op_index =
            static_cast<std::uint32_t>(pending.plan.ops.size());
        pending.plan.ops.push_back(rekey::WrapOp{
            view->group_key().ref(), {shared.ref()}, std::move(lane_iv)});
        pending.plan.key_encryptions += 1;
        for (const std::size_t i : member_messages) {
          pending.plan.messages[i].ops.push_back(op_index);
        }
      }
      // Welcomes stay wrapped entirely under the recipient's individual
      // key (one G wrap per welcome), preserving keyset-replay semantics.
      for (std::size_t w = 0; w < welcome_messages.size(); ++w) {
        const std::size_t i = welcome_messages[w];
        const KeyRef individual =
            pending.plan.ops[pending.plan.messages[i].ops.front()].wrap;
        const auto op_index =
            static_cast<std::uint32_t>(pending.plan.ops.size());
        pending.plan.ops.push_back(rekey::WrapOp{
            individual, {shared.ref()}, std::move(welcome_ivs[w])});
        pending.plan.key_encryptions += 1;
        pending.plan.messages[i].ops.push_back(op_index);
      }
      // One broadcast per other populated shard: G_E under that shard's
      // current root, multicast to its root's subgroup.
      for (Broadcast& b : broadcasts) {
        pending.plan.keys.add(b.root);
        const auto op_index =
            static_cast<std::uint32_t>(pending.plan.ops.size());
        pending.plan.ops.push_back(
            rekey::WrapOp{b.root.ref(), {shared.ref()}, std::move(b.iv)});
        pending.plan.key_encryptions += 1;
        rekey::PlannedRekey update;
        update.to = rekey::Recipient::to_subgroup(b.root.id);
        update.header.group = config_.base.group;
        update.header.epoch = pending.epoch;
        update.header.timestamp_us = timestamp;
        update.header.kind = wire_kind;
        update.header.strategy = config_.base.strategy;
        update.ops.push_back(op_index);
        pending.plan.messages.push_back(std::move(update));
        pending.views.push_back(std::move(b.view));
      }
    }
    pending.op.kind = op_kind;
    pending.op.key_encryptions = pending.plan.key_encryptions;
  } catch (...) {
    retire(pending.epoch);
    throw;
  }
}

void ShardedGroupKeyServer::plan_resync(UserId user, Pending& pending) {
  const std::size_t shard = tree_->shard_of(user);
  pending.shard = shard;
  pending.started = std::chrono::steady_clock::now();
  const TreeViewPtr view = tree_->shard(shard).view();
  const std::vector<SymmetricKey> keys =
      view->keyset(user);  // throws for non-members
  std::optional<SymmetricKey> shared;
  {
    const std::lock_guard<std::mutex> lock(root_mutex_);
    pending.epoch = epoch_;
    if (shard_count() > 1) shared = shared_key_locked();
  }
  rekey::RekeyPlanner planner(config_.base.suite.cipher, tree_->rng(shard),
                              view);
  pending.trace = detail::begin_trace(
      config_.base.trace_propagation && !replaying_,
      rekey::RekeyKind::kResync);
  pending.trace.epoch = pending.epoch;
  rekey::PlannedRekey welcome;
  welcome.header.group = config_.base.group;
  welcome.header.epoch = pending.epoch;
  welcome.header.timestamp_us = now_us();
  // Welcome-shaped on the wire (kJoin); only the OpRecord says kResync —
  // same contract as the single-tree server.
  welcome.header.kind = rekey::RekeyKind::kJoin;
  welcome.header.strategy = config_.base.strategy;
  std::vector<SymmetricKey> path(keys.begin() + (keys.empty() ? 0 : 1),
                                 keys.end());
  if (shared) path.push_back(*shared);
  if (!keys.empty() && !path.empty()) {
    welcome.ops.push_back(planner.wrap(keys.front(), path));
  }
  welcome.to = rekey::Recipient::to_user(user);
  std::vector<rekey::PlannedRekey> messages;
  messages.push_back(std::move(welcome));
  pending.plan = planner.take(std::move(messages));
  pending.views.assign(1, view);
  pending.lane_view = view;
  pending.op.kind = rekey::RekeyKind::kResync;
  pending.op.key_encryptions = pending.plan.key_encryptions;
  pending.epoch = 0;  // unsequenced: dispatches directly
  if (telemetry::enabled()) {
    static auto& resyncs =
        telemetry::Registry::global().counter("server.resyncs");
    resyncs.add(1);
  }
}

// --- Seal + sequenced dispatch ------------------------------------------

void ShardedGroupKeyServer::retire(std::uint64_t epoch) {
  std::unique_lock<std::mutex> order(sequence_mutex_);
  sequence_cv_.wait(order, [&] { return next_dispatch_ == epoch; });
  ++next_dispatch_;
  sequence_cv_.notify_all();
}

void ShardedGroupKeyServer::seal_and_dispatch(Lane& lane, Pending&& pending) {
  const auto seal_started = std::chrono::steady_clock::now();
  try {
    pending.sealed = lane.executor->seal(pending.plan, *sealer_);
  } catch (...) {
    if (pending.epoch != 0) retire(pending.epoch);
    throw;
  }
  const double seal_us =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - seal_started)
          .count();
  // Per-shard seal feedback: a lane whose EWMA blows past the degrade
  // threshold trips its own circuit breaker (the "one slow shard" case).
  if (gate_.enabled() && !replaying_) {
    gate_.note_seal(pending.shard, static_cast<std::uint64_t>(seal_us),
                    now_us());
  }

  if (pending.epoch == 0) {
    // Resync: not part of the stitched epoch stream; deliver whenever the
    // dispatch lock is free.
    const std::lock_guard<std::mutex> lock(dispatch_mutex_);
    dispatch_locked(lane, pending, seal_us);
    return;
  }
  std::unique_lock<std::mutex> order(sequence_mutex_);
  sequence_cv_.wait(order, [&] { return next_dispatch_ == pending.epoch; });
  try {
    const std::lock_guard<std::mutex> lock(dispatch_mutex_);
    dispatch_locked(lane, pending, seal_us);
  } catch (...) {
    ++next_dispatch_;
    sequence_cv_.notify_all();
    throw;
  }
  ++next_dispatch_;
  sequence_cv_.notify_all();
}

void ShardedGroupKeyServer::dispatch_locked(Lane& lane, Pending& pending,
                                            double seal_us) {
  OpRecord op = pending.op;
  op.signatures = sealer_->signatures_for(pending.sealed.size());
  const bool resync = op.kind == rekey::RekeyKind::kResync;
  // Write-ahead commit: the record (with its sealed digest) is durable on
  // this shard's lane before any datagram leaves or the dispatch ticket is
  // released. Tickets are held in epoch order, so the global commit
  // sequence the append assigns is in epoch order too.
  detail::append_commit(durable_.get(), pending.commit.get(),
                        pending.sealed);
  if (telemetry::enabled() && !resync && !pending.plan.messages.empty()) {
    telemetry::ConvergenceMonitor::global().note_publish(
        pending.epoch, now_us() * 1000, pending.fleet);
  }
  std::vector<Bytes> datagrams = detail::deliver_burst(
      pending.sealed, detail::trace_extension(pending.trace),
      pending.lane_view, pending.views, transport_, op);
  // Pin the per-datagram views: broadcasts address other shards, so the
  // entry-level (lane) view cannot answer their recipient filters.
  if (!resync && !pending.sealed.empty()) {
    detail::remember(retransmit_, pending.epoch, pending.lane_view,
                     pending.sealed, std::move(datagrams), pending.views);
  }
  op.processing_us = std::chrono::duration<double, std::micro>(
                         std::chrono::steady_clock::now() - pending.started)
                         .count();
  stats_.record(op);
  if (telemetry::enabled() && !resync) {
    lane.users->set(
        static_cast<std::int64_t>(pending.lane_view->user_count()));
    lane.epoch->set(static_cast<std::int64_t>(pending.epoch));
    lane.seal_us->set(static_cast<std::int64_t>(seal_us));
    fleet_users_->set(static_cast<std::int64_t>(pending.fleet));
    fleet_epoch_->set(static_cast<std::int64_t>(pending.epoch));
    fleet_seal_us_->set(static_cast<std::int64_t>(seal_us));
  }
}

// --- Membership entry points --------------------------------------------

JoinResult ShardedGroupKeyServer::join(UserId user) {
  const std::size_t shard = tree_->shard_of(user);
  Lane& lane = *lanes_[shard];
  Pending pending;
  {
    const std::lock_guard<std::mutex> lock(lane.mutex);
    const JoinResult result = plan_join_locked(user, shard, pending);
    if (result != JoinResult::kGranted) return result;
  }
  seal_and_dispatch(lane, std::move(pending));
  return JoinResult::kGranted;
}

JoinResult ShardedGroupKeyServer::join_with_token(UserId user,
                                                  BytesView token) {
  if (!auth_.verify_join_token(user, token)) {
    if (telemetry::enabled()) {
      static auto& denied =
          telemetry::Registry::global().counter("server.auth_denied");
      denied.add(1);
    }
    return JoinResult::kDenied;
  }
  return join(user);
}

void ShardedGroupKeyServer::leave(UserId user) {
  const std::size_t shard = tree_->shard_of(user);
  Lane& lane = *lanes_[shard];
  Pending pending;
  {
    const std::lock_guard<std::mutex> lock(lane.mutex);
    plan_leave_locked(user, shard, pending);
  }
  seal_and_dispatch(lane, std::move(pending));
}

bool ShardedGroupKeyServer::leave_with_token(UserId user, BytesView token) {
  if (!auth_.verify_leave_token(user, token)) return false;
  if (!has_member(user)) return false;
  leave(user);
  return true;
}

std::vector<UserId> ShardedGroupKeyServer::batch(
    const std::vector<UserId>& join_users,
    const std::vector<UserId>& leave_users) {
  const std::size_t shards = shard_count();
  std::vector<std::vector<UserId>> joins_by_shard(shards);
  std::vector<std::vector<UserId>> leaves_by_shard(shards);
  for (UserId user : join_users) {
    joins_by_shard[tree_->shard_of(user)].push_back(user);
  }
  for (UserId user : leave_users) {
    leaves_by_shard[tree_->shard_of(user)].push_back(user);
  }
  std::vector<UserId> admitted;
  for (std::size_t shard = 0; shard < shards; ++shard) {
    if (joins_by_shard[shard].empty() && leaves_by_shard[shard].empty()) {
      continue;
    }
    Lane& lane = *lanes_[shard];
    Pending pending;
    std::vector<UserId> shard_admitted;
    {
      const std::lock_guard<std::mutex> lock(lane.mutex);
      shard_admitted = plan_batch_locked(shard, joins_by_shard[shard],
                                         leaves_by_shard[shard], pending);
    }
    if (pending.epoch != 0) seal_and_dispatch(lane, std::move(pending));
    admitted.insert(admitted.end(), shard_admitted.begin(),
                    shard_admitted.end());
  }
  return admitted;
}

// --- Overload control ----------------------------------------------------

GateResult ShardedGroupKeyServer::offer_join(UserId user, BytesView token) {
  if (!gate_.enabled()) return {};  // kAdmit: normal path
  if (!auth_.verify_join_token(user, token) || !acl_.authorizes(user)) {
    return GateResult{.denied = true};
  }
  return gate_.offer(shard_of(user), user, /*join=*/true, has_member(user),
                     now_us());
}

GateResult ShardedGroupKeyServer::offer_leave(UserId user, BytesView token) {
  if (!gate_.enabled()) return {};
  if (!auth_.verify_leave_token(user, token)) return GateResult{.denied = true};
  return gate_.offer(shard_of(user), user, /*join=*/false, has_member(user),
                     now_us());
}

OverloadTick ShardedGroupKeyServer::poll_overload() {
  return gate_.poll(
      now_us(), [this](UserId user) { return has_member(user); },
      [this](const std::vector<UserId>& joins,
             const std::vector<UserId>& leaves) {
        return batch(joins, leaves);
      });
}

// --- Recovery -----------------------------------------------------------

void ShardedGroupKeyServer::resync(UserId user) {
  Pending pending;
  plan_resync(user, pending);
  Lane& lane = *lanes_[pending.shard];
  seal_and_dispatch(lane, std::move(pending));
}

bool ShardedGroupKeyServer::resync_with_token(UserId user, BytesView token) {
  if (!auth_.verify_resync_token(user, token)) return false;
  if (!has_member(user)) return false;
  resync(user);
  return true;
}

NackOutcome ShardedGroupKeyServer::handle_nack(UserId user,
                                               std::uint64_t have_epoch) {
  if (!has_member(user)) {
    throw ProtocolError("nack from non-member user " + std::to_string(user));
  }
  {
    const std::lock_guard<std::mutex> lock(dispatch_mutex_);
    if (const auto outcome = detail::try_retransmit(
            retransmit_, limiter_, transport_, user, have_epoch, now_us())) {
      return *outcome;
    }
  }
  resync(user);
  return NackOutcome::kResynced;
}

std::optional<NackOutcome> ShardedGroupKeyServer::nack_with_token(
    UserId user, BytesView token, std::uint64_t have_epoch) {
  if (!auth_.verify_resync_token(user, token)) return std::nullopt;
  if (!has_member(user)) return std::nullopt;
  return handle_nack(user, have_epoch);
}

// --- Bulk build ---------------------------------------------------------

void ShardedGroupKeyServer::preload(const std::vector<UserId>& users) {
  // Bounded batch_update chunks: BatchRecord materializes every joiner's
  // keyset, so one million-user update would hold the whole group's path
  // key material at once. 8192 keeps the record and the per-chunk view
  // publish both small while amortizing the per-publish node copy.
  constexpr std::size_t kChunk = 8192;
  const std::size_t shards = shard_count();
  std::vector<std::vector<UserId>> by_shard(shards);
  for (UserId user : users) {
    if (!acl_.authorizes(user)) continue;
    by_shard[tree_->shard_of(user)].push_back(user);
  }
  for (std::size_t shard = 0; shard < shards; ++shard) {
    KeyTree& tree = tree_->shard(shard);
    std::vector<std::pair<UserId, Bytes>> joins;
    std::vector<UserId> chunk_users;
    joins.reserve(std::min(kChunk, by_shard[shard].size()));
    // One kPreload record per chunk: epoch 0 (no rekey was sent), carrying
    // the admitted ids and the chunk's lane-rng tape so recovery rebuilds
    // the same tree bytes before replaying the epoch stream.
    const auto flush = [&] {
      if (joins.empty()) return;
      std::optional<crypto::RngCapture> capture;
      if (durable_ != nullptr && !replaying_) {
        capture.emplace(tree_->rng(shard));
      }
      tree.batch_update(joins, {});
      if (capture) {
        storage::JournalRecord record;
        record.kind = storage::OpKind::kPreload;
        record.shard = static_cast<std::uint32_t>(shard);
        record.timestamp_us = now_us();
        record.joins = chunk_users;
        record.rng_tape = capture->take();
        durable_->append(record);
      }
      joins.clear();
      chunk_users.clear();
    };
    for (UserId user : by_shard[shard]) {
      if (tree.has_user(user)) continue;
      joins.emplace_back(
          user, auth_.individual_key(user, config_.base.suite.key_size()));
      chunk_users.push_back(user);
      if (joins.size() == kChunk) flush();
    }
    flush();
  }
  const std::lock_guard<std::mutex> lock(root_mutex_);
  for (std::size_t shard = 0; shard < shards; ++shard) {
    const TreeViewPtr view = tree_->shard(shard).view();
    shard_roots_[shard] = view->group_key();
    shard_views_[shard] = view;
  }
}

// --- Durable state ------------------------------------------------------

void ShardedGroupKeyServer::recover_from_storage(
    const storage::RecoveryOptions& options) {
  storage::RecoveredLog log = detail::load_journal(durable_.get(), options);
  if (log.snapshot) {
    // The sharded server never compacts (there is no cross-shard snapshot
    // format); a snapshot here means the journal belongs to a single-tree
    // deployment and this config cannot restore it.
    throw storage::JournalCorruptError(
        "recover: journal carries a snapshot but the server is sharded");
  }
  for (const storage::JournalRecord& record : log.records) {
    replay_record(record, options);
  }
  detail::note_recovered(log.records.size(), epoch());
}

void ShardedGroupKeyServer::replay_record(
    const storage::JournalRecord& record,
    const storage::RecoveryOptions& options) {
  const detail::ScopedFlag replaying(replaying_);
  pinned_clock_us_ = record.timestamp_us;
  detail::as_divergence([&] {
    const std::size_t shard = record.shard;
    if (shard >= shard_count()) {
      throw storage::ReplayDivergenceError(
          "replay: record names shard " + std::to_string(shard) +
          " but the server has " + std::to_string(shard_count()));
    }
    if (record.kind == storage::OpKind::kPreload) {
      if (record.epoch != 0 || !record.leaves.empty()) {
        throw storage::ReplayDivergenceError(
            "replay: malformed preload record (sequence " +
            std::to_string(record.sequence) + ")");
      }
      KeyTree& tree = tree_->shard(shard);
      {
        const crypto::RngTape tape(tree_->rng(shard), record.rng_tape);
        std::vector<std::pair<UserId, Bytes>> joins;
        joins.reserve(record.joins.size());
        for (const UserId user : record.joins) {
          joins.emplace_back(
              user,
              auth_.individual_key(user, config_.base.suite.key_size()));
        }
        tree.batch_update(joins, {});
        detail::expect_drained(tape, "preload", record);
      }
      const std::lock_guard<std::mutex> lock(root_mutex_);
      const TreeViewPtr view = tree.view();
      shard_roots_[shard] = view->group_key();
      shard_views_[shard] = view;
      return;
    }

    Lane& lane = *lanes_[shard];
    Pending pending;
    {
      const std::lock_guard<std::mutex> lock(lane.mutex);
      // Two tapes, two streams: the lane rng (tree mutation + plan) and
      // the root rng (G refresh + stitch IVs). Both must drain exactly.
      const crypto::RngTape tape(tree_->rng(shard), record.rng_tape);
      const crypto::RngTape root_tape(root_rng_, record.root_tape);
      detail::replay_plan(
          record,
          [&](UserId user) { return plan_join_locked(user, shard, pending); },
          [&](UserId user) { plan_leave_locked(user, shard, pending); },
          [&](const std::vector<UserId>& joins,
              const std::vector<UserId>& leaves) {
            return plan_batch_locked(shard, joins, leaves, pending);
          });
      detail::expect_drained(tape, "lane", record);
      detail::expect_drained(root_tape, "root", record);
    }
    detail::expect_epoch(pending.epoch, record);
    pending.sealed = lane.executor->seal(pending.plan, *sealer_);
    {
      const std::lock_guard<std::mutex> lock(dispatch_mutex_);
      detail::absorb_replayed(record, options, pending.sealed,
                              pending.lane_view, pending.views, retransmit_);
    }
    // Release the replayed op's ticket so the next record (and, after
    // recovery, live traffic) dispatches at epoch_ + 1.
    const std::lock_guard<std::mutex> order(sequence_mutex_);
    next_dispatch_ = pending.epoch + 1;
  });
}

// --- Introspection ------------------------------------------------------

std::uint64_t ShardedGroupKeyServer::epoch() const {
  const std::lock_guard<std::mutex> lock(root_mutex_);
  return epoch_;
}

KeyId ShardedGroupKeyServer::root_id() const noexcept {
  return shard_count() == 1 ? tree_->shard(0).root_id() : kSharedGroupKeyId;
}

SymmetricKey ShardedGroupKeyServer::group_key() const {
  if (shard_count() == 1) return tree_->shard(0).view()->group_key();
  const std::lock_guard<std::mutex> lock(root_mutex_);
  return shared_key_locked();
}

std::vector<SymmetricKey> ShardedGroupKeyServer::keyset(UserId user) const {
  std::vector<SymmetricKey> keys =
      tree_->shard(tree_->shard_of(user)).view()->keyset(user);
  if (shard_count() > 1) {
    const std::lock_guard<std::mutex> lock(root_mutex_);
    keys.push_back(shared_key_locked());
  }
  return keys;
}

// Membership reads go through the published views, never the live trees,
// so they stay lock-free and race-free while a lane writer mutates.
std::size_t ShardedGroupKeyServer::member_count() const {
  std::size_t total = 0;
  for (std::size_t shard = 0; shard < shard_count(); ++shard) {
    total += shard_view(shard)->user_count();
  }
  return total;
}

bool ShardedGroupKeyServer::has_member(UserId user) const {
  return shard_view(shard_of(user))->has_user(user);
}

std::size_t ShardedGroupKeyServer::shard_count() const noexcept {
  return tree_->shard_count();
}

std::size_t ShardedGroupKeyServer::shard_of(UserId user) const noexcept {
  return tree_->shard_of(user);
}

TreeViewPtr ShardedGroupKeyServer::shard_view(std::size_t shard) const {
  return tree_->shard(shard).view();
}

const crypto::RsaPublicKey* ShardedGroupKeyServer::public_key()
    const noexcept {
  return signer_ ? &signer_->public_key() : nullptr;
}

}  // namespace keygraphs::server
