#include "server/server.h"

#include <algorithm>
#include <limits>

#include "common/error.h"
#include "common/io.h"
#include "rekey/batch.h"
#include "server/shared.h"
#include "telemetry/convergence.h"
#include "telemetry/stage.h"

namespace keygraphs::server {

using telemetry::Stage;
using telemetry::StageCollector;
using telemetry::StageScope;

ServerConfig ServerConfig::star(ServerConfig base) {
  base.tree_degree = std::numeric_limits<int>::max();
  return base;
}

ServerConfig ServerConfig::star() { return star(ServerConfig{}); }

GroupKeyServer::GroupKeyServer(ServerConfig config,
                               transport::ServerTransport& transport,
                               AccessControl acl)
    : config_(std::move(config)),
      transport_(transport),
      acl_(std::move(acl)),
      auth_(config_.auth_master),
      rng_(config_.rng_seed == 0 ? crypto::SecureRandom()
                                 : crypto::SecureRandom(config_.rng_seed)),
      executor_(config_.suite.cipher, config_.seal_threads,
                config_.schedule_cache_capacity),
      retransmit_(config_.retransmit_window),
      limiter_(config_.recovery_rate, config_.recovery_burst),
      gate_(config_.overload, /*lanes=*/1) {
  tree_ = std::make_unique<KeyTree>(config_.tree_degree,
                                    config_.suite.key_size(), rng_);
  strategy_ = rekey::make_strategy(config_.strategy);
  set_signing_mode(config_.signing);
  if (config_.storage.enabled()) {
    durable_ = std::make_unique<storage::DurableStore>(
        storage::make_backend(config_.storage, /*lanes=*/1),
        config_.storage.snapshot_interval);
  }
}

std::uint64_t GroupKeyServer::now_us() const {
  // Replay pins the clock to the journaled timestamp: signatures cover it,
  // so reproducing the original sealed bytes requires the original time.
  if (replaying_) return pinned_clock_us_;
  return detail::clock_now_us(config_.clock_us);
}

void GroupKeyServer::set_signing_mode(rekey::SigningMode mode) {
  if (mode == rekey::SigningMode::kPerMessage ||
      mode == rekey::SigningMode::kBatch) {
    if (!config_.suite.signs()) {
      throw ProtocolError("server: signing mode set but suite has no RSA");
    }
    if (!signer_) {
      signer_ = std::make_unique<crypto::RsaPrivateKey>(
          crypto::RsaPrivateKey::generate(
              rng_,
              crypto::signature_modulus_bits(config_.suite.signature)));
    }
  }
  config_.signing = mode;
  sealer_ = std::make_unique<rekey::RekeySealer>(
      mode, config_.suite.signing_digest(), signer_.get());
}

JoinResult GroupKeyServer::join(UserId user) {
  PendingRekey pending;
  const JoinResult result = plan_join(user, pending);
  if (result != JoinResult::kGranted) return result;
  seal(pending);
  dispatch(std::move(pending));
  return JoinResult::kGranted;
}

JoinResult GroupKeyServer::join_with_token(UserId user, BytesView token) {
  PendingRekey pending;
  const JoinResult result = plan_join_with_token(user, token, pending);
  if (result != JoinResult::kGranted) return result;
  seal(pending);
  dispatch(std::move(pending));
  return JoinResult::kGranted;
}

void GroupKeyServer::leave(UserId user) {
  PendingRekey pending;
  plan_leave(user, pending);
  seal(pending);
  dispatch(std::move(pending));
}

bool GroupKeyServer::leave_with_token(UserId user, BytesView token) {
  PendingRekey pending;
  if (!plan_leave_with_token(user, token, pending)) return false;
  seal(pending);
  dispatch(std::move(pending));
  return true;
}

std::vector<UserId> GroupKeyServer::batch(
    const std::vector<UserId>& join_users,
    const std::vector<UserId>& leave_users) {
  PendingRekey pending;
  std::vector<UserId> admitted = plan_batch(join_users, leave_users, pending);
  seal(pending);
  dispatch(std::move(pending));
  return admitted;
}

void GroupKeyServer::resync(UserId user) {
  PendingRekey pending;
  plan_resync(user, pending);
  seal(pending);
  dispatch(std::move(pending));
}

bool GroupKeyServer::resync_with_token(UserId user, BytesView token) {
  PendingRekey pending;
  if (!plan_resync_with_token(user, token, pending)) return false;
  seal(pending);
  dispatch(std::move(pending));
  return true;
}

GateResult GroupKeyServer::offer_join(UserId user, BytesView token) {
  if (!gate_.enabled()) return {};  // kAdmit: normal path
  // Validate before consuming any admission budget: a forged token or an
  // ACL reject must never shed (or displace) honest work.
  if (!auth_.verify_join_token(user, token) || !acl_.authorizes(user)) {
    return GateResult{.denied = true};
  }
  return gate_.offer(0, user, /*join=*/true, tree_->has_user(user), now_us());
}

GateResult GroupKeyServer::offer_leave(UserId user, BytesView token) {
  if (!gate_.enabled()) return {};
  if (!auth_.verify_leave_token(user, token)) return GateResult{.denied = true};
  return gate_.offer(0, user, /*join=*/false, tree_->has_user(user),
                     now_us());
}

OverloadTick GroupKeyServer::poll_overload() {
  return gate_.poll(
      now_us(), [this](UserId user) { return tree_->has_user(user); },
      [this](const std::vector<UserId>& joins,
             const std::vector<UserId>& leaves) {
        return batch(joins, leaves);
      });
}

NackOutcome GroupKeyServer::handle_nack(UserId user,
                                        std::uint64_t have_epoch) {
  if (!tree_->view()->has_user(user)) {
    throw ProtocolError("nack from non-member user " + std::to_string(user));
  }
  if (const auto outcome = detail::try_retransmit(
          retransmit_, limiter_, transport_, user, have_epoch, now_us())) {
    return *outcome;
  }
  resync(user);
  return NackOutcome::kResynced;
}

std::optional<NackOutcome> GroupKeyServer::nack_with_token(
    UserId user, BytesView token, std::uint64_t have_epoch) {
  if (!auth_.verify_resync_token(user, token)) return std::nullopt;
  if (!tree_->view()->has_user(user)) return std::nullopt;
  return handle_nack(user, have_epoch);
}

void GroupKeyServer::finish_plan(PendingRekey& pending,
                                 rekey::RekeyPlanner& planner,
                                 std::vector<rekey::PlannedRekey> messages,
                                 rekey::RekeyKind op_kind,
                                 rekey::RekeyKind wire_kind,
                                 const std::vector<KeyId>& obsolete,
                                 bool advance_epoch,
                                 const StageCollector& stages) {
  if (advance_epoch) ++epoch_;
  // Mutations stamp the freshly advanced group epoch (the tree published
  // its post-mutation view under the same number, via stamp_next_epoch).
  // A resync replays its acquired view's epoch, so planning is consistent
  // even when the group counter moves concurrently.
  const std::uint64_t epoch = advance_epoch ? epoch_ : pending.view->epoch();
  const std::uint64_t timestamp = now_us();
  {
    const StageScope scope(Stage::kSerialize);  // header stamping
    for (rekey::PlannedRekey& message : messages) {
      message.header.group = config_.group;
      message.header.epoch = epoch;
      message.header.timestamp_us = timestamp;
      message.header.kind = wire_kind;
      message.header.obsolete = obsolete;
    }
  }
  if (pending.trace.active()) pending.trace.epoch = epoch;
  pending.timestamp_us = timestamp;
  pending.plan = planner.take(std::move(messages));
  pending.op.kind = op_kind;
  pending.op.key_encryptions = pending.plan.key_encryptions;
  pending.stage_us = stages.breakdown();
}

template <typename Mutate, typename Plan>
void GroupKeyServer::plan_mutation(PendingRekey& pending,
                                   const StageCollector& stages,
                                   rekey::RekeyKind kind,
                                   storage::OpKind journal_kind,
                                   const std::vector<UserId>& joins,
                                   const std::vector<UserId>& leaves,
                                   Mutate&& mutate, Plan&& plan) {
  // Record every rng byte the plan draws (tree keygen + planner IVs): the
  // tape is what makes a journal replay byte-identical on any replica.
  std::optional<crypto::RngCapture> capture;
  if (durable_ != nullptr && !replaying_) capture.emplace(rng_);

  pending.trace =
      detail::begin_trace(config_.trace_propagation && !replaying_, kind);
  const telemetry::TraceBinding traced(pending.trace,
                                       telemetry::kServerProcess);
  std::optional<telemetry::ScopedSpan> plan_span;
  if (pending.trace.active()) plan_span.emplace("rekey.plan");

  pending.started = std::chrono::steady_clock::now();
  tree_->stamp_next_epoch(epoch_ + 1);
  const auto record = [&] {
    const StageScope scope(Stage::kTreeUpdate);  // keygen nests inside
    return mutate();
  }();
  pending.view = tree_->view();
  rekey::RekeyPlanner planner(config_.suite.cipher, rng_, pending.view);
  std::vector<rekey::PlannedRekey> messages;
  {
    const StageScope scope(Stage::kEncrypt);  // symbolic wraps + IV draws
    messages = plan(record, planner);
  }
  finish_plan(pending, planner, std::move(messages), kind, kind,
              record.removed_nodes, /*advance_epoch=*/true, stages);
  if (capture) {
    pending.commit = detail::commit_record(journal_kind, epoch_,
                                           pending.timestamp_us, joins,
                                           leaves, *capture);
  }
  // A departed member no longer owes convergence; drop its lag gauge.
  // Replay skips this: the monitor belongs to the live timeline (an
  // in-process standby shares it with the primary).
  if (telemetry::enabled() && !replaying_) {
    for (const UserId leaver : leaves) {
      telemetry::ConvergenceMonitor::global().forget_user(leaver);
    }
  }
}

JoinResult GroupKeyServer::plan_join(UserId user, PendingRekey& pending) {
  StageCollector stages;
  Bytes individual_key;
  {
    // Authentication/admission is excluded from the measured processing
    // time, as in the paper, but attributed to the auth stage; the
    // individual key is the session key that exchange produced.
    const StageScope scope(Stage::kAuth);
    if (!acl_.authorizes(user)) return JoinResult::kDenied;
    if (tree_->has_user(user)) return JoinResult::kDuplicate;
    individual_key = auth_.individual_key(user, config_.suite.key_size());
  }
  plan_mutation(
      pending, stages, rekey::RekeyKind::kJoin, storage::OpKind::kJoin,
      {user}, {},
      [&] { return tree_->join(user, std::move(individual_key)); },
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
  plan_mutation(
      pending, stages, rekey::RekeyKind::kLeave, storage::OpKind::kLeave, {},
      {user}, [&] { return tree_->leave(user); },  // throws: non-member
      [&](const LeaveRecord& record, rekey::RekeyPlanner& planner) {
        return strategy_->plan_leave(record, planner);
      });
}

bool GroupKeyServer::plan_leave_with_token(UserId user, BytesView token,
                                           PendingRekey& pending) {
  if (!auth_.verify_leave_token(user, token)) return false;
  if (!tree_->has_user(user)) return false;
  plan_leave(user, pending);
  return true;
}

std::vector<UserId> GroupKeyServer::plan_batch(
    const std::vector<UserId>& join_users,
    const std::vector<UserId>& leave_users, PendingRekey& pending) {
  StageCollector stages;
  std::vector<std::pair<UserId, Bytes>> joins;
  std::vector<UserId> admitted;
  {
    const StageScope scope(Stage::kAuth);
    for (UserId user : join_users) {
      if (!acl_.authorizes(user) || tree_->has_user(user)) continue;
      joins.emplace_back(
          user, auth_.individual_key(user, config_.suite.key_size()));
      admitted.push_back(user);
    }
  }

  // The journal stores the *admitted* joiners, not the requested list:
  // replay re-admits exactly these and checks it got the same answer.
  plan_mutation(
      pending, stages, rekey::RekeyKind::kBatch, storage::OpKind::kBatch,
      admitted, leave_users,
      [&] { return tree_->batch_update(joins, leave_users); },
      [](const BatchRecord& record, rekey::RekeyPlanner& planner) {
        return rekey::plan_batch(record, planner);
      });
  return admitted;
}

void GroupKeyServer::plan_resync(UserId user, PendingRekey& pending) {
  StageCollector stages;
  pending.trace = detail::begin_trace(
      config_.trace_propagation && !replaying_, rekey::RekeyKind::kResync);
  const telemetry::TraceBinding traced(pending.trace,
                                       telemetry::kServerProcess);
  std::optional<telemetry::ScopedSpan> plan_span;
  if (pending.trace.active()) plan_span.emplace("rekey.plan");
  pending.started = std::chrono::steady_clock::now();
  // Whole plan runs on one acquired view (kept if the token path already
  // pinned one): no tree access, no group lock needed.
  if (!pending.view) pending.view = tree_->view();
  std::vector<SymmetricKey> keys;
  {
    const StageScope scope(Stage::kTreeUpdate);  // view read, no mutation
    keys = pending.view->keyset(user);  // throws for non-members
  }
  rekey::RekeyPlanner planner(config_.suite.cipher, rng_, pending.view);
  std::vector<rekey::PlannedRekey> messages;
  {
    const StageScope scope(Stage::kEncrypt);
    rekey::PlannedRekey welcome;
    welcome.header.strategy = config_.strategy;
    if (keys.size() > 1) {
      const std::vector<SymmetricKey> path(keys.begin() + 1, keys.end());
      welcome.ops.push_back(planner.wrap(keys.front(), path));
    }
    welcome.to = rekey::Recipient::to_user(user);
    messages.push_back(std::move(welcome));
  }
  // A replay of current state, not a new operation: no epoch advance, and
  // the wire message stays welcome-shaped (kJoin) so clients need no new
  // message kind. Only the OpRecord says kResync.
  finish_plan(pending, planner, std::move(messages),
              rekey::RekeyKind::kResync, rekey::RekeyKind::kJoin, {},
              /*advance_epoch=*/false, stages);
  if (telemetry::enabled()) {
    static auto& resyncs =
        telemetry::Registry::global().counter("server.resyncs");
    resyncs.add(1);
  }
}

bool GroupKeyServer::plan_resync_with_token(UserId user, BytesView token,
                                            PendingRekey& pending) {
  if (!auth_.verify_resync_token(user, token)) return false;
  pending.view = tree_->view();  // membership check and plan on one view
  if (!pending.view->has_user(user)) return false;
  plan_resync(user, pending);
  return true;
}

void GroupKeyServer::seal(PendingRekey& pending) {
  StageCollector stages;
  const telemetry::TraceBinding traced(pending.trace,
                                       telemetry::kServerProcess);
  std::optional<telemetry::ScopedSpan> seal_span;
  if (pending.trace.active()) seal_span.emplace("rekey.seal");
  const auto seal_started = std::chrono::steady_clock::now();
  pending.sealed = executor_.seal(pending.plan, *sealer_);
  // Seal-stage latency is an overload pressure signal: a sustained EWMA
  // above degrade_seal_us drives the health machine toward batching.
  if (gate_.enabled() && !replaying_) {
    const auto elapsed_us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - seal_started)
            .count());
    gate_.note_seal(0, elapsed_us, now_us());
  }
  const telemetry::StageBreakdown& sealed_us = stages.breakdown();
  for (std::size_t i = 0; i < telemetry::kStageCount; ++i) {
    pending.stage_us[i] += sealed_us[i];
  }
}

void GroupKeyServer::dispatch(PendingRekey&& pending) {
  StageCollector stages;
  const telemetry::TraceBinding traced(pending.trace,
                                       telemetry::kServerProcess);
  std::optional<telemetry::ScopedSpan> dispatch_span;
  if (pending.trace.active()) dispatch_span.emplace("rekey.dispatch");
  OpRecord op = pending.op;
  op.signatures = sealer_->signatures_for(pending.sealed.size());
  detail::append_commit(durable_.get(), pending.commit.get(),
                        pending.sealed);
  // The publish timestamp for fleet convergence: recorded before the first
  // delivery, because in-process transports apply on the client inside
  // deliver() and an apply must never precede its publish. Resyncs replay
  // an already-published epoch, so they never re-publish it.
  if (telemetry::enabled() && op.kind != rekey::RekeyKind::kResync &&
      !pending.plan.messages.empty()) {
    telemetry::ConvergenceMonitor::global().note_publish(
        pending.plan.messages.front().header.epoch, now_us() * 1000,
        pending.view->user_count());
  }
  // Fan-out resolves on the plan-time view, immune to mutations planned
  // since.
  std::vector<Bytes> datagrams =
      detail::deliver_burst(pending.sealed,
                            detail::trace_extension(pending.trace),
                            pending.view, {}, transport_, op);
  // Resyncs stay out of the retransmit window: they re-stamp the current
  // epoch and would collide with the real rekey recorded under it.
  if (op.kind != rekey::RekeyKind::kResync && !pending.sealed.empty()) {
    detail::remember(retransmit_, pending.plan.messages.front().header.epoch,
                     pending.view, pending.sealed, std::move(datagrams), {});
  }
  op.processing_us = std::chrono::duration<double, std::micro>(
                         std::chrono::steady_clock::now() - pending.started)
                         .count();
  const telemetry::StageBreakdown& dispatch_us = stages.breakdown();
  for (std::size_t i = 0; i < telemetry::kStageCount; ++i) {
    op.stage_us[i] = pending.stage_us[i] + dispatch_us[i];
  }
  stats_.record(op);
  // Periodic compaction, keyed off this op's own view so the snapshot
  // epoch matches the last journaled record even when a later plan has
  // already advanced the tree.
  if (durable_ != nullptr && pending.commit != nullptr &&
      durable_->snapshot_due()) {
    ByteWriter writer;
    writer.u64(pending.view->epoch());
    writer.var_bytes(pending.view->serialize());
    durable_->compact(pending.view->epoch(), writer.take());
  }
}

Bytes GroupKeyServer::snapshot() const {
  // One acquired view carries both the epoch label and the structure, so a
  // snapshot taken while the writer mutates is still internally consistent.
  const TreeViewPtr view = tree_->view();
  ByteWriter writer;
  writer.u64(view->epoch());
  writer.var_bytes(view->serialize());
  return writer.take();
}

void GroupKeyServer::restore(BytesView snapshot) {
  ByteReader reader(snapshot);
  const std::uint64_t epoch = reader.u64();
  const Bytes tree_bytes = reader.var_bytes();
  reader.expect_done();
  std::unique_ptr<KeyTree> restored =
      KeyTree::deserialize(tree_bytes, rng_);  // throws before any change
  tree_ = std::move(restored);
  epoch_ = epoch;
  // Re-label the restored tree's view with the snapshot's group epoch.
  tree_->stamp_next_epoch(epoch);
  tree_->publish_view();
  // The old timeline's delivery state must not survive: the retransmit
  // ring holds sealed bytes for epochs that may disagree with the restored
  // tree (serving them would hand clients stale keys), and the
  // convergence monitor's publish ring carries timestamps from before the
  // restore. Journal replay (replaying_) re-anchors the monitor once, at
  // the end of recovery, rather than per restored snapshot.
  retransmit_.clear();
  if (telemetry::enabled() && !replaying_) {
    telemetry::ConvergenceMonitor::global().restart_from(epoch_);
  }
}

void GroupKeyServer::recover_from_storage(
    const storage::RecoveryOptions& options) {
  storage::RecoveredLog log = detail::load_journal(durable_.get(), options);
  if (log.snapshot) restore(*log.snapshot);
  for (const storage::JournalRecord& record : log.records) {
    replay_record(record, options);
  }
  detail::note_recovered(log.records.size(), epoch_);
}

void GroupKeyServer::replay_record(const storage::JournalRecord& record,
                                   const storage::RecoveryOptions& options) {
  const detail::ScopedFlag replaying(replaying_);
  pinned_clock_us_ = record.timestamp_us;
  detail::as_divergence([&] {
    PendingRekey pending;
    {
      // Every plan-phase rng draw is served from the journaled tape; a
      // tape that runs short throws inside the drawing code.
      const crypto::RngTape tape(rng_, record.rng_tape);
      detail::replay_plan(
          record, [&](UserId user) { return plan_join(user, pending); },
          [&](UserId user) { plan_leave(user, pending); },
          [&](const std::vector<UserId>& joins,
              const std::vector<UserId>& leaves) {
            return plan_batch(joins, leaves, pending);
          });
      detail::expect_drained(tape, "lane", record);
    }
    detail::expect_epoch(epoch_, record);
    seal(pending);
    detail::absorb_replayed(record, options, pending.sealed, pending.view, {},
                            retransmit_);
  });
}

std::vector<UserId> GroupKeyServer::resolve_subgroup(
    KeyId include, std::optional<KeyId> exclude) const {
  return tree_->view()->resolve_subgroup(include, exclude);
}

}  // namespace keygraphs::server
