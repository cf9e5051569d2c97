#include "server/shared.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <string>

#include "common/error.h"
#include "crypto/sha256.h"
#include "storage/errors.h"
#include "telemetry/convergence.h"
#include "telemetry/metrics.h"
#include "telemetry/stage.h"

namespace keygraphs::server::detail {

namespace {

struct RetransmitMetrics {
  telemetry::Counter& nacks;
  telemetry::Counter& served;
  telemetry::Counter& datagrams;
  telemetry::Counter& out_of_window;
  telemetry::Counter& rate_limited;
  telemetry::Counter& resync_fallbacks;

  static RetransmitMetrics& get() {
    auto& registry = telemetry::Registry::global();
    static RetransmitMetrics* metrics = new RetransmitMetrics{
        registry.counter("rekey.retransmit.nacks"),
        registry.counter("rekey.retransmit.served"),
        registry.counter("rekey.retransmit.datagrams"),
        registry.counter("rekey.retransmit.out_of_window"),
        registry.counter("rekey.retransmit.rate_limited"),
        registry.counter("rekey.retransmit.resync_fallbacks"),
    };
    return *metrics;
  }
};

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

}  // namespace

std::uint64_t clock_now_us(const std::function<std::uint64_t()>& clock) {
  if (clock) return clock();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

telemetry::TraceContext begin_trace(bool propagate, rekey::RekeyKind kind) {
  telemetry::TraceContext trace;
  if (!propagate || !telemetry::enabled()) return trace;
  trace.trace_id = telemetry::next_trace_id();
  trace.op_kind = static_cast<std::uint8_t>(kind);
  return trace;
}

std::optional<rekey::TraceExtension> trace_extension(
    const telemetry::TraceContext& trace) {
  if (!trace.active()) return std::nullopt;
  return rekey::TraceExtension{trace.trace_id, trace.epoch, trace.op_kind};
}

std::optional<NackOutcome> try_retransmit(
    const rekey::RetransmitWindow& window, rekey::RecoveryLimiter& limiter,
    transport::ServerTransport& transport, UserId user,
    std::uint64_t have_epoch, std::uint64_t now_us) {
  if (telemetry::enabled()) RetransmitMetrics::get().nacks.add(1);
  if (!limiter.admit(user, now_us)) {
    if (telemetry::enabled()) RetransmitMetrics::get().rate_limited.add(1);
    return NackOutcome::kRateLimited;
  }
  if (window.enabled()) {
    if (const auto replays = window.collect(user, have_epoch)) {
      if (telemetry::enabled()) {
        RetransmitMetrics::get().served.add(1);
        RetransmitMetrics::get().datagrams.add(replays->size());
      }
      const rekey::Recipient to = rekey::Recipient::to_user(user);
      for (const BytesView datagram : *replays) {
        // Already framed kRekey bytes; unicast them back regardless of
        // their original (subgroup) addressing.
        transport.deliver(to, datagram,
                          [user] { return std::vector<UserId>{user}; });
      }
      return NackOutcome::kRetransmitted;
    }
    if (telemetry::enabled()) RetransmitMetrics::get().out_of_window.add(1);
  }
  if (telemetry::enabled()) RetransmitMetrics::get().resync_fallbacks.add(1);
  return std::nullopt;
}

std::unique_ptr<storage::JournalRecord> commit_record(
    storage::OpKind kind, std::uint64_t epoch, std::uint64_t timestamp_us,
    std::vector<UserId> joins, std::vector<UserId> leaves,
    crypto::RngCapture& capture) {
  auto record = std::make_unique<storage::JournalRecord>();
  record->kind = kind;
  record->epoch = epoch;
  record->timestamp_us = timestamp_us;
  record->joins = std::move(joins);
  record->leaves = std::move(leaves);
  record->rng_tape = capture.take();
  return record;
}

void append_commit(storage::DurableStore* durable,
                   storage::JournalRecord* record,
                   const std::vector<rekey::SealedRekey>& sealed) {
  if (durable == nullptr || record == nullptr) return;
  record->sealed_digest = sealed_digest(sealed);
  durable->append(*record);
}

std::vector<Bytes> deliver_burst(
    const std::vector<rekey::SealedRekey>& sealed,
    const std::optional<rekey::TraceExtension>& extension,
    const TreeViewPtr& view, const std::vector<TreeViewPtr>& views,
    transport::ServerTransport& transport, OpRecord& op) {
  op.messages = sealed.size();
  op.min_message = sealed.empty() ? 0 : std::numeric_limits<std::size_t>::max();
  std::vector<Bytes> datagrams(sealed.size());
  {
    const telemetry::StageScope scope(telemetry::Stage::kSerialize);
    for (std::size_t i = 0; i < sealed.size(); ++i) {
      datagrams[i] =
          rekey::Datagram{rekey::MessageType::kRekey, sealed[i].wire,
                          extension}
              .encode();
      op.bytes += datagrams[i].size();
      op.min_message = std::min(op.min_message, datagrams[i].size());
      op.max_message = std::max(op.max_message, datagrams[i].size());
    }
  }
  const telemetry::StageScope scope(telemetry::Stage::kSend);
  std::vector<transport::ServerTransport::OutboundDatagram> items;
  items.reserve(sealed.size());
  for (std::size_t i = 0; i < sealed.size(); ++i) {
    const rekey::Recipient to = sealed[i].to;
    items.push_back(
        {to, datagrams[i], [resolver = views.empty() ? view : views[i], to] {
           return to.kind == rekey::Recipient::Kind::kUser
                      ? std::vector<UserId>{to.user}
                      : resolver->resolve_subgroup(to.include, to.exclude);
         }});
  }
  transport.deliver_many(items);
  return datagrams;
}

void remember(rekey::RetransmitWindow& window, std::uint64_t epoch,
              const TreeViewPtr& view,
              const std::vector<rekey::SealedRekey>& sealed,
              std::vector<Bytes> datagrams,
              const std::vector<TreeViewPtr>& views) {
  if (!window.enabled()) return;
  std::vector<rekey::StoredDatagram> stored;
  stored.reserve(sealed.size());
  for (std::size_t i = 0; i < sealed.size(); ++i) {
    stored.push_back(rekey::StoredDatagram{
        sealed[i].to, std::move(datagrams[i]),
        views.empty() ? nullptr : views[i]});
  }
  window.record(epoch, view, std::move(stored));
}

storage::RecoveredLog load_journal(storage::DurableStore* durable,
                                  const storage::RecoveryOptions& options) {
  if (durable == nullptr) {
    throw storage::StorageError(
        "recover_from_storage: storage is not configured");
  }
  return durable->load(options);
}

void note_recovered(std::size_t records, std::uint64_t epoch) {
  if (!telemetry::enabled()) return;
  static auto& replay_ops = telemetry::Registry::global().counter(
      "storage.replay_ops", "journal records replayed during recovery");
  replay_ops.add(records);
  telemetry::ConvergenceMonitor::global().restart_from(epoch);
}

void as_divergence(const std::function<void()>& step) {
  try {
    step();
  } catch (const storage::StorageError&) {
    throw;
  } catch (const Error& error) {
    diverged(error.what());
  }
}

void replay_plan(
    const storage::JournalRecord& record,
    const std::function<JoinResult(UserId)>& join,
    const std::function<void(UserId)>& leave,
    const std::function<std::vector<UserId>(const std::vector<UserId>&,
                                            const std::vector<UserId>&)>&
        batch) {
  const std::string epoch = std::to_string(record.epoch);
  switch (record.kind) {
    case storage::OpKind::kJoin:
      if (record.joins.size() != 1 || !record.leaves.empty()) {
        diverged("malformed join record at epoch " + epoch);
      }
      if (join(record.joins.front()) != JoinResult::kGranted) {
        diverged("journaled join of user " +
                 std::to_string(record.joins.front()) +
                 " not granted (epoch " + epoch + ")");
      }
      return;
    case storage::OpKind::kLeave:
      if (record.leaves.size() != 1 || !record.joins.empty()) {
        diverged("malformed leave record at epoch " + epoch);
      }
      leave(record.leaves.front());
      return;
    case storage::OpKind::kBatch:
      if (batch(record.joins, record.leaves) != record.joins) {
        diverged("batch at epoch " + epoch +
                 " admitted a different join set than the journal");
      }
      return;
    case storage::OpKind::kPreload:
      break;
  }
  diverged("unexpected preload record at sequence " +
           std::to_string(record.sequence));
}

void expect_drained(const crypto::RngTape& tape, const char* stream,
                    const storage::JournalRecord& record) {
  if (tape.remaining() == 0) return;
  diverged("epoch " + std::to_string(record.epoch) + " (sequence " +
           std::to_string(record.sequence) + ") left " +
           std::to_string(tape.remaining()) + " " + stream +
           " rng tape bytes unread");
}

void expect_epoch(std::uint64_t replayed,
                  const storage::JournalRecord& record) {
  if (replayed == record.epoch) return;
  diverged("operation landed on epoch " + std::to_string(replayed) +
           " but the journal recorded " + std::to_string(record.epoch));
}

void absorb_replayed(const storage::JournalRecord& record,
                     const storage::RecoveryOptions& options,
                     const std::vector<rekey::SealedRekey>& sealed,
                     const TreeViewPtr& view,
                     const std::vector<TreeViewPtr>& views,
                     rekey::RetransmitWindow& window) {
  if (options.verify_digests && sealed_digest(sealed) != record.sealed_digest) {
    diverged("epoch " + std::to_string(record.epoch) +
             " sealed bytes diverge from the journaled digest");
  }
  if (!window.enabled() || sealed.empty()) return;
  std::vector<Bytes> datagrams;
  datagrams.reserve(sealed.size());
  for (const rekey::SealedRekey& message : sealed) {
    datagrams.push_back(
        rekey::Datagram{rekey::MessageType::kRekey, message.wire, std::nullopt}
            .encode());
  }
  remember(window, record.epoch, view, sealed, std::move(datagrams), views);
}

}  // namespace keygraphs::server::detail
