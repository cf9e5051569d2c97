#include "front.h"

#include <sys/eventfd.h>
#include <unistd.h>

#include <unordered_set>

#include "common/error.h"
#include "common/io.h"
#include "server/request.h"
#include "telemetry/metrics.h"

namespace perfbench {

namespace kg = keygraphs;
namespace ks = keygraphs::server;

std::uint64_t fnv1a(std::uint64_t hash, kg::BytesView data) {
  for (std::uint8_t byte : data) {
    hash ^= byte;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

kg::Bytes request_datagram(kg::rekey::MessageType type, kg::UserId user,
                           const kg::Bytes& token) {
  kg::ByteWriter writer;
  writer.u64(user);
  writer.var_bytes(token);
  return kg::rekey::Datagram{type, writer.take()}.encode();
}

namespace {

constexpr int kLingerMs = 2;

kg::telemetry::Counter& sendmmsg_calls() {
  static kg::telemetry::Counter& counter =
      kg::telemetry::Registry::global().counter(
          "transport.udp.sendmmsg_calls");
  return counter;
}

}  // namespace

FrontServer::FrontServer(const WorkloadSpec& spec, bool decorate,
                         const std::string& journal_dir,
                         std::function<std::uint64_t()> clock_us)
    : spec_(spec), transport_(socket_), sealed_digest_(kFnvBasis) {
  ks::ServerConfig config = spec.config;
  if (clock_us) config.clock_us = std::move(clock_us);
  if (spec.journal) {
    auto backend = kg::storage::make_file_backend(journal_dir, spec.shards);
    if (decorate) {
      storage_ = std::make_shared<TimingStorage>(std::move(backend), log_);
      config.storage.backend = storage_;
    } else {
      config.storage.backend = std::move(backend);
    }
  }
  if (decorate) timing_ = std::make_unique<TimingTransport>(transport_, log_);
  kg::transport::ServerTransport& out =
      timing_ ? static_cast<kg::transport::ServerTransport&>(*timing_)
              : transport_;
  if (spec.front == Front::kSingle) {
    single_ = std::make_unique<ks::GroupKeyServer>(config, out);
  } else {
    sharded_ = std::make_unique<ks::ShardedGroupKeyServer>(
        ks::ShardedServerConfig{config, spec.shards}, out);
  }
  event_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (event_fd_ < 0) throw kg::Error("perfbench: eventfd() failed");
}

FrontServer::~FrontServer() {
  stop_thread();
  if (event_fd_ >= 0) ::close(event_fd_);
}

void FrontServer::preload() {
  std::vector<kg::UserId> users(spec_.preload);
  for (std::size_t i = 0; i < users.size(); ++i) users[i] = i + 1;
  if (single_) {
    single_->batch(users, {});
  } else {
    sharded_->preload(users);
  }
  epoch_ = epoch();
  key_ = group_key();
}

kg::transport::Address FrontServer::address() const {
  return socket_.local_address();
}

kg::KeyId FrontServer::root_id() const {
  return single_ ? single_->root_id() : sharded_->root_id();
}

const kg::crypto::RsaPublicKey* FrontServer::public_key() const {
  return single_ ? single_->public_key() : sharded_->public_key();
}

std::uint64_t FrontServer::epoch() const {
  return single_ ? single_->epoch() : sharded_->epoch();
}

kg::SymmetricKey FrontServer::group_key() const {
  return single_ ? single_->tree().group_key() : sharded_->group_key();
}

ks::ServerStats& FrontServer::stats() {
  return single_ ? single_->stats() : sharded_->stats();
}

bool FrontServer::serve_once(int timeout_ms) {
  auto first = socket_.receive(timeout_ms);
  if (!first.has_value()) return false;
  std::vector<std::pair<kg::transport::Address, kg::Bytes>> inbox;
  inbox.push_back(std::move(*first));
  // The batching front commits everything received since its last commit.
  // It reads until the socket has been quiet for kLingerMs, so requests
  // that clients send together (one burst per converged commit) land in
  // the same commit instead of being split by when the thread woke up.
  if (sharded_) {
    while (auto more = socket_.receive(kLingerMs)) {
      inbox.push_back(std::move(*more));
    }
  }
  std::vector<Op> ops;
  for (auto& [from, data] : inbox) {
    Op op{from, {}};
    try {
      op.request = ks::decode_request(data);
    } catch (const kg::Error&) {
      continue;  // counted in server.bad_requests by decode_request
    }
    if (op.request.type == kg::rekey::MessageType::kJoinRequest ||
        op.request.type == kg::rekey::MessageType::kLeaveRequest) {
      ops.push_back(std::move(op));
    } else {
      serve_recovery(op);
    }
  }
  if (single_) {
    for (const Op& op : ops) commit({op});
  } else if (!ops.empty()) {
    commit(ops);
  }
  return true;
}

void FrontServer::serve_recovery(const Op& op) {
  log_.set_enabled(false);
  const ks::Request& request = op.request;
  try {
    if (request.type == kg::rekey::MessageType::kNackRequest) {
      if (single_) {
        (void)single_->nack_with_token(request.user, request.token,
                                       request.have_epoch);
      } else {
        (void)sharded_->nack_with_token(request.user, request.token,
                                        request.have_epoch);
      }
    } else if (request.type == kg::rekey::MessageType::kResyncRequest) {
      if (single_) {
        (void)single_->resync_with_token(request.user, request.token);
      } else {
        (void)sharded_->resync_with_token(request.user, request.token);
      }
    }
  } catch (const kg::Error&) {
    // A recovery request for a departed user: nothing to replay.
  }
  recovery_served_.fetch_add(1);
}

void FrontServer::reply(const kg::transport::Address& to,
                        kg::rekey::MessageType type) {
  socket_.try_send_to(to, kg::rekey::Datagram{type, {}}.encode());
}

void FrontServer::commit(const std::vector<Op>& ops) {
  Commit c;
  c.seq = ++seq_;
  c.pre_key = key_;
  c.first_epoch = epoch_ + 1;
  c.traced = tracing_.load();
  log_.set_enabled(c.traced);
  log_.set_trace(c.seq);
  const std::size_t span_mark = log_.spans().size();
  const std::size_t records = stats().size();
  const std::size_t datagrams = transport_.datagrams_sent();
  const std::size_t failures = transport_.send_failures();
  const std::uint64_t syscalls = sendmmsg_calls().value();
  const std::uint64_t storage_bytes = storage_ ? storage_->bytes_appended() : 0;

  c.start_ns = now_ns();
  {
    const SpanLog::Scope op(log_, SpanName::kOp);
    if (single_) {
      serve_single(ops.front(), c);
    } else {
      serve_batch(ops, c);
    }
  }
  c.end_ns = now_ns();

  epoch_ = epoch();
  key_ = group_key();
  c.end_epoch = epoch_;
  c.key = key_;
  const auto& all = stats().records();
  for (std::size_t i = records; i < all.size(); ++i) {
    c.bytes += all[i].bytes;
    c.messages += all[i].messages;
    c.wraps += all[i].key_encryptions;
  }
  if (c.traced) {
    c.datagrams = transport_.datagrams_sent() - datagrams;
    c.send_failures = transport_.send_failures() - failures;
    c.syscalls = sendmmsg_calls().value() - syscalls;
    if (storage_) c.storage_bytes = storage_->bytes_appended() - storage_bytes;
    const auto& spans = log_.spans();
    for (std::size_t i = span_mark; i < spans.size(); ++i) {
      if (spans[i].name == SpanName::kSend) {
        c.send_ends.push_back(spans[i].end_ns);
      }
    }
  }
  log_.set_enabled(false);

  {
    const std::lock_guard<std::mutex> lock(mutex_);
    commits_.push_back(std::move(c));
  }
  const std::uint64_t one = 1;
  (void)!::write(event_fd_, &one, sizeof(one));
}

void FrontServer::seal_and_dispatch(ks::GroupKeyServer::PendingRekey& p) {
  {
    const SpanLog::Scope span(log_, SpanName::kSeal);
    single_->seal(p);
  }
  for (const auto& sealed : p.sealed) {
    sealed_digest_ = fnv1a(sealed_digest_, sealed.wire);
  }
  const SpanLog::Scope span(log_, SpanName::kDispatch);
  single_->dispatch(std::move(p));
}

void FrontServer::serve_single(const Op& op, Commit& c) {
  const ks::Request& request = op.request;
  Handled handled{request.user,
                  request.type == kg::rekey::MessageType::kJoinRequest
                      ? RequestKind::kJoin
                      : RequestKind::kLeave,
                  false, false};
  try {
    ks::GroupKeyServer::PendingRekey pending;
    if (handled.kind == RequestKind::kJoin) {
      transport_.register_user(request.user, op.from);
      {
        const SpanLog::Scope span(log_, SpanName::kPlan);
        handled.granted = single_->plan_join_with_token(
                              request.user, request.token, pending) ==
                          ks::JoinResult::kGranted;
      }
      if (handled.granted) {
        seal_and_dispatch(pending);
      } else {
        transport_.unregister_user(request.user);
        reply(op.from, kg::rekey::MessageType::kJoinDenied);
      }
    } else {
      {
        const SpanLog::Scope span(log_, SpanName::kPlan);
        handled.granted = single_->plan_leave_with_token(
            request.user, request.token, pending);
      }
      if (handled.granted) {
        seal_and_dispatch(pending);
        transport_.unregister_user(request.user);
      }
      reply(op.from, kg::rekey::MessageType::kLeaveAck);
    }
  } catch (const std::exception&) {
    handled.thrown = true;
  }
  c.requests.push_back(handled);
}

void FrontServer::serve_batch(const std::vector<Op>& ops, Commit& c) {
  std::vector<kg::UserId> joins;
  std::vector<kg::UserId> leaves;
  for (const Op& op : ops) {
    if (op.request.type == kg::rekey::MessageType::kJoinRequest) {
      transport_.register_user(op.request.user, op.from);
      joins.push_back(op.request.user);
    } else {
      leaves.push_back(op.request.user);
    }
  }
  std::unordered_set<kg::UserId> admitted;
  bool thrown = false;
  try {
    for (kg::UserId user : sharded_->batch(joins, leaves)) {
      admitted.insert(user);
    }
  } catch (const std::exception&) {
    thrown = true;
  }
  for (const Op& op : ops) {
    const kg::UserId user = op.request.user;
    Handled handled{user, RequestKind::kJoin, false, thrown};
    if (op.request.type == kg::rekey::MessageType::kJoinRequest) {
      handled.granted = admitted.count(user) != 0;
      if (!handled.granted) {
        transport_.unregister_user(user);
        reply(op.from, kg::rekey::MessageType::kJoinDenied);
      }
    } else {
      handled.kind = RequestKind::kLeave;
      handled.granted = !thrown;
      transport_.unregister_user(user);
      reply(op.from, kg::rekey::MessageType::kLeaveAck);
    }
    c.requests.push_back(handled);
  }
}

void FrontServer::start_thread() {
  stop_.store(false);
  thread_ = std::thread([this] {
    std::int64_t active_ns = now_ns();
    while (!stop_.load()) {
      try {
        if (serve_once(now_ns() - active_ns < kSpinNs ? 0 : 20)) {
          active_ns = now_ns();
        }
      } catch (const std::exception& error) {
        const std::lock_guard<std::mutex> lock(mutex_);
        thread_error_ = error.what();
        return;
      }
    }
  });
}

void FrontServer::stop_thread() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

std::string FrontServer::thread_error() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return thread_error_;
}

std::vector<Commit> FrontServer::take_commits() {
  std::uint64_t drained = 0;
  (void)!::read(event_fd_, &drained, sizeof(drained));
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Commit> out(std::make_move_iterator(commits_.begin()),
                          std::make_move_iterator(commits_.end()));
  commits_.clear();
  return out;
}

}  // namespace perfbench
