// The server front: the keyserverd receive loop around one server, run on
// its own thread (or stepped by hand in lockstep mode). Every handled
// membership request ends in a Commit record handed to the fleet.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "decorators.h"
#include "server/request.h"
#include "server/server.h"
#include "server/sharded_server.h"
#include "transport/udp.h"
#include "workload.h"

namespace perfbench {

/// One request as the front handled it.
struct Handled {
  keygraphs::UserId user = 0;
  RequestKind kind = RequestKind::kJoin;
  bool granted = false;
  bool thrown = false;
};

/// One commit: a single request on K=1, one batch() on the sharded front.
struct Commit {
  std::uint64_t seq = 0;
  std::uint64_t first_epoch = 0;  // first epoch this commit could create
  std::uint64_t end_epoch = 0;    // server epoch after the commit
  keygraphs::SymmetricKey key;      // group key after the commit
  keygraphs::SymmetricKey pre_key;  // group key before it
  std::vector<Handled> requests;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t bytes = 0;     // rekey bytes handed to the transport
  std::uint64_t messages = 0;  // rekey messages (before fan-out)
  std::uint64_t wraps = 0;     // key encryptions
  /// Traced commits only.
  bool traced = false;
  std::vector<std::int64_t> send_ends;  // end of each transport burst
  std::uint64_t datagrams = 0;          // after fan-out
  std::uint64_t syscalls = 0;           // sendmmsg calls
  std::uint64_t send_failures = 0;
  std::uint64_t storage_bytes = 0;
};

class FrontServer {
 public:
  /// `clock_us` pins the server clock when set (lockstep mode).
  FrontServer(const WorkloadSpec& spec, bool decorate,
              const std::string& journal_dir,
              std::function<std::uint64_t()> clock_us);
  ~FrontServer();

  FrontServer(const FrontServer&) = delete;
  FrontServer& operator=(const FrontServer&) = delete;

  /// Admits ids 1..spec.preload without addresses: one batch() call on
  /// K=1, ShardedGroupKeyServer::preload() on the sharded front.
  void preload();

  /// Receives and serves what is waiting (blocking up to `timeout_ms` for
  /// the first datagram). Returns false on timeout.
  bool serve_once(int timeout_ms);

  void start_thread();
  void stop_thread();
  /// Non-empty when the front thread died on an unexpected exception.
  [[nodiscard]] std::string thread_error() const;

  /// Commits published since the last call, oldest first.
  std::vector<Commit> take_commits();
  [[nodiscard]] int event_fd() const noexcept { return event_fd_; }

  /// Spans on for every commit that starts after this (thread-safe).
  void set_tracing(bool on) noexcept { tracing_.store(on); }

  [[nodiscard]] keygraphs::transport::Address address() const;
  [[nodiscard]] keygraphs::KeyId root_id() const;
  [[nodiscard]] const keygraphs::crypto::RsaPublicKey* public_key() const;
  [[nodiscard]] std::uint64_t epoch() const;
  [[nodiscard]] keygraphs::SymmetricKey group_key() const;
  /// Digest of every sealed wire blob (K=1 front only; 0 otherwise).
  [[nodiscard]] std::uint64_t sealed_digest() const noexcept {
    return sealed_digest_;
  }
  [[nodiscard]] std::uint64_t recovery_served() const noexcept {
    return recovery_served_.load();
  }
  [[nodiscard]] SpanLog& log() noexcept { return log_; }

 private:
  struct Op {
    keygraphs::transport::Address from;
    keygraphs::server::Request request;
  };

  void commit(const std::vector<Op>& ops);
  void serve_single(const Op& op, Commit& commit);
  void serve_batch(const std::vector<Op>& ops, Commit& commit);
  void seal_and_dispatch(keygraphs::server::GroupKeyServer::PendingRekey& p);
  void serve_recovery(const Op& op);
  void reply(const keygraphs::transport::Address& to,
             keygraphs::rekey::MessageType type);
  keygraphs::server::ServerStats& stats();

  WorkloadSpec spec_;
  SpanLog log_;
  keygraphs::transport::UdpSocket socket_;
  keygraphs::transport::UdpServerTransport transport_;
  std::unique_ptr<TimingTransport> timing_;
  std::shared_ptr<TimingStorage> storage_;
  std::unique_ptr<keygraphs::server::GroupKeyServer> single_;
  std::unique_ptr<keygraphs::server::ShardedGroupKeyServer> sharded_;

  std::uint64_t seq_ = 0;
  std::uint64_t epoch_ = 0;
  keygraphs::SymmetricKey key_;
  std::uint64_t sealed_digest_;
  std::atomic<std::uint64_t> recovery_served_{0};
  std::atomic<bool> tracing_{false};

  int event_fd_ = -1;
  mutable std::mutex mutex_;
  std::deque<Commit> commits_;
  std::string thread_error_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// How long the front thread and the fleet keep polling without sleeping
/// after their last activity. Request/reply turnarounds inside this window
/// pay no wake-up of a sleeping thread; a thread idle for longer (the
/// fleet while the server computes a 20 ms op) blocks instead of taking
/// a core from the thread doing the work.
inline constexpr std::int64_t kSpinNs = 2'000'000;

/// FNV-1a over `data`, continuing from `hash`.
std::uint64_t fnv1a(std::uint64_t hash, keygraphs::BytesView data);
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

/// The client->server request datagram kgclient sends.
keygraphs::Bytes request_datagram(keygraphs::rekey::MessageType type,
                                  keygraphs::UserId user,
                                  const keygraphs::Bytes& token);

}  // namespace perfbench
