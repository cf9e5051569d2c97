// The client fleet: every client socket in one epoll set,
// the closed-loop churn users, convergence detection and the correctness
// gate. Runs on one thread.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "client/client.h"
#include "front.h"
#include "server/access_control.h"
#include "summary.h"
#include "workload.h"

namespace perfbench {

/// One GroupClient identity (a churn slot gets a new one per fresh id).
struct Member {
  std::unique_ptr<keygraphs::client::GroupClient> client;
  keygraphs::UserId user = 0;
  std::size_t endpoint = 0;
  bool departed = false;
  std::uint64_t rejected_seen = 0;
  /// (applied epoch, when it was reached), ascending.
  std::vector<std::pair<std::uint64_t, std::int64_t>> advances;
};
using MemberPtr = std::shared_ptr<Member>;

/// One served request, for the summary.
struct Served {
  std::int64_t sent_ns = 0;
  std::int64_t converged_ns = 0;
  std::uint64_t commit = 0;
};

/// A datagram read by a client (traced commits only).
struct ReadSample {
  std::int64_t read_ns = 0;
  std::int64_t apply_ns = 0;
  std::uint64_t epoch = 0;  // client's newest seen epoch after handling
};

class Fleet {
 public:
  Fleet(const WorkloadSpec& spec, std::uint64_t seed, FrontServer& front);
  ~Fleet();

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Sends every observer's join. Returns once they are all sent.
  void join_observers();
  /// Sends the next request of every idle, live churn slot (on the
  /// batching workload only once no request is in flight). Returns the
  /// number of requests sent.
  std::size_t send_idle();
  /// One epoll pass: reads datagrams, takes commits, detects convergence
  /// and drives client recovery. Blocks up to `timeout_ms`. Returns
  /// whether anything was ready.
  bool pump(int timeout_ms);
  /// Marks requests older than `deadline_ns` as timed out.
  void expire(std::int64_t deadline_ns);

  [[nodiscard]] bool idle() const;
  [[nodiscard]] std::size_t in_flight() const;
  [[nodiscard]] bool observers_joined() const;

  /// Requests sent while counting is on go into outcomes/served.
  void set_counting(bool on) noexcept { counting_ = on; }
  void set_tracing(bool on) noexcept { log_.set_enabled(on); }

  [[nodiscard]] const Outcomes& outcomes() const noexcept {
    return outcomes_;
  }
  /// Churn requests converged so far, counted or not.
  [[nodiscard]] std::size_t converged_total() const noexcept {
    return converged_total_;
  }
  /// The server's epoch and group key after the newest commit.
  [[nodiscard]] std::uint64_t last_epoch() const noexcept {
    return last_end_epoch_;
  }
  [[nodiscard]] const keygraphs::SymmetricKey& last_key() const {
    return key_at_.rbegin()->second;
  }
  [[nodiscard]] const std::vector<Served>& served() const noexcept {
    return served_;
  }
  /// Sums over the commits processed while counting. Kept as sums, not a
  /// log, so the benchmark's own memory does not grow with the op count.
  struct CommitTotals {
    std::uint64_t commits = 0;
    std::uint64_t ops = 0;    // granted requests
    std::uint64_t bytes = 0;  // rekey bytes handed to the transport
  };
  [[nodiscard]] const CommitTotals& commit_totals() const noexcept {
    return totals_;
  }
  /// Every traced commit, in order.
  [[nodiscard]] const std::vector<Commit>& traced_commits() const noexcept {
    return traced_;
  }
  [[nodiscard]] const std::vector<ReadSample>& reads() const noexcept {
    return reads_;
  }
  [[nodiscard]] SpanLog& log() noexcept { return log_; }
  [[nodiscard]] const std::vector<std::string>& violations() const noexcept {
    return violations_;
  }
  [[nodiscard]] std::size_t violation_count() const noexcept {
    return violation_count_;
  }
  [[nodiscard]] std::size_t key_checks() const noexcept {
    return key_checks_;
  }
  [[nodiscard]] std::size_t secrecy_checks() const noexcept {
    return secrecy_checks_;
  }
  [[nodiscard]] std::uint64_t datagrams_read() const noexcept {
    return datagrams_read_;
  }
  [[nodiscard]] std::uint64_t useful_reads() const noexcept {
    return useful_reads_;
  }
  [[nodiscard]] std::uint64_t recovery_requests() const noexcept {
    return recovery_requests_;
  }
  /// Counters for traced-window ratios are reset here.
  void reset_counters() noexcept {
    datagrams_read_ = useful_reads_ = recovery_requests_ = 0;
  }
  /// Current churn members (users), for the shadow key tree.
  [[nodiscard]] std::vector<keygraphs::UserId> churn_members() const;
  [[nodiscard]] const std::vector<keygraphs::UserId>& observer_users()
      const noexcept {
    return observers_;
  }

  /// Fingerprint pieces for the decorator equivalence test.
  [[nodiscard]] std::uint64_t received_digest() const;
  [[nodiscard]] std::uint64_t requests_digest() const noexcept {
    return requests_digest_;
  }
  [[nodiscard]] std::vector<keygraphs::Bytes> member_keys() const;

 private:
  struct Endpoint {
    int fd = -1;
    keygraphs::transport::Address address;
    MemberPtr member;
    std::uint64_t digest = 0;
  };
  struct Slot {
    std::size_t endpoint = 0;
    bool observer = false;
    std::unique_ptr<RequestSequence> sequence;  // churn slots only
    bool in_flight = false;
    bool retired = false;
    bool counted = false;  // sent while counting
    Request request;
    std::int64_t sent_ns = 0;
  };
  struct PendingCommit {
    Commit commit;
    std::vector<MemberPtr> members;
    std::vector<std::size_t> slots;
    std::vector<MemberPtr> joiners;
    std::vector<MemberPtr> leavers;
    std::int64_t arrived_ns = 0;
  };
  struct KeyCheck {
    MemberPtr member;
    std::optional<keygraphs::SymmetricKey> key;  // what the client held
  };

  std::size_t add_endpoint();
  MemberPtr make_member(keygraphs::UserId user, std::size_t endpoint);
  void send(std::size_t endpoint, const keygraphs::Bytes& datagram);
  void send_request(std::size_t slot);
  void read_endpoint(std::size_t endpoint);
  void on_datagram(std::size_t endpoint, const keygraphs::Bytes& datagram);
  void on_commit(Commit&& commit);
  void check_convergence();
  void converge(PendingCommit& pending, std::int64_t when);
  void check_key_at(const MemberPtr& member, std::uint64_t epoch);
  void compare_key(const MemberPtr& member, const KeyCheck& seen,
                   const keygraphs::SymmetricKey& expected,
                   std::uint64_t epoch);
  void eavesdrop(const MemberPtr& leaver, const Commit& commit);
  void poll_recovery();
  void fail_request(std::size_t slot, bool thrown, bool timed_out);
  void violation(const std::string& what);

  WorkloadSpec spec_;
  FrontServer& front_;
  keygraphs::server::AuthService auth_;
  keygraphs::transport::Address server_address_;
  keygraphs::KeyId root_ = 0;
  int epoll_fd_ = -1;
  SpanLog log_;

  std::vector<Endpoint> endpoints_;
  std::vector<Slot> slots_;
  std::vector<keygraphs::UserId> observers_;
  std::unordered_map<keygraphs::UserId, std::size_t> slot_of_user_;
  std::vector<MemberPtr> members_;
  std::vector<PendingCommit> pending_;
  std::map<std::uint64_t, keygraphs::SymmetricKey> key_at_;
  std::map<std::uint64_t, std::vector<KeyCheck>> deferred_checks_;
  std::uint64_t last_end_epoch_ = 0;
  /// Distinct datagrams observers read, tagged with the epoch they carried
  /// (what an eavesdropper on the group's traffic would record).
  std::vector<std::pair<std::uint64_t, keygraphs::Bytes>> overheard_;

  bool counting_ = false;
  Outcomes outcomes_;
  std::vector<Served> served_;
  CommitTotals totals_;
  std::vector<Commit> traced_;
  std::vector<ReadSample> reads_;
  std::vector<std::string> violations_;
  std::size_t violation_count_ = 0;
  std::size_t key_checks_ = 0;
  std::size_t secrecy_checks_ = 0;
  std::uint64_t datagrams_read_ = 0;
  std::uint64_t useful_reads_ = 0;
  std::uint64_t recovery_requests_ = 0;
  std::size_t converged_total_ = 0;
  std::uint64_t requests_digest_;
  std::int64_t next_recovery_poll_ns_ = 0;
  keygraphs::Bytes buffer_;
};

}  // namespace perfbench
