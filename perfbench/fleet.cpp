#include "fleet.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <limits>

#include "common/error.h"
#include "telemetry/metrics.h"

namespace perfbench {

namespace kg = keygraphs;

namespace {

constexpr std::uint64_t kEventTag = std::numeric_limits<std::uint64_t>::max();
constexpr std::size_t kMaxViolationsKept = 16;
constexpr std::size_t kMaxOverheard = 4096;
constexpr std::size_t kMaxAdvances = 256;
constexpr std::size_t kMaxKeysKept = 1024;
constexpr std::int64_t kRecoveryPollNs = 20'000'000;

std::uint64_t steady_us() {
  return static_cast<std::uint64_t>(now_ns() / 1000);
}

}  // namespace

Fleet::Fleet(const WorkloadSpec& spec, std::uint64_t seed,
               FrontServer& front)
    : spec_(spec),
      front_(front),
      auth_(spec.config.auth_master),
      server_address_(front.address()),
      root_(front.root_id()),
      requests_digest_(kFnvBasis),
      buffer_(65536) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) throw kg::Error("perfbench: epoll_create1() failed");
  epoll_event event{};
  event.events = EPOLLIN;
  event.data.u64 = kEventTag;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, front.event_fd(), &event);

  observers_ = observer_ids(seed);
  for (kg::UserId user : observers_) {
    (void)user;
    Slot slot;
    slot.endpoint = add_endpoint();
    slot.observer = true;
    slots_.push_back(std::move(slot));
  }
  for (std::size_t i = 0; i < spec.churn_users; ++i) {
    Slot slot;
    slot.endpoint = add_endpoint();
    slot.sequence = std::make_unique<RequestSequence>(seed, i);
    slots_.push_back(std::move(slot));
  }
  last_end_epoch_ = front.epoch();
  key_at_[last_end_epoch_] = front.group_key();
}

Fleet::~Fleet() {
  for (const Endpoint& endpoint : endpoints_) ::close(endpoint.fd);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

std::size_t Fleet::add_endpoint() {
  const int fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) throw kg::Error("perfbench: socket() failed");
  const int buffer = 4 << 20;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &buffer, sizeof(buffer));
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  sa.sin_port = 0;
  socklen_t length = sizeof(sa);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &length) != 0) {
    ::close(fd);
    throw kg::Error("perfbench: cannot bind a loopback client socket");
  }
  const std::size_t index = endpoints_.size();
  Endpoint endpoint;
  endpoint.fd = fd;
  endpoint.address = kg::transport::Address{ntohl(sa.sin_addr.s_addr),
                                            ntohs(sa.sin_port)};
  endpoint.digest = kFnvBasis;
  endpoints_.push_back(std::move(endpoint));
  epoll_event event{};
  event.events = EPOLLIN;
  event.data.u64 = index;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event);
  return index;
}

MemberPtr Fleet::make_member(kg::UserId user, std::size_t endpoint) {
  kg::client::ClientConfig config;
  config.user = user;
  config.suite = spec_.config.suite;
  config.group = spec_.config.group;
  config.root = root_;
  config.verify = spec_.config.suite.signs();
  config.rng_seed = user * 0x2545F4914F6CDD1Dull + 1;
  config.recovery.clock_us = steady_us;
  config.recovery.token = auth_.resync_token(user);
  auto member = std::make_shared<Member>();
  member->user = user;
  member->endpoint = endpoint;
  member->client = std::make_unique<kg::client::GroupClient>(
      config, front_.public_key());
  member->client->install_individual_key(kg::SymmetricKey{
      kg::individual_key_id(user), 1,
      auth_.individual_key(user, config.suite.key_size())});
  return member;
}

void Fleet::send(std::size_t endpoint, const kg::Bytes& datagram) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(server_address_.ip);
  sa.sin_port = htons(server_address_.port);
  if (::sendto(endpoints_[endpoint].fd, datagram.data(), datagram.size(), 0,
               reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) < 0) {
    violation("request send failed");
  }
}

void Fleet::send_request(std::size_t index) {
  Slot& slot = slots_[index];
  slot.request = slot.observer
                     ? Request{RequestKind::kJoin, observers_[index]}
                     : slot.sequence->next();
  const kg::UserId user = slot.request.user;
  const std::uint8_t kind = slot.request.kind == RequestKind::kJoin ? 1 : 2;
  requests_digest_ = fnv1a(requests_digest_, kg::BytesView(&kind, 1));
  requests_digest_ = fnv1a(
      requests_digest_,
      kg::BytesView(reinterpret_cast<const std::uint8_t*>(&user), sizeof(user)));
  kg::Bytes datagram;
  if (slot.request.kind == RequestKind::kJoin) {
    endpoints_[slot.endpoint].member = make_member(user, slot.endpoint);
    datagram = request_datagram(kg::rekey::MessageType::kJoinRequest, user,
                                auth_.join_token(user));
  } else {
    datagram = request_datagram(kg::rekey::MessageType::kLeaveRequest, user,
                                auth_.leave_token(user));
  }
  slot_of_user_[user] = index;
  slot.in_flight = true;
  slot.counted = counting_;
  if (counting_) ++outcomes_.attempted;
  slot.sent_ns = now_ns();
  send(slot.endpoint, datagram);
}

void Fleet::join_observers() {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].observer) send_request(i);
  }
}

std::size_t Fleet::send_idle() {
  // The batching workload runs in rounds: every churn user sends its next
  // request once the whole previous round has converged, so each commit
  // carries one request per user even if a burst was split in transit.
  if (spec_.front == Front::kShardedBatch && in_flight() > 0) return 0;
  std::size_t sent = 0;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    Slot& slot = slots_[i];
    if (!slot.observer && !slot.in_flight && !slot.retired) {
      send_request(i);
      ++sent;
    }
  }
  return sent;
}

bool Fleet::idle() const { return in_flight() == 0 && pending_.empty(); }

std::size_t Fleet::in_flight() const {
  std::size_t count = 0;
  for (const Slot& slot : slots_) count += slot.in_flight ? 1 : 0;
  return count;
}

bool Fleet::observers_joined() const {
  std::size_t joined = 0;
  for (const MemberPtr& member : members_) {
    joined += member->endpoint < kObservers ? 1 : 0;
  }
  return joined == kObservers && idle();
}

bool Fleet::pump(int timeout_ms) {
  epoll_event events[128];
  const int ready = ::epoll_wait(epoll_fd_, events, 128, timeout_ms);
  bool commits = false;
  for (int i = 0; i < ready; ++i) {
    if (events[i].data.u64 == kEventTag) {
      commits = true;
    } else {
      read_endpoint(static_cast<std::size_t>(events[i].data.u64));
    }
  }
  if (commits) {
    for (Commit& commit : front_.take_commits()) on_commit(std::move(commit));
  }
  if (ready > 0) check_convergence();
  if (now_ns() >= next_recovery_poll_ns_) {
    poll_recovery();
    next_recovery_poll_ns_ = now_ns() + kRecoveryPollNs;
  }
  return ready > 0;
}

void Fleet::read_endpoint(std::size_t index) {
  while (true) {
    const ssize_t got = ::recv(endpoints_[index].fd, buffer_.data(),
                               buffer_.size(), MSG_DONTWAIT);
    if (got < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN: drained
    }
    on_datagram(index, kg::Bytes(buffer_.begin(), buffer_.begin() + got));
  }
}

void Fleet::on_datagram(std::size_t index, const kg::Bytes& datagram) {
  Endpoint& endpoint = endpoints_[index];
  endpoint.digest = fnv1a(endpoint.digest, datagram);
  const MemberPtr member = endpoint.member;
  if (!member) return;
  kg::client::GroupClient& client = *member->client;
  kg::client::RekeyOutcome outcome;
  const std::int64_t read_ns = now_ns();
  try {
    outcome = client.handle_datagram(datagram);
  } catch (const std::exception& error) {
    if (!member->departed) {
      violation(std::string("client threw: ") + error.what());
    }
    return;
  }
  const std::int64_t done_ns = now_ns();
  if (member->departed) return;
  ++datagrams_read_;
  if (outcome.keys_changed > 0) ++useful_reads_;
  const bool rekey = outcome.accepted || outcome.stale;
  if (log_.enabled() && rekey) {
    log_.record(SpanName::kApply, client.last_epoch(), read_ns, done_ns);
    reads_.push_back({read_ns, done_ns - read_ns, client.last_epoch()});
  }
  if (outcome.needs_resync && !outcome.buffered) {
    violation("decrypt failure at user " + std::to_string(member->user));
  }
  if (client.totals().rejected > member->rejected_seen) {
    member->rejected_seen = client.totals().rejected;
    violation("verify failure at user " + std::to_string(member->user));
  }
  const std::uint64_t applied = client.applied_epoch();
  const std::uint64_t previous =
      member->advances.empty() ? 0 : member->advances.back().first;
  if (applied > previous) {
    member->advances.emplace_back(applied, done_ns);
    if (member->advances.size() > kMaxAdvances) {
      member->advances.erase(member->advances.begin(),
                             member->advances.begin() + kMaxAdvances / 2);
    }
    check_key_at(member, applied);
  }
  if (index < kObservers) {
    const std::uint64_t tag = client.last_epoch();
    const std::size_t from =
        overheard_.size() > 64 ? overheard_.size() - 64 : 0;
    bool seen = false;
    for (std::size_t i = from; i < overheard_.size() && !seen; ++i) {
      seen = overheard_[i].first == tag && overheard_[i].second == datagram;
    }
    if (!seen) {
      overheard_.emplace_back(tag, datagram);
      if (overheard_.size() > kMaxOverheard) {
        overheard_.erase(overheard_.begin(),
                         overheard_.begin() + kMaxOverheard / 2);
      }
    }
  }
}

void Fleet::check_key_at(const MemberPtr& member, std::uint64_t epoch) {
  if (member->departed) return;
  KeyCheck seen{member, member->client->group_key()};
  const auto it = key_at_.find(epoch);
  if (it != key_at_.end()) {
    compare_key(member, seen, it->second, epoch);
  } else if (epoch > last_end_epoch_) {
    deferred_checks_[epoch].push_back(std::move(seen));
  }
  // Otherwise the epoch is inside a multi-epoch batch commit; the member
  // is checked again when it reaches that commit's last epoch.
}

void Fleet::compare_key(const MemberPtr& member, const KeyCheck& seen,
                         const kg::SymmetricKey& expected,
                         std::uint64_t epoch) {
  ++key_checks_;
  if (!seen.key.has_value() || !(*seen.key == expected)) {
    violation("user " + std::to_string(member->user) + " at epoch " +
              std::to_string(epoch) + " does not hold the server's group key");
  }
}

void Fleet::on_commit(Commit&& commit) {
  PendingCommit pending;
  pending.arrived_ns = now_ns();
  for (const Handled& handled : commit.requests) {
    const auto it = slot_of_user_.find(handled.user);
    if (it == slot_of_user_.end()) continue;
    const std::size_t index = it->second;
    if (!handled.granted || handled.thrown) {
      fail_request(index, handled.thrown, false);
      continue;
    }
    const MemberPtr member = endpoints_[slots_[index].endpoint].member;
    pending.slots.push_back(index);
    if (handled.kind == RequestKind::kJoin) {
      members_.push_back(member);
      pending.joiners.push_back(member);
    } else {
      members_.erase(std::remove(members_.begin(), members_.end(), member),
                     members_.end());
      member->departed = true;
      pending.leavers.push_back(member);
    }
  }
  pending.members = members_;
  if (commit.end_epoch > last_end_epoch_) {
    key_at_[commit.end_epoch] = commit.key;
    while (key_at_.size() > kMaxKeysKept) key_at_.erase(key_at_.begin());
    while (!deferred_checks_.empty() &&
           deferred_checks_.begin()->first <= commit.end_epoch) {
      const auto first = deferred_checks_.begin();
      if (first->first == commit.end_epoch) {
        for (const KeyCheck& check : first->second) {
          if (!check.member->departed) {
            compare_key(check.member, check, commit.key, first->first);
          }
        }
      }
      deferred_checks_.erase(first);
    }
    last_end_epoch_ = commit.end_epoch;
  }
  if (counting_) {
    ++totals_.commits;
    totals_.bytes += commit.bytes;
    for (const Handled& h : commit.requests) {
      totals_.ops += h.granted && !h.thrown ? 1 : 0;
    }
  }
  if (commit.traced) traced_.push_back(commit);
  if (pending.slots.empty()) return;
  pending.commit = std::move(commit);
  pending_.push_back(std::move(pending));
  check_convergence();
}

void Fleet::check_convergence() {
  for (std::size_t i = 0; i < pending_.size();) {
    PendingCommit& pending = pending_[i];
    const std::uint64_t epoch = pending.commit.end_epoch;
    bool all = true;
    std::int64_t when = 0;
    for (const MemberPtr& member : pending.members) {
      // A member written off by expire() no longer holds anyone back.
      if (member->departed) continue;
      if (member->client->applied_epoch() < epoch) {
        all = false;
        break;
      }
      std::int64_t reached = pending.arrived_ns;
      for (const auto& [applied, at] : member->advances) {
        if (applied >= epoch) {
          reached = at;
          break;
        }
      }
      when = std::max(when, reached);
    }
    if (!all) {
      ++i;
      continue;
    }
    converge(pending, when);
    pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
  }
}

void Fleet::converge(PendingCommit& pending, std::int64_t when) {
  const Commit& commit = pending.commit;
  for (std::size_t index : pending.slots) {
    Slot& slot = slots_[index];
    if (slot.counted) {
      ++outcomes_.converged;
      served_.push_back({slot.sent_ns, when, commit.seq});
    }
    slot.in_flight = false;
    slot_of_user_.erase(slot.request.user);
    if (!slot.observer) ++converged_total_;
  }
  // Backward secrecy: a joiner must not hold the group key from before it
  // joined.
  for (const MemberPtr& joiner : pending.joiners) {
    ++secrecy_checks_;
    const auto key = joiner->client->group_key();
    if (!key.has_value()) {
      violation("joiner " + std::to_string(joiner->user) +
                " holds no group key after converging");
    } else if (*key == commit.pre_key) {
      violation("joiner " + std::to_string(joiner->user) +
                " holds the group key from before its join");
    }
  }
  // Forward secrecy: replay what the group's members received for this
  // commit into each departed client, as an eavesdropper would; it must
  // still not reach the new group key.
  for (const MemberPtr& leaver : pending.leavers) {
    ++secrecy_checks_;
    eavesdrop(leaver, commit);
    const auto key = leaver->client->group_key();
    const bool holds_new =
        key.has_value() &&
        (*key == commit.key ||
         (!key_at_.empty() && *key == key_at_.rbegin()->second));
    if (holds_new) {
      violation("departed user " + std::to_string(leaver->user) +
                " holds a group key from after its leave");
    }
  }
}

void Fleet::eavesdrop(const MemberPtr& leaver, const Commit& commit) {
  for (const auto& [tag, datagram] : overheard_) {
    if (tag < commit.first_epoch || tag > commit.end_epoch) continue;
    try {
      (void)leaver->client->handle_datagram(datagram);
    } catch (const std::exception&) {
      // A departed client rejecting traffic is the expected outcome.
    }
  }
}

void Fleet::poll_recovery() {
  for (const MemberPtr& member : members_) {
    if (auto request = member->client->poll_recovery()) {
      send(member->endpoint, *request);
      ++recovery_requests_;
    }
  }
}

void Fleet::fail_request(std::size_t index, bool thrown, bool timed_out) {
  Slot& slot = slots_[index];
  if (slot.counted) {
    if (thrown) {
      ++outcomes_.thrown;
    } else if (timed_out) {
      ++outcomes_.timed_out;
    } else {
      ++outcomes_.denied;
    }
  }
  if (slot.observer) {
    violation("observer " + std::to_string(slot.request.user) +
              " could not join");
  }
  slot.in_flight = false;
  slot.retired = true;
  slot_of_user_.erase(slot.request.user);
}

void Fleet::expire(std::int64_t deadline_ns) {
  for (std::size_t i = 0; i < pending_.size();) {
    bool stale = false;
    for (std::size_t index : pending_[i].slots) {
      stale = stale || slots_[index].sent_ns < deadline_ns;
    }
    if (!stale) {
      ++i;
      continue;
    }
    // A member that never converged would hold back every later commit.
    for (const MemberPtr& joiner : pending_[i].joiners) {
      members_.erase(std::remove(members_.begin(), members_.end(), joiner),
                     members_.end());
      joiner->departed = true;
    }
    for (std::size_t index : pending_[i].slots) fail_request(index, false, true);
    pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
  }
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].in_flight && slots_[i].sent_ns < deadline_ns) {
      fail_request(i, false, true);
    }
  }
}

void Fleet::violation(const std::string& what) {
  ++violation_count_;
  if (violations_.size() < kMaxViolationsKept) violations_.push_back(what);
}

std::vector<kg::UserId> Fleet::churn_members() const {
  std::vector<kg::UserId> users;
  for (const MemberPtr& member : members_) {
    if (member->endpoint >= kObservers) users.push_back(member->user);
  }
  return users;
}

std::uint64_t Fleet::received_digest() const {
  std::uint64_t digest = kFnvBasis;
  for (const Endpoint& endpoint : endpoints_) {
    digest = fnv1a(digest,
                   kg::BytesView(reinterpret_cast<const std::uint8_t*>(
                                     &endpoint.digest),
                                 sizeof(endpoint.digest)));
  }
  return digest;
}

std::vector<kg::Bytes> Fleet::member_keys() const {
  std::vector<kg::Bytes> keys;
  for (const Endpoint& endpoint : endpoints_) {
    if (!endpoint.member || endpoint.member->departed) continue;
    const auto key = endpoint.member->client->group_key();
    keys.push_back(key.has_value() ? key->secret : kg::Bytes{});
  }
  return keys;
}

}  // namespace perfbench
