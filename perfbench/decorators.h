// In-memory spans and the timing decorators the traced run wraps around the
// transport and storage layers. Both decorators forward every call to the
// wrapped object unchanged; they only read clocks and counters, so wire
// bytes and journal bytes are identical with and without them (the
// self-test checks this).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/backend.h"
#include "transport/udp.h"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Span names: the per-layer metric names without their unit suffix.
enum class SpanName : std::uint8_t {
  kOp,          // server.op: one commit (one request on K=1)
  kPlan,        // server.plan: GroupKeyServer::plan_*
  kSeal,        // rekey.seal: GroupKeyServer::seal
  kDispatch,    // server.dispatch: GroupKeyServer::dispatch
  kAppend,      // storage.append
  kSync,        // storage.sync
  kSend,        // transport.send: ServerTransport::deliver_many
  kResolve,     // transport.resolve: one Resolver callback
  kApply,       // client.apply: GroupClient::handle_datagram
  kMutate,      // keygraph.mutate: shadow KeyTree join/leave/batch_update
  kPublish,     // keygraph.publish: shadow KeyTree::publish_view
};
const char* span_name(SpanName name);

struct Span {
  SpanName name = SpanName::kOp;
  /// Shared by every span of one request (the commit sequence number on
  /// the server side, the epoch a datagram advanced a client to on the
  /// client side; the summary maps epochs back to commits).
  std::uint64_t trace = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  // index into the same log, -1 for a root
};

/// One thread's spans, kept in memory until the run ends. Recording is a
/// vector push; nothing is written out while the run measures.
class SpanLog {
 public:
  void set_enabled(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void set_trace(std::uint64_t trace) noexcept { trace_ = trace; }

  /// Opens a span under the innermost open one; returns its index (-1
  /// when disabled).
  std::int32_t begin(SpanName name);
  void end(std::int32_t index);
  /// Records an already-timed root span under an explicit trace id.
  void record(SpanName name, std::uint64_t trace, std::int64_t start_ns,
              std::int64_t end_ns);

  class Scope {
   public:
    Scope(SpanLog& log, SpanName name) : log_(log), index_(log.begin(name)) {}
    ~Scope() { log_.end(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    std::int32_t index_;
  };

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

 private:
  bool enabled_ = false;
  std::uint64_t trace_ = 0;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// ServerTransport decorator over UdpServerTransport: records a
/// transport.send span per burst and a transport.resolve span per Resolver
/// callback.
class TimingTransport final : public keygraphs::transport::ServerTransport {
 public:
  TimingTransport(keygraphs::transport::UdpServerTransport& inner,
                  SpanLog& log)
      : inner_(inner), log_(log) {}

  void deliver(const keygraphs::rekey::Recipient& to,
               keygraphs::BytesView datagram,
               const Resolver& resolve) override;
  void deliver_many(std::span<const OutboundDatagram> items) override;

 private:
  Resolver timed(const Resolver& resolve);

  keygraphs::transport::UdpServerTransport& inner_;
  SpanLog& log_;
};

/// StorageBackend decorator: storage.append / storage.sync spans and
/// appended-byte counts; everything else forwards untouched.
class TimingStorage final : public keygraphs::storage::StorageBackend {
 public:
  TimingStorage(std::shared_ptr<keygraphs::storage::StorageBackend> inner,
                SpanLog& log)
      : inner_(std::move(inner)), log_(log) {}

  [[nodiscard]] const char* name() const noexcept override {
    return inner_->name();
  }
  [[nodiscard]] std::size_t lanes() const noexcept override {
    return inner_->lanes();
  }
  void append(std::size_t lane, keygraphs::BytesView frame) override;
  void sync(std::size_t lane) override;
  [[nodiscard]] keygraphs::Bytes read_journal(
      std::size_t lane, std::size_t offset) const override {
    return inner_->read_journal(lane, offset);
  }
  [[nodiscard]] std::size_t journal_size(std::size_t lane) const override {
    return inner_->journal_size(lane);
  }
  void truncate(std::size_t lane, std::size_t size) override {
    inner_->truncate(lane, size);
  }
  void compact(std::uint64_t epoch, keygraphs::BytesView snapshot) override {
    inner_->compact(epoch, snapshot);
  }
  [[nodiscard]] std::optional<keygraphs::Bytes> read_snapshot()
      const override {
    return inner_->read_snapshot();
  }
  [[nodiscard]] std::uint64_t snapshot_epoch() const override {
    return inner_->snapshot_epoch();
  }
  [[nodiscard]] std::uint64_t generation() const override {
    return inner_->generation();
  }

  [[nodiscard]] std::uint64_t bytes_appended() const noexcept {
    return bytes_;
  }

 private:
  std::shared_ptr<keygraphs::storage::StorageBackend> inner_;
  SpanLog& log_;
  std::uint64_t bytes_ = 0;
};

}  // namespace perfbench
