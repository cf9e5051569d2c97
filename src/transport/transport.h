// Transport abstraction.
//
// The paper's prototype sends join/leave/rekey traffic as UDP datagrams and
// assumes reliable delivery plus subgroup multicast where available. We
// provide three implementations behind one server-facing interface:
//   - InProcNetwork: in-process delivery with true subgroup multicast (the
//     client-simulator and most benches run on this);
//   - UdpServerTransport (udp.h): real sockets, subgroup multicast emulated
//     by unicast fan-out (the paper's fallback when the network lacks it);
//   - NullTransport: discards traffic but counts it (server-side timing
//     benches, where client work must not pollute server measurements).
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "keygraph/key.h"
#include "rekey/message.h"

namespace keygraphs::transport {

/// Server-side outbound port. `resolve` lazily enumerates the users behind
/// a subgroup recipient: each user exactly once, in no specified order.
/// Implementations with native multicast (InProc) never call it, unicast
/// fan-out implementations do.
class ServerTransport {
 public:
  virtual ~ServerTransport() = default;

  using Resolver = std::function<std::vector<UserId>()>;

  virtual void deliver(const rekey::Recipient& to, BytesView datagram,
                       const Resolver& resolve) = 0;

  /// One framed datagram of a dispatch burst, for deliver_many.
  struct OutboundDatagram {
    rekey::Recipient to;
    BytesView datagram;
    Resolver resolve;
  };

  /// Delivers a whole burst at once. Semantically identical to calling
  /// deliver() on each item in order — and that is the default — but
  /// implementations that can gather (UDP via sendmmsg) override it to
  /// amortize per-datagram syscall cost across the burst. The referenced
  /// datagram bytes must stay alive for the duration of the call.
  virtual void deliver_many(std::span<const OutboundDatagram> items) {
    for (const OutboundDatagram& item : items) {
      deliver(item.to, item.datagram, item.resolve);
    }
  }
};

/// Counts-only transport for timing benches.
class NullTransport final : public ServerTransport {
 public:
  void deliver(const rekey::Recipient& to, BytesView datagram,
               const Resolver& resolve) override {
    (void)to;
    (void)resolve;
    ++datagrams_;
    bytes_ += datagram.size();
  }

  [[nodiscard]] std::size_t datagrams() const noexcept { return datagrams_; }
  [[nodiscard]] std::size_t bytes() const noexcept { return bytes_; }
  void reset() noexcept { datagrams_ = bytes_ = 0; }

 private:
  std::size_t datagrams_ = 0;
  std::size_t bytes_ = 0;
};

}  // namespace keygraphs::transport
