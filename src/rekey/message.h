// Rekey message wire format (paper Sections 3 and 4).
//
// A rekey message carries one or more encrypted new keys. As the paper
// notes, real rekey messages also carry subgroup labels for the new keys, a
// timestamp, a message integrity check, and a server digital signature; the
// format here includes all of those. Each encrypted item ("blob") names the
// wrapping key by (id, version) so a client can tell instantly whether it
// can decrypt it, and names the target keys so it knows what it learned.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bytes.h"
#include "keygraph/key.h"
#include "merkle/digest_tree.h"

namespace keygraphs::rekey {

/// Whether the operation that produced a message was a join, a leave, or a
/// batched interval of both (the periodic-rekeying extension).
enum class RekeyKind : std::uint8_t {
  kJoin = 1,
  kLeave = 2,
  kBatch = 3,
  /// Stats-only: a keyset replay for a member that missed a rekey. Never
  /// serialized — on the wire a resync is a welcome-shaped kJoin message,
  /// so parse_body() will never produce this value; it exists so OpRecords
  /// can account recovery traffic separately from real joins.
  kResync = 4,
};

/// The paper's three rekeying strategies plus the Section 7 hybrid.
enum class StrategyKind : std::uint8_t {
  kUserOriented = 1,
  kKeyOriented = 2,
  kGroupOriented = 3,
  kHybrid = 4,
};

std::string strategy_name(StrategyKind kind);

/// One encryption unit: the secrets of `targets` (concatenated in order)
/// CBC-encrypted under the key identified by `wrap`. User-oriented rekeying
/// packs many targets per blob; key- and group-oriented use one each.
struct KeyBlob {
  KeyRef wrap;
  std::vector<KeyRef> targets;
  Bytes ciphertext;  // IV || CBC blocks

  friend bool operator==(const KeyBlob&, const KeyBlob&) = default;
};

/// How a sealed message is authenticated.
enum class AuthKind : std::uint8_t {
  kNone = 0,            // paper's "encryption only" configuration
  kDigest = 1,          // integrity check only, no signature
  kSignature = 2,       // one RSA signature per rekey message
  kBatchSignature = 3,  // Section 4: one signature per batch + Merkle path
};

/// A rekey message before sealing (no authentication section).
struct RekeyMessage {
  GroupId group = 0;
  std::uint64_t epoch = 0;         // server operation counter, anti-replay
  std::uint64_t timestamp_us = 0;  // server clock, microseconds
  RekeyKind kind = RekeyKind::kJoin;
  StrategyKind strategy = StrategyKind::kGroupOriented;
  /// K-nodes deleted by this operation; receivers may drop those keys.
  std::vector<KeyId> obsolete;
  std::vector<KeyBlob> blobs;

  /// Serialized body — the byte string that digests/signatures cover.
  [[nodiscard]] Bytes serialize_body() const;
  static RekeyMessage parse_body(BytesView data);

  friend bool operator==(const RekeyMessage&, const RekeyMessage&) = default;
};

/// Destination of one rekey message. kUser is unicast; kSubgroup is the
/// paper's subgroup multicast: everyone holding key `include`, minus anyone
/// holding `exclude` (Figure 6's userset(K_i) - userset(K_{i+1})).
struct Recipient {
  enum class Kind : std::uint8_t { kUser = 1, kSubgroup = 2 };

  Kind kind = Kind::kUser;
  UserId user = 0;
  KeyId include = 0;
  std::optional<KeyId> exclude;

  static Recipient to_user(UserId user) {
    return Recipient{Kind::kUser, user, 0, std::nullopt};
  }
  static Recipient to_subgroup(KeyId include,
                               std::optional<KeyId> exclude = std::nullopt) {
    return Recipient{Kind::kSubgroup, 0, include, exclude};
  }
};

/// Datagram framing shared by the whole protocol (requests, acks, rekeys,
/// application payloads). One byte of type plus the payload.
enum class MessageType : std::uint8_t {
  kJoinRequest = 1,
  kJoinDenied = 2,
  kLeaveRequest = 3,
  kLeaveAck = 4,
  kRekey = 5,
  kAppData = 6,
  /// A member that missed a rekey (lossy transport) asks the server to
  /// replay its current keyset. Same payload shape as join/leave requests:
  /// u64 user + var token. Answered with a welcome-style kRekey unicast.
  kResyncRequest = 7,
  /// A member that detected an epoch gap asks for the missed rekey
  /// datagrams by negative acknowledgement: u64 user + var token +
  /// u64 have_epoch (the last epoch it fully applied). The server answers
  /// with unicast replays of the stored datagrams when the gap is inside
  /// its retransmit window, and falls back to a full keyset resync when it
  /// is not (see rekey/retransmit.h).
  kNackRequest = 8,
  /// Overload control: the server shed this request and the client should
  /// retry after the hint elapses. Payload: u64 retry-after, microseconds.
  /// Only ever emitted when the server runs with `overload = on`, so all
  /// pre-existing wire goldens hold with the default off (see
  /// docs/PROTOCOL.md § Overload control).
  kRetryLater = 9,
};

/// Optional trace-propagation extension on a datagram: the server's trace
/// id for the rekey operation that produced it, plus the epoch and
/// operation kind for context. Carried only when the server runs with
/// `trace_propagation = on`; without it the encoding is byte-identical to
/// the pre-extension format (the high bit of the type byte flags its
/// presence), so all wire goldens hold with the default off.
struct TraceExtension {
  std::uint64_t trace_id = 0;
  std::uint64_t epoch = 0;
  std::uint8_t op_kind = 0;  // RekeyKind of the originating operation

  friend bool operator==(const TraceExtension&,
                         const TraceExtension&) = default;
};

struct Datagram {
  MessageType type = MessageType::kRekey;
  Bytes payload;
  std::optional<TraceExtension> trace;

  Datagram() = default;
  Datagram(MessageType type_in, Bytes payload_in,
           std::optional<TraceExtension> trace_in = std::nullopt)
      : type(type_in),
        payload(std::move(payload_in)),
        trace(std::move(trace_in)) {}

  /// Set on the type byte when a TraceExtension follows it on the wire.
  static constexpr std::uint8_t kTraceFlag = 0x80;

  [[nodiscard]] Bytes encode() const;
  static Datagram decode(BytesView data);
};

}  // namespace keygraphs::rekey
