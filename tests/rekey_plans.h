// Rekey plans and hand-crafted rekey datagrams for the test suites, built
// on the server's own pipeline: RekeyPlanner plans, RekeyExecutor seals.
//
// Plan-level suites (the paper's message shapes and Section 3.5 counts)
// assert on the RekeyPlan itself: `key_encryptions`, `messages[i].to`, and
// each op's `wrap`/`targets`. Client-side suites that need wire bytes
// describe a message as a header plus the blobs it should carry, and get
// back the envelopes the server would have sent.
#pragma once

#include <span>
#include <vector>

#include "rekey/batch.h"
#include "rekey/executor.h"
#include "rekey/strategy.h"

namespace keygraphs::rekey_plans {

using rekey::RekeyPlan;
using rekey::RekeyPlanner;
using rekey::RekeySealer;

inline constexpr crypto::CipherAlgorithm kDes = crypto::CipherAlgorithm::kDes;

inline RekeyPlan plan_join(rekey::StrategyKind kind, const JoinRecord& record,
                           crypto::SecureRandom& rng,
                           crypto::CipherAlgorithm cipher = kDes) {
  RekeyPlanner planner(cipher, rng);
  auto messages = rekey::make_strategy(kind)->plan_join(record, planner);
  return planner.take(std::move(messages));
}

inline RekeyPlan plan_leave(rekey::StrategyKind kind,
                            const LeaveRecord& record,
                            crypto::SecureRandom& rng,
                            crypto::CipherAlgorithm cipher = kDes) {
  RekeyPlanner planner(cipher, rng);
  auto messages = rekey::make_strategy(kind)->plan_leave(record, planner);
  return planner.take(std::move(messages));
}

inline RekeyPlan plan_batch(const BatchRecord& record,
                            crypto::SecureRandom& rng) {
  RekeyPlanner planner(kDes, rng);
  auto messages = rekey::plan_batch(record, planner);
  return planner.take(std::move(messages));
}

/// The wrap op behind blob `blob` of message `message`.
inline const rekey::WrapOp& op_of(const RekeyPlan& plan, std::size_t message,
                                  std::size_t blob) {
  return plan.ops.at(plan.messages.at(message).ops.at(blob));
}

/// One blob of a crafted message: `targets` wrapped under `wrapping`.
struct Wrap {
  SymmetricKey wrapping;
  std::vector<SymmetricKey> targets;
};

/// A crafted message: header fields (epoch, kind, obsolete, ...) plus its
/// blobs in wire order.
struct Crafted {
  rekey::RekeyMessage header;
  std::vector<Wrap> wraps;
};

inline const RekeySealer& plain_sealer() {
  static const RekeySealer sealer(rekey::SigningMode::kNone,
                                  crypto::DigestAlgorithm::kNone, nullptr);
  return sealer;
}

/// Plans every message's blobs (one op per Wrap, IVs drawn from `rng`) and
/// seals the plan under `sealer`. Returns the wire envelopes in order. A
/// plan resolves each (id, version) to one secret, so the messages of one
/// call must not reuse a key ref with different secrets.
inline std::vector<Bytes> seal(std::span<const Crafted> messages,
                               crypto::SecureRandom& rng,
                               const RekeySealer& sealer = plain_sealer(),
                               crypto::CipherAlgorithm cipher = kDes) {
  RekeyPlanner planner(cipher, rng);
  std::vector<rekey::PlannedRekey> planned;
  for (const Crafted& message : messages) {
    rekey::PlannedRekey& entry = planned.emplace_back();
    entry.header = message.header;
    for (const Wrap& wrap : message.wraps) {
      entry.ops.push_back(planner.wrap(wrap.wrapping, wrap.targets));
    }
  }
  rekey::RekeyExecutor executor(cipher, 1);
  std::vector<Bytes> wire;
  for (rekey::SealedRekey& sealed :
       executor.seal(planner.take(std::move(planned)), sealer)) {
    wire.push_back(std::move(sealed.wire));
  }
  return wire;
}

/// seal() of a single message.
inline Bytes seal_one(const Crafted& message, crypto::SecureRandom& rng,
                      const RekeySealer& sealer = plain_sealer()) {
  return seal(std::span(&message, 1), rng, sealer).front();
}

}  // namespace keygraphs::rekey_plans
