// Rekeying strategy interface (paper Section 3).
//
// A strategy is a pure planner: it consumes the tree-mutation record of one
// join/leave and emits PlannedRekey messages whose payloads are symbolic
// WrapOps registered with a RekeyPlanner (which also counts the key
// encryptions, the paper's server-cost unit — nothing is encrypted yet; the
// RekeyExecutor seals the plan later, possibly on worker threads). The
// three strategies of the paper plus the Section 7 hybrid all implement
// this interface, so the server, the tests, and every benchmark treat them
// uniformly.
#pragma once

#include <memory>

#include "keygraph/key_tree.h"
#include "rekey/message.h"
#include "rekey/plan.h"

namespace keygraphs::rekey {

class RekeyStrategy {
 public:
  virtual ~RekeyStrategy() = default;

  [[nodiscard]] virtual StrategyKind kind() const noexcept = 0;

  /// Messages for a join: zero or more to existing members plus exactly one
  /// unicast to the joining user carrying its whole new keyset.
  [[nodiscard]] virtual std::vector<PlannedRekey> plan_join(
      const JoinRecord& record, RekeyPlanner& planner) const = 0;

  /// Messages for a leave (no message goes to the departed user).
  [[nodiscard]] virtual std::vector<PlannedRekey> plan_leave(
      const LeaveRecord& record, RekeyPlanner& planner) const = 0;
};

/// Factory for all four strategies.
std::unique_ptr<RekeyStrategy> make_strategy(StrategyKind kind);

namespace detail {

/// New keys of path[0..upto] as a contiguous span-friendly vector
/// (root-first order, matching the paper's K'_0 .. K'_i).
std::vector<SymmetricKey> new_keys_upto(const std::vector<PathChange>& path,
                                        std::size_t upto);

/// Stamps kind/strategy on a fresh message (header fields that identify the
/// operation — group/epoch/timestamp — are filled by the server).
RekeyMessage base_message(RekeyKind kind, StrategyKind strategy);

}  // namespace detail

}  // namespace keygraphs::rekey
