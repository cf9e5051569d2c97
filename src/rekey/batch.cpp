#include "rekey/batch.h"

#include <set>

namespace keygraphs::rekey {

std::vector<PlannedRekey> plan_batch(const BatchRecord& record,
                                     RekeyPlanner& planner) {
  std::vector<PlannedRekey> out;
  if (record.changes.empty()) return out;

  // The multicast: every changed node's new key wrapped under each of its
  // children's current keys. Clients decrypt to a fixpoint exactly as for
  // a group-oriented leave. Joiners' individual keys are leaves here too,
  // but joiners are served by their welcome unicasts (they are not yet on
  // the group's multicast address).
  PlannedRekey broadcast;
  broadcast.header =
      detail::base_message(RekeyKind::kBatch, StrategyKind::kGroupOriented);
  const KeyId root = [&record] {
    // The root is the unique changed node that is nobody's child.
    std::set<KeyId> children;
    for (const BatchChange& change : record.changes) {
      for (const ChildKey& child : change.children) {
        children.insert(child.node);
      }
    }
    for (const BatchChange& change : record.changes) {
      if (!children.contains(change.node)) return change.node;
    }
    return record.changes.front().node;
  }();

  for (const BatchChange& change : record.changes) {
    for (const ChildKey& child : change.children) {
      broadcast.ops.push_back(
          planner.wrap(child.key, std::span(&change.new_key, 1)));
    }
  }
  if (!broadcast.ops.empty()) {
    broadcast.to = Recipient::to_subgroup(root);
    out.push_back(std::move(broadcast));
  }

  for (const auto& [user, keyset] : record.joiner_keysets) {
    PlannedRekey welcome;
    welcome.header =
        detail::base_message(RekeyKind::kBatch, StrategyKind::kGroupOriented);
    // keyset is leaf-to-root; the leaf (individual key) wraps the rest.
    const SymmetricKey& individual = keyset.front();
    const std::vector<SymmetricKey> rest(keyset.begin() + 1, keyset.end());
    if (!rest.empty()) {
      welcome.ops.push_back(planner.wrap(individual, rest));
    }
    welcome.to = Recipient::to_user(user);
    out.push_back(std::move(welcome));
  }
  return out;
}

}  // namespace keygraphs::rekey
