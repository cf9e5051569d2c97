// Batch (periodic) rekeying — the natural extension of the paper's
// group-oriented strategy to many membership changes at once.
//
// Instead of rekeying after every request, the server queues joins and
// leaves for an interval and rekeys every affected k-node exactly once:
// one multicast carries {K'_x}_{K_child} for every changed node x and each
// of its children, plus one welcome unicast per joiner. When rekey paths
// overlap (heavy churn), the per-change cost drops well below the
// sequential d(h-1); the tradeoff is that evicted members keep reading
// until the batch fires.
#pragma once

#include "rekey/strategy.h"

namespace keygraphs::rekey {

/// Plans the rekey messages for one batched membership update: a single
/// group multicast plus one unicast per joiner. Returns an empty vector
/// for an empty batch.
std::vector<PlannedRekey> plan_batch(const BatchRecord& record,
                                     RekeyPlanner& planner);

}  // namespace keygraphs::rekey
