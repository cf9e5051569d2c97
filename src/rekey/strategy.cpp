#include "rekey/strategy.h"

#include "common/error.h"
#include "rekey/group_oriented.h"
#include "rekey/hybrid.h"
#include "rekey/key_oriented.h"
#include "rekey/user_oriented.h"
#include "telemetry/metrics.h"

namespace keygraphs::rekey {

std::unique_ptr<RekeyStrategy> make_strategy(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kUserOriented:
      return std::make_unique<UserOrientedStrategy>();
    case StrategyKind::kKeyOriented:
      return std::make_unique<KeyOrientedStrategy>();
    case StrategyKind::kGroupOriented:
      return std::make_unique<GroupOrientedStrategy>();
    case StrategyKind::kHybrid:
      return std::make_unique<HybridStrategy>();
  }
  throw Error("make_strategy: unknown strategy");
}

namespace detail {

std::vector<SymmetricKey> new_keys_upto(const std::vector<PathChange>& path,
                                        std::size_t upto) {
  std::vector<SymmetricKey> keys;
  keys.reserve(upto + 1);
  for (std::size_t i = 0; i <= upto && i < path.size(); ++i) {
    keys.push_back(path[i].new_key);
  }
  return keys;
}

RekeyMessage base_message(RekeyKind kind, StrategyKind strategy) {
  // Every strategy builds each of its rekey messages through here, so this
  // is the one chokepoint for the per-strategy message counters.
  if (telemetry::enabled()) {
    static std::array<telemetry::Counter*, 4> counters = {
        &telemetry::Registry::global().counter("rekey.messages.user"),
        &telemetry::Registry::global().counter("rekey.messages.key"),
        &telemetry::Registry::global().counter("rekey.messages.group"),
        &telemetry::Registry::global().counter("rekey.messages.hybrid"),
    };
    counters[static_cast<std::size_t>(strategy) - 1]->add(1);
  }
  RekeyMessage message;
  message.kind = kind;
  message.strategy = strategy;
  return message;
}

}  // namespace detail

}  // namespace keygraphs::rekey
