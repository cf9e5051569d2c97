#include "rekey/plan.h"

#include "common/error.h"

namespace keygraphs::rekey {

KeySnapshot::~KeySnapshot() {
  for (auto& [ref, secret] : secrets_) secure_wipe(secret);
}

void KeySnapshot::bind(TreeViewPtr view) { view_ = std::move(view); }

void KeySnapshot::add(const SymmetricKey& key) {
  if (view_ && !view_->find_secret(key.ref()).empty()) return;
  secrets_.try_emplace(key.ref(), key.secret);
}

BytesView KeySnapshot::secret(const KeyRef& ref) const {
  if (view_) {
    const BytesView from_view = view_->find_secret(ref);
    if (!from_view.empty()) return from_view;
  }
  const auto it = secrets_.find(ref);
  if (it == secrets_.end()) {
    throw Error("KeySnapshot: no secret for " + to_string(ref));
  }
  return it->second;
}

RekeyPlanner::RekeyPlanner(crypto::CipherAlgorithm cipher,
                           crypto::SecureRandom& rng)
    : block_size_(crypto::cipher_block_size(cipher)), rng_(rng) {}

RekeyPlanner::RekeyPlanner(crypto::CipherAlgorithm cipher,
                           crypto::SecureRandom& rng, TreeViewPtr view)
    : block_size_(crypto::cipher_block_size(cipher)), rng_(rng) {
  plan_.keys.bind(std::move(view));
}

std::uint32_t RekeyPlanner::wrap(const SymmetricKey& wrapping,
                                 std::span<const SymmetricKey> targets) {
  if (targets.empty()) throw Error("RekeyPlanner: empty target list");
  WrapOp op;
  op.wrap = wrapping.ref();
  plan_.keys.add(wrapping);
  op.targets.reserve(targets.size());
  for (const SymmetricKey& target : targets) {
    op.targets.push_back(target.ref());
    plan_.keys.add(target);
  }
  op.iv = rng_.bytes(block_size_);
  key_encryptions_ += targets.size();
  plan_.ops.push_back(std::move(op));
  return static_cast<std::uint32_t>(plan_.ops.size() - 1);
}

RekeyPlan RekeyPlanner::take(std::vector<PlannedRekey> messages) {
  plan_.messages = std::move(messages);
  plan_.key_encryptions = key_encryptions_;
  return std::move(plan_);
}

}  // namespace keygraphs::rekey
