// Rekeying strategies vs the paper's Section 3 cost accounting, on perfect
// d-ary trees where the formulas are exact:
//   user-oriented join:  h messages,       h(h+1)/2 - 1 encryptions
//   key-oriented  join:  h messages,       2(h-1) encryptions
//   group-oriented join: 2 messages,       2(h-1) encryptions
//   user-oriented leave: (d-1)(h-1) msgs,  (d-1)h(h-1)/2 encryptions
//   key-oriented  leave: (d-1)(h-1) msgs,  d(h-1) - 1 encryptions
//   group-oriented leave: 1 message,       d(h-1) - 1 encryptions
// (the paper rounds d(h-1)-1 up to d(h-1); see Figure 5's worked example,
// which costs 5 = 3*2-1), plus plan-level forward/backward secrecy: no
// leave blob is wrapped with any key the leaver held, and no join blob
// with the joiner's reachable keys except its individual key.
#include "rekey/strategy.h"

#include <gtest/gtest.h>

#include <set>

#include "keygraph/key_tree.h"
#include "rekey_plans.h"

namespace keygraphs::rekey {
namespace {

using rekey_plans::op_of;

struct TreeShape {
  int degree;
  int levels;  // perfect tree with degree^levels users
};

class StrategyCosts
    : public ::testing::TestWithParam<std::tuple<TreeShape, StrategyKind>> {
 protected:
  void SetUp() override {
    const TreeShape shape = std::get<0>(GetParam());
    degree_ = shape.degree;
    levels_ = shape.levels;
    paper_h_ = static_cast<std::size_t>(levels_) + 1;
    rng_ = std::make_unique<crypto::SecureRandom>(
        static_cast<std::uint64_t>(degree_ * 100 + levels_));
    tree_ = std::make_unique<KeyTree>(degree_, 8, *rng_);
    n_ = 1;
    for (int i = 0; i < levels_; ++i) n_ *= static_cast<std::size_t>(degree_);
    for (UserId user = 1; user <= n_; ++user) {
      tree_->join(user, Bytes(8, static_cast<std::uint8_t>(user)));
    }
    // Vacate one slot so the next join lands in the hole (path length ==
    // levels, no split) and the formulas apply exactly.
    tree_->leave(1);
  }

  int degree_ = 0;
  int levels_ = 0;
  std::size_t paper_h_ = 0;
  std::size_t n_ = 0;
  std::unique_ptr<crypto::SecureRandom> rng_;
  std::unique_ptr<KeyTree> tree_;
};

TEST_P(StrategyCosts, JoinMatchesPaperFormulas) {
  const StrategyKind kind = std::get<1>(GetParam());
  const JoinRecord record =
      tree_->join(9999, Bytes(8, 0xEE));
  ASSERT_EQ(record.path.size(), static_cast<std::size_t>(levels_));
  const RekeyPlan plan = rekey_plans::plan_join(kind, record, *rng_);
  const std::vector<PlannedRekey>& messages = plan.messages;
  const std::size_t h = paper_h_;
  const std::size_t d = static_cast<std::size_t>(degree_);

  switch (kind) {
    case StrategyKind::kUserOriented:
      EXPECT_EQ(messages.size(), h);  // h-1 subgroup messages + welcome
      EXPECT_EQ(plan.key_encryptions, h * (h + 1) / 2 - 1);
      break;
    case StrategyKind::kKeyOriented:
      EXPECT_EQ(messages.size(), h);
      EXPECT_EQ(plan.key_encryptions, 2 * (h - 1));
      break;
    case StrategyKind::kGroupOriented:
      EXPECT_EQ(messages.size(), 2u);  // one multicast + welcome
      EXPECT_EQ(plan.key_encryptions, 2 * (h - 1));
      break;
    case StrategyKind::kHybrid:
      EXPECT_EQ(messages.size(), d + 1);  // one per root subtree + welcome
      EXPECT_EQ(plan.key_encryptions, 2 * (h - 1));
      break;
  }

  // Exactly one unicast, addressed to the joiner, carrying all new keys.
  std::size_t unicasts = 0;
  for (std::size_t i = 0; i < messages.size(); ++i) {
    if (messages[i].to.kind == Recipient::Kind::kUser) {
      ++unicasts;
      EXPECT_EQ(messages[i].to.user, 9999u);
      ASSERT_EQ(messages[i].ops.size(), 1u);
      EXPECT_EQ(op_of(plan, i, 0).wrap.id, individual_key_id(9999));
      EXPECT_EQ(op_of(plan, i, 0).targets.size(), record.path.size());
    }
  }
  EXPECT_EQ(unicasts, 1u);

  // Backward secrecy at plan level: apart from its own individual key, no
  // blob is wrapped with a key the joiner knows (it knows only new keys).
  std::set<KeyRef> new_keys;
  for (const PathChange& change : record.path) {
    new_keys.insert(change.new_key.ref());
  }
  for (const WrapOp& op : plan.ops) {
    if (op.wrap.id == individual_key_id(9999)) continue;
    EXPECT_FALSE(new_keys.contains(op.wrap))
        << "blob wrapped under a key the joiner now holds";
  }
}

TEST_P(StrategyCosts, LeaveMatchesPaperFormulas) {
  const StrategyKind kind = std::get<1>(GetParam());
  // Bring the tree back to a perfect shape, then leave a user whose parent
  // keeps >= 2 children (degree >= 3 guarantees no splice).
  tree_->join(9999, Bytes(8, 0xEE));
  const std::vector<SymmetricKey> leaver_keys = tree_->keyset(9999);
  const LeaveRecord record = tree_->leave(9999);
  if (degree_ >= 3) {
    // Degree 2 splices the leaver's parent out, shortening the path.
    ASSERT_EQ(record.path.size(), static_cast<std::size_t>(levels_));
  }
  const RekeyPlan plan = rekey_plans::plan_leave(kind, record, *rng_);
  const std::vector<PlannedRekey>& messages = plan.messages;
  const std::size_t h = paper_h_;
  const std::size_t d = static_cast<std::size_t>(degree_);

  if (degree_ >= 3) {  // no splice: formulas exact
    switch (kind) {
      case StrategyKind::kUserOriented:
        EXPECT_EQ(messages.size(), (d - 1) * (h - 1));
        EXPECT_EQ(plan.key_encryptions, (d - 1) * h * (h - 1) / 2);
        break;
      case StrategyKind::kKeyOriented:
        EXPECT_EQ(messages.size(), (d - 1) * (h - 1));
        EXPECT_EQ(plan.key_encryptions, d * (h - 1) - 1);
        break;
      case StrategyKind::kGroupOriented:
        EXPECT_EQ(messages.size(), 1u);
        EXPECT_EQ(plan.key_encryptions, d * (h - 1) - 1);
        break;
      case StrategyKind::kHybrid:
        EXPECT_EQ(messages.size(), d);
        EXPECT_EQ(plan.key_encryptions, d * (h - 1) - 1);
        break;
    }
  }

  // Forward secrecy at plan level: no blob may be wrapped with any key the
  // leaver held (its individual key or any old path key).
  std::set<KeyRef> leaver_refs;
  for (const SymmetricKey& key : leaver_keys) leaver_refs.insert(key.ref());
  for (const PlannedRekey& message : messages) {
    EXPECT_EQ(message.header.kind, RekeyKind::kLeave);
  }
  for (const WrapOp& op : plan.ops) {
    EXPECT_FALSE(leaver_refs.contains(op.wrap))
        << "leave blob wrapped under a key the leaver held: "
        << to_string(op.wrap);
  }

  // No message is addressed to the leaver.
  for (const PlannedRekey& message : messages) {
    if (message.to.kind == Recipient::Kind::kUser) {
      EXPECT_NE(message.to.user, 9999u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndStrategies, StrategyCosts,
    ::testing::Combine(
        ::testing::Values(TreeShape{2, 3}, TreeShape{3, 2}, TreeShape{3, 3},
                          TreeShape{4, 2}, TreeShape{4, 3}, TreeShape{8, 2}),
        ::testing::Values(StrategyKind::kUserOriented,
                          StrategyKind::kKeyOriented,
                          StrategyKind::kGroupOriented,
                          StrategyKind::kHybrid)));

TEST(StrategyFactory, ProducesAllKinds) {
  for (StrategyKind kind :
       {StrategyKind::kUserOriented, StrategyKind::kKeyOriented,
        StrategyKind::kGroupOriented, StrategyKind::kHybrid}) {
    EXPECT_EQ(make_strategy(kind)->kind(), kind);
  }
}

TEST(Strategies, FirstJoinProducesOnlyWelcome) {
  crypto::SecureRandom rng(3);
  for (StrategyKind kind :
       {StrategyKind::kUserOriented, StrategyKind::kKeyOriented,
        StrategyKind::kGroupOriented, StrategyKind::kHybrid}) {
    crypto::SecureRandom fresh(4);
    KeyTree t(4, 8, fresh);
    const JoinRecord record = t.join(1, Bytes(8, 1));
    const RekeyPlan plan = rekey_plans::plan_join(kind, record, rng);
    ASSERT_EQ(plan.messages.size(), 1u) << strategy_name(kind);
    EXPECT_EQ(plan.messages[0].to.kind, Recipient::Kind::kUser);
  }
}

TEST(Strategies, LastLeaveProducesNoMessages) {
  for (StrategyKind kind :
       {StrategyKind::kUserOriented, StrategyKind::kKeyOriented,
        StrategyKind::kGroupOriented, StrategyKind::kHybrid}) {
    crypto::SecureRandom rng(5);
    KeyTree tree(4, 8, rng);
    tree.join(1, Bytes(8, 1));
    const LeaveRecord record = tree.leave(1);
    const RekeyPlan plan = rekey_plans::plan_leave(kind, record, rng);
    EXPECT_TRUE(plan.messages.empty()) << strategy_name(kind);
    EXPECT_EQ(plan.key_encryptions, 0u) << strategy_name(kind);
  }
}

TEST(Strategies, KeyOrientedLeaveChainIsSharedNotReencrypted) {
  // Figure 8 stores {K'_{i-1}}_{K'_i} once: the messages of different
  // subtrees must carry the same op (one ciphertext), not re-encrypt it.
  crypto::SecureRandom rng(6);
  KeyTree tree(3, 8, rng);
  for (UserId user = 1; user <= 27; ++user) {
    tree.join(user, Bytes(8, static_cast<std::uint8_t>(user)));
  }
  const LeaveRecord record = tree.leave(27);
  const RekeyPlan plan =
      rekey_plans::plan_leave(StrategyKind::kKeyOriented, record, rng);
  // Find the root-level chain blob {K'_0}_{K'_1} in two distinct messages.
  std::size_t matches = 0;
  std::optional<std::uint32_t> reference;
  for (const PlannedRekey& message : plan.messages) {
    for (const std::uint32_t op : message.ops) {
      if (plan.ops[op].wrap.id == record.path[1].node &&
          plan.ops[op].targets[0].id == record.path[0].node) {
        if (!reference) {
          reference = op;
        } else {
          EXPECT_EQ(op, *reference);
        }
        ++matches;
      }
    }
  }
  EXPECT_GE(matches, 2u);
}

}  // namespace
}  // namespace keygraphs::rekey
