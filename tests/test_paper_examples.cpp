// The paper's worked examples, reproduced literally.
//
// Figure 5 shows a degree-3 tree with nine users u1..u9 grouped as
// {u1,u2,u3}, {u4,u5,u6}, {u7,u8,u9}; Section 3 walks through u9 joining
// and leaving it under all three strategies, listing the exact rekey
// messages. These tests build that exact tree and check the message sets
// item by item, plus the Section 1.1 introduction example and the star
// protocols of Figures 2 and 4.
#include <gtest/gtest.h>

#include <set>

#include "keygraph/star_graph.h"
#include "rekey_plans.h"

namespace keygraphs {
namespace {

using rekey::PlannedRekey;
using rekey::Recipient;
using rekey::RekeyPlan;
using rekey::StrategyKind;
using rekey::WrapOp;
using rekey_plans::op_of;
using rekey_plans::plan_join;
using rekey_plans::plan_leave;

Bytes ik(UserId user) { return Bytes(8, static_cast<std::uint8_t>(user)); }

// Builds Figure 5's upper tree: root over three subgroup k-nodes, each
// with three user leaves — by joining u1..u9 into a degree-3 tree (the
// heuristic produces exactly this shape for n = 3^2).
struct Figure5 {
  crypto::SecureRandom rng{555};
  KeyTree tree{3, 8, rng};
  KeyId root;
  KeyId k789;  // the subtree that u9 joins/leaves

  Figure5() {
    for (UserId user = 1; user <= 9; ++user) tree.join(user, ik(user));
    root = tree.root_id();
    // Identify the k-node over {u7,u8,u9}: the parent shared by u9.
    k789 = tree.keyset(9)[1].id;
    const std::vector<UserId> subtree = tree.users_under(k789);
    EXPECT_EQ(subtree.size(), 3u);
    EXPECT_TRUE(std::find(subtree.begin(), subtree.end(), 9) !=
                subtree.end());
  }
};

// --- Section 3.3: u9 joins (after a leave to create the vacancy) --------

struct JoinScenario : Figure5 {
  JoinRecord record;
  JoinScenario() {
    tree.leave(9);                 // Figure 5 upper tree (8 users)
    record = tree.join(9, ik(9));  // the worked join of u9
  }
};

TEST(PaperFigure5, JoinPathIsK789ThenRoot) {
  JoinScenario scenario;
  // "The joining point is k-node k78 ... keys k78 -> k789 and
  // k1-8 -> k1-9 change": exactly two path entries, root first.
  ASSERT_EQ(scenario.record.path.size(), 2u);
  EXPECT_EQ(scenario.record.path[0].node, scenario.root);
  ASSERT_TRUE(scenario.record.path[0].old_key.has_value());
  ASSERT_TRUE(scenario.record.path[1].old_key.has_value());
}

TEST(PaperFigure5, UserOrientedJoinSendsThreeMessages) {
  JoinScenario scenario;
  const RekeyPlan plan = plan_join(StrategyKind::kUserOriented,
                                   scenario.record, scenario.rng);
  // s -> {u1..u6}: {k1-9}k1-8 ; s -> {u7,u8}: {k1-9,k789}k78 ;
  // s -> u9: {k1-9,k789}k9.
  ASSERT_EQ(plan.messages.size(), 3u);
  EXPECT_EQ(op_of(plan, 0, 0).targets.size(), 1u);
  EXPECT_EQ(op_of(plan, 1, 0).targets.size(), 2u);
  EXPECT_EQ(plan.messages[2].to.kind, Recipient::Kind::kUser);
  EXPECT_EQ(op_of(plan, 2, 0).targets.size(), 2u);
  // Encryption cost h(h+1)/2 - 1 with h = 3: five encryptions.
  EXPECT_EQ(plan.key_encryptions, 5u);
}

TEST(PaperFigure5, KeyOrientedJoinSendsThreeCombinedMessages) {
  JoinScenario scenario;
  const RekeyPlan plan = plan_join(StrategyKind::kKeyOriented,
                                   scenario.record, scenario.rng);
  // s -> {u1..u6}: {k1-9}k1-8 ; s -> {u7,u8}: {k1-9}k1-8,{k789}k78 ;
  // s -> u9: {k1-9,k789}k9 — three messages, 2(h-1) = 4 encryptions.
  ASSERT_EQ(plan.messages.size(), 3u);
  EXPECT_EQ(plan.messages[0].ops.size(), 1u);
  EXPECT_EQ(plan.messages[1].ops.size(), 2u);
  EXPECT_EQ(plan.key_encryptions, 4u);
  // The {k1-9}k1-8 blob is the *same op* (one ciphertext) in both messages.
  EXPECT_EQ(plan.messages[0].ops[0], plan.messages[1].ops[0]);
}

TEST(PaperFigure5, GroupOrientedJoinSendsMulticastPlusUnicast) {
  JoinScenario scenario;
  const RekeyPlan plan = plan_join(StrategyKind::kGroupOriented,
                                   scenario.record, scenario.rng);
  // s -> {u1..u8}: {k1-9}k1-8, {k789}k78 ; s -> u9: {k1-9,k789}k9.
  ASSERT_EQ(plan.messages.size(), 2u);
  EXPECT_EQ(plan.messages[0].to.kind, Recipient::Kind::kSubgroup);
  EXPECT_EQ(plan.messages[0].to.include, scenario.root);
  EXPECT_EQ(plan.messages[0].ops.size(), 2u);
  EXPECT_EQ(plan.messages[1].to.user, 9u);
  EXPECT_EQ(plan.key_encryptions, 4u);
}

// --- Section 3.4: u9 leaves the lower tree ------------------------------

struct LeaveScenario : Figure5 {
  std::vector<SymmetricKey> u9_keys;
  LeaveRecord record;
  LeaveScenario() {
    u9_keys = tree.keyset(9);
    record = tree.leave(9);
  }
};

TEST(PaperFigure5, LeaveChangesK78AndRoot) {
  LeaveScenario scenario;
  ASSERT_EQ(scenario.record.path.size(), 2u);
  EXPECT_EQ(scenario.record.path[0].node, scenario.root);
  EXPECT_EQ(scenario.record.path[1].node, scenario.k789);
  // Children: root has {k123, k456, k78-on-path}; k78 has {u7, u8}.
  EXPECT_EQ(scenario.record.children[0].size(), 3u);
  EXPECT_EQ(scenario.record.children[1].size(), 2u);
}

TEST(PaperFigure5, UserOrientedLeaveSendsFourMessages) {
  LeaveScenario scenario;
  const RekeyPlan plan = plan_leave(StrategyKind::kUserOriented,
                                    scenario.record, scenario.rng);
  // {k1-8}k123 ; {k1-8}k456 ; {k1-8,k78}k7 ; {k1-8,k78}k8.
  ASSERT_EQ(plan.messages.size(), 4u);
  std::multiset<std::size_t> target_counts;
  for (std::size_t i = 0; i < plan.messages.size(); ++i) {
    target_counts.insert(op_of(plan, i, 0).targets.size());
  }
  EXPECT_EQ(target_counts, (std::multiset<std::size_t>{1, 1, 2, 2}));
  // (d-1) * (1 + 2) = 6 encryptions.
  EXPECT_EQ(plan.key_encryptions, 6u);
}

TEST(PaperFigure5, KeyOrientedLeaveSendsFourMessagesWithSharedChain) {
  LeaveScenario scenario;
  const RekeyPlan plan = plan_leave(StrategyKind::kKeyOriented,
                                    scenario.record, scenario.rng);
  // {k1-8}k123 ; {k1-8}k456 ; {k1-8}k78,{k78}k7 ; {k1-8}k78,{k78}k8.
  ASSERT_EQ(plan.messages.size(), 4u);
  // Cost d(h-1) - 1 = 5 (the paper's own example count: five ciphertexts).
  EXPECT_EQ(plan.key_encryptions, 5u);
  // The {k1-8}_{k78'} chain ciphertext is shared between u7's and u8's
  // messages ("by storing encrypted new keys for use in different rekey
  // messages"): both carry the same op.
  std::vector<std::uint32_t> chain_ops;
  for (const PlannedRekey& message : plan.messages) {
    for (const std::uint32_t op : message.ops) {
      if (plan.ops[op].wrap.id == scenario.k789 &&
          plan.ops[op].targets[0].id == scenario.root) {
        chain_ops.push_back(op);
      }
    }
  }
  ASSERT_EQ(chain_ops.size(), 2u);
  EXPECT_EQ(chain_ops[0], chain_ops[1]);
}

TEST(PaperFigure5, GroupOrientedLeaveSendsOneMessageWithFiveItems) {
  LeaveScenario scenario;
  const RekeyPlan plan = plan_leave(StrategyKind::kGroupOriented,
                                    scenario.record, scenario.rng);
  // L0 = {k1-8}k123,{k1-8}k456,{k1-8}k78 ; L1 = {k78}k7,{k78}k8.
  ASSERT_EQ(plan.messages.size(), 1u);
  EXPECT_EQ(plan.messages[0].ops.size(), 5u);
  EXPECT_EQ(plan.key_encryptions, 5u);
}

TEST(PaperFigure5, NoLeaveBlobUsesAnyKeyU9Held) {
  LeaveScenario scenario;
  std::set<KeyRef> held;
  for (const SymmetricKey& key : scenario.u9_keys) held.insert(key.ref());
  for (StrategyKind kind :
       {StrategyKind::kUserOriented, StrategyKind::kKeyOriented,
        StrategyKind::kGroupOriented, StrategyKind::kHybrid}) {
    const RekeyPlan plan = plan_leave(kind, scenario.record, scenario.rng);
    for (const WrapOp& op : plan.ops) {
      EXPECT_FALSE(held.contains(op.wrap)) << rekey::strategy_name(kind);
    }
  }
}

// --- Section 1.1 introduction example ------------------------------------

TEST(PaperIntroduction, NineUsersLeaveCostsFiveNotEight) {
  // "by giving each user three keys instead of two, the server performs
  // five encryptions instead of eight" — u1 leaves the 3x3 group.
  Figure5 scenario;
  const LeaveRecord record = scenario.tree.leave(1);
  EXPECT_EQ(plan_leave(StrategyKind::kGroupOriented, record, scenario.rng)
                .key_encryptions,
            5u);
}

// --- Figures 2 and 4: star join/leave ------------------------------------

TEST(PaperFigure2, StarJoinIsTwoMessagesTwoEncryptions) {
  crypto::SecureRandom rng(556);
  StarGraph star(8, rng);
  for (UserId user = 1; user <= 3; ++user) star.join(user, ik(user));
  const JoinRecord record = star.join(4, ik(4));  // Figure 3's u4
  const RekeyPlan plan =
      plan_join(StrategyKind::kGroupOriented, record, rng);
  // s -> {u1,u2,u3}: {k1234}k123 ; s -> u4: {k1234}k4.
  ASSERT_EQ(plan.messages.size(), 2u);
  EXPECT_EQ(plan.key_encryptions, 2u);
}

TEST(PaperFigure4, StarLeaveUnicastsToEachRemainingMember) {
  crypto::SecureRandom rng(557);
  StarGraph star(8, rng);
  for (UserId user = 1; user <= 4; ++user) star.join(user, ik(user));
  const LeaveRecord record = star.leave(4);
  const RekeyPlan plan = plan_leave(StrategyKind::kKeyOriented, record, rng);
  // for each v in {u1,u2,u3}: s -> v : {k123}kv.
  ASSERT_EQ(plan.messages.size(), 3u);
  EXPECT_EQ(plan.key_encryptions, 3u);
  for (std::size_t i = 0; i < plan.messages.size(); ++i) {
    EXPECT_EQ(plan.messages[i].ops.size(), 1u);
    EXPECT_EQ(op_of(plan, i, 0).targets.size(), 1u);
  }
}

}  // namespace
}  // namespace keygraphs
