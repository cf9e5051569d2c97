// StarGraph: the paper's baseline. Every user holds exactly two keys, joins
// touch only the group key, and leaves fan out to all n-1 members.
#include "keygraph/star_graph.h"

#include <gtest/gtest.h>

#include "rekey_plans.h"

namespace keygraphs {
namespace {

crypto::SecureRandom& rng() {
  static crypto::SecureRandom instance(31);
  return instance;
}

Bytes ik(UserId user) { return Bytes(8, static_cast<std::uint8_t>(user)); }

TEST(StarGraph, EveryUserHoldsExactlyTwoKeys) {
  StarGraph star(8, rng());
  for (UserId user = 1; user <= 20; ++user) star.join(user, ik(user));
  for (UserId user : star.users()) {
    EXPECT_EQ(star.keyset(user).size(), 2u);  // individual + group key
  }
  EXPECT_EQ(star.height(), 1u);
}

TEST(StarGraph, TotalKeysIsNPlusOne) {
  StarGraph star(8, rng());
  for (UserId user = 1; user <= 15; ++user) star.join(user, ik(user));
  EXPECT_EQ(star.key_count(), 16u);  // Table 1: n + 1
  EXPECT_EQ(star.expected_total_keys(), 16u);
}

TEST(StarGraph, JoinPathIsJustTheRoot) {
  StarGraph star(8, rng());
  for (UserId user = 1; user <= 10; ++user) {
    const JoinRecord record = star.join(user, ik(user));
    EXPECT_EQ(record.path.size(), 1u);  // only the group key changes
  }
}

TEST(StarGraph, LeaveListsAllRemainingMembersAsChildren) {
  StarGraph star(8, rng());
  for (UserId user = 1; user <= 10; ++user) star.join(user, ik(user));
  const LeaveRecord record = star.leave(5);
  ASSERT_EQ(record.path.size(), 1u);
  ASSERT_EQ(record.children.size(), 1u);
  EXPECT_EQ(record.children[0].size(), 9u);  // n - 1 individual keys
}

TEST(StarGraph, KeyOrientedLeaveCostsNMinusOne) {
  // Figure 4's conventional leave: the new group key is encrypted once per
  // remaining member.
  StarGraph star(8, rng());
  for (UserId user = 1; user <= 12; ++user) star.join(user, ik(user));
  const LeaveRecord record = star.leave(12);
  const rekey::RekeyPlan plan = rekey_plans::plan_leave(
      rekey::StrategyKind::kKeyOriented, record, rng());
  EXPECT_EQ(plan.messages.size(), 11u);  // one per remaining member
  EXPECT_EQ(plan.key_encryptions, 11u);  // Table 2(c): n - 1
}

TEST(StarGraph, JoinCostsTwoEncryptions) {
  // Figure 2: {k_new}_{k_old} multicast + {k_new}_{k_u} unicast.
  StarGraph star(8, rng());
  for (UserId user = 1; user <= 12; ++user) star.join(user, ik(user));
  const JoinRecord record = star.join(13, ik(13));
  const rekey::RekeyPlan plan = rekey_plans::plan_join(
      rekey::StrategyKind::kGroupOriented, record, rng());
  EXPECT_EQ(plan.messages.size(), 2u);
  EXPECT_EQ(plan.key_encryptions, 2u);  // Table 2(c): 2
}

TEST(StarGraph, SurvivesChurn) {
  StarGraph star(8, rng());
  UserId next = 1;
  std::vector<UserId> members;
  for (int i = 0; i < 100; ++i) {
    if (members.empty() || rng().uniform(2) == 0) {
      star.join(next, ik(next));
      members.push_back(next++);
    } else {
      const std::size_t index =
          static_cast<std::size_t>(rng().uniform(members.size()));
      star.leave(members[index]);
      members[index] = members.back();
      members.pop_back();
    }
    star.check_invariants();
    EXPECT_LE(star.height(), 1u);
  }
}

}  // namespace
}  // namespace keygraphs
