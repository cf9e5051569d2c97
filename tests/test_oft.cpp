// One-way function trees: functional key derivation, member-side group-key
// reconstruction, forward/backward secrecy as *computational* properties
// (what the leaver/joiner can derive from everything they ever saw), and
// the headline cost claim — roughly half the rekey broadcast of a binary
// key tree.
#include "oft/oft.h"

#include <gtest/gtest.h>

#include <set>

#include "common/error.h"
#include "rekey_plans.h"

namespace keygraphs::oft {
namespace {

crypto::SecureRandom& rng() {
  static crypto::SecureRandom instance(2718);
  return instance;
}

TEST(Oft, PrimitivesAreDeterministicAndDistinct) {
  const Bytes secret = rng().bytes(16);
  EXPECT_EQ(blind(secret), blind(secret));
  EXPECT_NE(blind(secret), secret);
  const Bytes a = blind(rng().bytes(16));
  const Bytes b = blind(rng().bytes(16));
  EXPECT_EQ(mix(a, b), mix(a, b));
  EXPECT_NE(mix(a, b), mix(b, a));  // ordered, as the view logic assumes
  EXPECT_NE(mix(a, b), blind(a));   // domain separation
}

TEST(Oft, EmptyAndSingleMember) {
  OftTree tree(rng());
  EXPECT_THROW(tree.group_key(), ProtocolError);
  const OftRekey rekey = tree.join(1);
  EXPECT_EQ(tree.member_count(), 1u);
  EXPECT_TRUE(rekey.broadcast.empty());
  ASSERT_EQ(rekey.new_leaf_secrets.size(), 1u);
  EXPECT_EQ(tree.group_key(), rekey.new_leaf_secrets[0].second);
  tree.check_invariants();
}

TEST(Oft, EveryMemberReconstructsTheGroupKey) {
  OftTree tree(rng());
  for (UserId user = 1; user <= 25; ++user) {
    tree.join(user);
    tree.check_invariants();
    for (UserId member = 1; member <= user; ++member) {
      EXPECT_EQ(compute_group_key(tree.view_of(member)), tree.group_key())
          << "member " << member << " after join of " << user;
    }
  }
}

TEST(Oft, LeaveKeepsSurvivorsConsistent) {
  OftTree tree(rng());
  for (UserId user = 1; user <= 16; ++user) tree.join(user);
  std::set<UserId> members;
  for (UserId user = 1; user <= 16; ++user) members.insert(user);
  for (UserId leaver : {4u, 9u, 1u, 16u, 2u}) {
    tree.leave(leaver);
    members.erase(leaver);
    tree.check_invariants();
    for (UserId member : members) {
      EXPECT_EQ(compute_group_key(tree.view_of(member)), tree.group_key())
          << "member " << member << " after leave of " << leaver;
    }
  }
}

TEST(Oft, GroupKeyChangesOnEveryMembershipChange) {
  OftTree tree(rng());
  tree.join(1);
  tree.join(2);
  Bytes previous = tree.group_key();
  for (UserId user = 3; user <= 10; ++user) {
    tree.join(user);
    EXPECT_NE(tree.group_key(), previous);
    previous = tree.group_key();
  }
  for (UserId user : {3u, 7u, 2u}) {
    tree.leave(user);
    EXPECT_NE(tree.group_key(), previous);
    previous = tree.group_key();
  }
}

TEST(Oft, ForwardSecrecyComputational) {
  // The leaver's total knowledge: its last view plus every broadcast item
  // it could ever decrypt. After it leaves, that knowledge must not derive
  // the new group key: the new key depends on a re-randomized leaf secret
  // it never saw, through one-way functions.
  OftTree tree(rng());
  for (UserId user = 1; user <= 12; ++user) tree.join(user);
  const OftTree::MemberView leaver_view = tree.view_of(5);
  const Bytes old_key = compute_group_key(leaver_view);
  ASSERT_EQ(old_key, tree.group_key());

  const OftRekey rekey = tree.leave(5);
  // Attack 1: replay the stale view.
  EXPECT_NE(compute_group_key(leaver_view), tree.group_key());
  // Attack 2: splice the broadcast's new blinded values into the stale
  // view wherever they could fit (the leaver can read none of them — they
  // are wrapped for subtrees it was never in — but even granting the
  // plaintexts, the refreshed leaf secret is missing; simulate the
  // strongest version by substituting every broadcast value at every
  // level).
  for (const BlindedUpdate& update : rekey.broadcast) {
    for (std::size_t level = 0; level < leaver_view.sibling_blinded.size();
         ++level) {
      OftTree::MemberView forged = leaver_view;
      forged.sibling_blinded[level] = update.blinded_key;
      EXPECT_NE(compute_group_key(forged), tree.group_key());
    }
  }
}

TEST(Oft, BackwardSecrecyComputational) {
  OftTree tree(rng());
  for (UserId user = 1; user <= 12; ++user) tree.join(user);
  const Bytes old_key = tree.group_key();

  const OftRekey rekey = tree.join(99);
  const OftTree::MemberView joiner = tree.view_of(99);
  ASSERT_EQ(compute_group_key(joiner), tree.group_key());
  EXPECT_NE(tree.group_key(), old_key);
  // The joiner cannot derive the pre-join key: the split leaf it now sees
  // was re-randomized in the same operation, so the old blinded value it
  // would need is never available to it.
  ASSERT_GE(rekey.new_leaf_secrets.size(), 2u);  // joiner + split leaf
  EXPECT_NE(compute_group_key(joiner), old_key);
}

TEST(Oft, HeightStaysLogarithmic) {
  OftTree tree(rng());
  for (UserId user = 1; user <= 256; ++user) tree.join(user);
  EXPECT_GE(tree.height(), 8u);   // log2(256)
  EXPECT_LE(tree.height(), 10u);  // heuristic slack
}

TEST(Oft, LeaveCostsAboutHalfOfBinaryKeyTree) {
  // The OFT claim: one blinded key per level vs the key tree's two
  // encrypted keys per level (d=2 group-oriented: 2(h-1)-1 encryptions).
  const std::size_t n = 128;
  OftTree oft_tree(rng());
  for (UserId user = 1; user <= n; ++user) oft_tree.join(user);

  crypto::SecureRandom tree_rng(12);
  KeyTree key_tree(2, 16, tree_rng);
  for (UserId user = 1; user <= n; ++user) {
    key_tree.join(user, tree_rng.bytes(16));
  }

  std::size_t oft_total = 0, lkh_total = 0;
  for (UserId user = 10; user < 40; ++user) {
    oft_total += oft_tree.leave(user).encryptions();
    lkh_total += rekey_plans::plan_leave(rekey::StrategyKind::kGroupOriented,
                                         key_tree.leave(user), tree_rng,
                                         crypto::CipherAlgorithm::kAes128)
                     .key_encryptions;
  }
  EXPECT_LT(oft_total, lkh_total * 3 / 4)
      << "OFT " << oft_total << " vs binary key tree " << lkh_total;
}

TEST(Oft, Errors) {
  OftTree tree(rng());
  tree.join(1);
  EXPECT_THROW(tree.join(1), ProtocolError);
  EXPECT_THROW(tree.leave(2), ProtocolError);
  EXPECT_THROW(tree.view_of(2), ProtocolError);
  tree.leave(1);
  EXPECT_EQ(tree.member_count(), 0u);
  EXPECT_THROW(tree.leave(1), ProtocolError);
  tree.check_invariants();
  // The tree regrows cleanly after emptying.
  tree.join(7);
  EXPECT_EQ(tree.member_count(), 1u);
}

TEST(Oft, ChurnStress) {
  OftTree tree(rng());
  std::vector<UserId> members;
  UserId next = 1;
  for (int op = 0; op < 300; ++op) {
    if (members.empty() || rng().uniform(2) == 0) {
      tree.join(next);
      members.push_back(next++);
    } else {
      const std::size_t index =
          static_cast<std::size_t>(rng().uniform(members.size()));
      tree.leave(members[index]);
      members[index] = members.back();
      members.pop_back();
    }
    tree.check_invariants();
    if (!members.empty()) {
      const UserId probe = members[static_cast<std::size_t>(
          rng().uniform(members.size()))];
      EXPECT_EQ(compute_group_key(tree.view_of(probe)), tree.group_key());
    }
  }
}

}  // namespace
}  // namespace keygraphs::oft
