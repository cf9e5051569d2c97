// Batch (periodic) rekeying: structural correctness of KeyTree::
// batch_update, message planning, amortization of overlapping paths, and
// the end-to-end security/convergence properties through the simulator.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "common/error.h"
#include "rekey_plans.h"
#include "sim/simulator.h"
#include "sim/workload.h"

namespace keygraphs {
namespace {

Bytes ik(UserId user) { return Bytes(8, static_cast<std::uint8_t>(user)); }

crypto::SecureRandom& rng() {
  static crypto::SecureRandom instance(808);
  return instance;
}

std::unique_ptr<KeyTree> build_tree(int degree, std::size_t n) {
  auto tree = std::make_unique<KeyTree>(degree, 8, rng());
  for (UserId user = 1; user <= n; ++user) tree->join(user, ik(user));
  return tree;
}

TEST(BatchUpdate, ValidationRejectsBadBatches) {
  auto tree_owner = build_tree(4, 8);
  KeyTree& tree = *tree_owner;
  EXPECT_THROW(tree.batch_update({{3, ik(3)}}, {}), ProtocolError);  // dup
  EXPECT_THROW(tree.batch_update({}, {99}), ProtocolError);  // unknown
  EXPECT_THROW(tree.batch_update({{10, ik(10)}, {10, ik(10)}}, {}),
               ProtocolError);
  EXPECT_THROW(tree.batch_update({{10, ik(10)}}, {10, 10}), ProtocolError);
  EXPECT_THROW(tree.batch_update({{10, Bytes(3, 0)}}, {}), ProtocolError);
  // Failed validation leaves the tree untouched.
  EXPECT_EQ(tree.user_count(), 8u);
  tree.check_invariants();
}

TEST(BatchUpdate, JoinAndLeaveInSameBatchRejected) {
  auto tree_owner = build_tree(4, 4);
  KeyTree& tree = *tree_owner;
  EXPECT_THROW(tree.batch_update({{9, ik(9)}}, {9}), ProtocolError);
}

TEST(BatchUpdate, EmptyBatchIsNoOp) {
  auto tree_owner = build_tree(4, 8);
  KeyTree& tree = *tree_owner;
  const SymmetricKey before = tree.group_key();
  const BatchRecord record = tree.batch_update({}, {});
  EXPECT_TRUE(record.changes.empty());
  EXPECT_EQ(tree.group_key(), before);
  EXPECT_TRUE(rekey_plans::plan_batch(record, rng()).messages.empty());
}

TEST(BatchUpdate, MembershipAndInvariants) {
  auto tree_owner = build_tree(4, 16);
  KeyTree& tree = *tree_owner;
  const BatchRecord record =
      tree.batch_update({{20, ik(20)}, {21, ik(21)}}, {3, 7, 11});
  EXPECT_EQ(tree.user_count(), 15u);
  EXPECT_TRUE(tree.has_user(20));
  EXPECT_FALSE(tree.has_user(3));
  EXPECT_EQ(record.joined.size(), 2u);
  EXPECT_EQ(record.left.size(), 3u);
  tree.check_invariants();
}

TEST(BatchUpdate, EachAffectedNodeRekeyedExactlyOnce) {
  auto tree_owner = build_tree(4, 64);
  KeyTree& tree = *tree_owner;
  const KeyVersion root_before = tree.group_key().version;
  const BatchRecord record =
      tree.batch_update({}, {1, 2, 3, 4, 5, 6, 7, 8});
  // Eight sequential leaves would bump the root key eight times; the batch
  // bumps it once.
  EXPECT_EQ(tree.group_key().version, root_before + 1);
  std::set<KeyId> seen;
  for (const BatchChange& change : record.changes) {
    EXPECT_TRUE(seen.insert(change.node).second)
        << "node " << change.node << " appears twice";
  }
}

TEST(BatchUpdate, AmortizesOverlappingPaths) {
  // Cost(batch of k leaves) must be well below k * cost(single leave).
  auto sequential_owner = build_tree(4, 256);
  KeyTree& sequential = *sequential_owner;
  std::size_t sequential_cost = 0;
  for (UserId user = 1; user <= 32; ++user) {
    const LeaveRecord record = sequential.leave(user);
    sequential_cost += rekey_plans::plan_leave(
                           rekey::StrategyKind::kGroupOriented, record, rng())
                           .key_encryptions;
  }

  auto batched_owner = build_tree(4, 256);
  KeyTree& batched = *batched_owner;
  std::vector<UserId> leavers;
  for (UserId user = 1; user <= 32; ++user) leavers.push_back(user);
  const BatchRecord record = batched.batch_update({}, leavers);
  const std::size_t batch_cost =
      rekey_plans::plan_batch(record, rng()).key_encryptions;
  EXPECT_LT(batch_cost, sequential_cost / 2)
      << "batch " << batch_cost << " vs sequential " << sequential_cost;
}

TEST(BatchUpdate, ForwardSecrecyNoBlobUnderLeaverKeys) {
  auto tree_owner = build_tree(3, 27);
  KeyTree& tree = *tree_owner;
  std::set<KeyRef> leaver_refs;
  for (UserId user : {5u, 6u, 17u}) {
    for (const SymmetricKey& key : tree.keyset(user)) {
      leaver_refs.insert(key.ref());
    }
  }
  const BatchRecord record =
      tree.batch_update({{30, ik(30)}}, {5, 6, 17});
  for (const rekey::WrapOp& op :
       rekey_plans::plan_batch(record, rng()).ops) {
    if (op.wrap.id == individual_key_id(30)) continue;  // joiner welcome
    EXPECT_FALSE(leaver_refs.contains(op.wrap))
        << "batch blob wrapped under a leaver's key " << to_string(op.wrap);
  }
}

TEST(BatchUpdate, JoinerKeysetsMatchTree) {
  auto tree_owner = build_tree(4, 10);
  KeyTree& tree = *tree_owner;
  const BatchRecord record =
      tree.batch_update({{50, ik(50)}, {51, ik(51)}}, {2});
  ASSERT_EQ(record.joiner_keysets.size(), 2u);
  for (const auto& [user, keys] : record.joiner_keysets) {
    const std::vector<SymmetricKey> expected = tree.keyset(user);
    EXPECT_EQ(keys, expected);
    EXPECT_EQ(keys.front().id, individual_key_id(user));
    EXPECT_EQ(keys.back().id, tree.root_id());
  }
}

TEST(BatchUpdate, SpliceInsideBatchHandled) {
  // Degree 2 forces splices; removing both children of several parents in
  // one batch exercises the changed-set bookkeeping around destroyed nodes.
  auto tree_owner = build_tree(2, 16);
  KeyTree& tree = *tree_owner;
  const BatchRecord record = tree.batch_update({}, {1, 2, 3, 4, 5});
  EXPECT_EQ(tree.user_count(), 11u);
  tree.check_invariants();
  // Every change refers to a live node.
  for (const BatchChange& change : record.changes) {
    EXPECT_NO_THROW(tree.users_under(change.node));
  }
}

class BatchEndToEnd : public ::testing::TestWithParam<int> {};

TEST_P(BatchEndToEnd, ConvergenceAndSecurity) {
  server::ServerConfig config;
  config.tree_degree = GetParam();
  config.rng_seed = 61;
  transport::InProcNetwork network;
  server::GroupKeyServer server(config, network);
  sim::ClientSimulator simulator(server, network);
  sim::WorkloadGenerator workload(1);
  simulator.apply_all(workload.initial_joins(24));

  // Snapshot a leaver's keys for the forward-secrecy check.
  client::ClientConfig eve_config;
  eve_config.user = 3;
  eve_config.suite = config.suite;
  eve_config.root = server.root_id();
  eve_config.verify = false;
  client::GroupClient eve(eve_config, nullptr);
  eve.admit_snapshot(server.tree().keyset(3), server.epoch());

  simulator.apply_batch({100, 101, 102}, {3, 8, 15, 21});
  EXPECT_EQ(server.tree().user_count(), 23u);
  server.tree().check_invariants();

  // Convergence: every member (old and new) holds the current group key.
  const SymmetricKey group = server.tree().group_key();
  for (UserId user : server.tree().users()) {
    const auto held = simulator.client(user).group_key();
    ASSERT_TRUE(held.has_value()) << "user " << user;
    EXPECT_EQ(held->secret, group.secret) << "user " << user;
  }
  // Forward secrecy: the evicted member's snapshot has none of it.
  EXPECT_NE(eve.group_key()->secret, group.secret);

  // A second batch keeps working (epoch moves, keys roll again).
  simulator.apply_batch({200}, {101});
  const SymmetricKey group2 = server.tree().group_key();
  EXPECT_NE(group2.secret, group.secret);
  for (UserId user : server.tree().users()) {
    EXPECT_EQ(simulator.client(user).group_key()->secret, group2.secret);
  }
}

INSTANTIATE_TEST_SUITE_P(Degrees, BatchEndToEnd, ::testing::Values(2, 3, 4, 8));

TEST(BatchServer, StatsRecordedUnderBatchKind) {
  transport::NullTransport transport;
  server::ServerConfig config;
  config.rng_seed = 77;
  server::GroupKeyServer server(config, transport);
  for (UserId user = 1; user <= 12; ++user) server.join(user);
  server.stats().reset();
  server.batch({20, 21}, {1, 2, 3});
  const server::Summary summary =
      server.stats().summarize(rekey::RekeyKind::kBatch);
  EXPECT_EQ(summary.operations, 1u);
  EXPECT_GT(summary.avg_encryptions, 0.0);
  // One multicast + two welcomes.
  EXPECT_EQ(summary.avg_messages, 3.0);
}

TEST(BatchServer, AclFiltersJoinersButBatchProceeds) {
  transport::NullTransport transport;
  server::ServerConfig config;
  config.rng_seed = 78;
  server::GroupKeyServer server(
      config, transport, server::AccessControl::allow_list({1, 2, 3, 20}));
  server.join(1);
  server.join(2);
  const std::vector<UserId> admitted = server.batch({20, 99}, {1});
  EXPECT_EQ(admitted, (std::vector<UserId>{20}));
  EXPECT_TRUE(server.tree().has_user(20));
  EXPECT_FALSE(server.tree().has_user(99));
  EXPECT_FALSE(server.tree().has_user(1));
}

}  // namespace
}  // namespace keygraphs
