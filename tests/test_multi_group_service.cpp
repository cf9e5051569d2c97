// MultiGroupService (Section 7 / Keystone): many groups, one individual
// key per user, per-group multicast domains, and the client-side group-id
// filter that keeps concurrent memberships independent.
#include "server/multi_group_service.h"

#include <gtest/gtest.h>

#include "client/client.h"
#include "common/error.h"
#include "sim/simulator.h"

namespace keygraphs::server {
namespace {

ServerConfig base_config() {
  ServerConfig config;
  config.tree_degree = 3;
  config.rng_seed = 44;
  return config;
}

TEST(MultiGroupService, GroupsAreIndependentServers) {
  MultiGroupService service(base_config());
  const GroupId a = service.create_group();
  const GroupId b = service.create_group();
  EXPECT_EQ(service.group_count(), 2u);
  EXPECT_THROW((void)service.server(99), ProtocolError);

  service.server(a).join(1);
  service.server(a).join(2);
  service.server(b).join(2);
  EXPECT_EQ(service.groups_of(1), (std::vector<GroupId>{a}));
  EXPECT_EQ(service.groups_of(2), (std::vector<GroupId>{a, b}));

  const SymmetricKey key_b = service.server(b).tree().group_key();
  service.server(a).leave(1);
  EXPECT_EQ(service.server(b).tree().group_key(), key_b);  // untouched
}

TEST(MultiGroupService, SharedIndividualKeyAcrossGroups) {
  MultiGroupService service(base_config());
  const GroupId a = service.create_group();
  const GroupId b = service.create_group();
  service.server(a).join(7);
  service.server(b).join(7);
  // Both trees hold the same individual key bytes: the key-graph merge.
  EXPECT_EQ(service.server(a).tree().keyset(7).front().secret,
            service.server(b).tree().keyset(7).front().secret);
  EXPECT_EQ(service.individual_key(7),
            service.server(a).tree().keyset(7).front().secret);
}

TEST(MultiGroupService, OneClientPerMembershipConverges) {
  MultiGroupService service(base_config());
  const GroupId a = service.create_group();
  const GroupId b = service.create_group();

  // User 5 participates in both groups with one GroupClient per group,
  // driven end to end through each group's own simulator.
  sim::ClientSimulator sim_a(service.server(a), service.network(a));
  sim::ClientSimulator sim_b(service.server(b), service.network(b));
  for (UserId user : {1u, 2u, 5u}) {
    sim_a.apply(sim::Request{sim::RequestKind::kJoin, user});
  }
  for (UserId user : {5u, 8u, 9u}) {
    sim_b.apply(sim::Request{sim::RequestKind::kJoin, user});
  }

  EXPECT_EQ(sim_a.client(5).group_key()->secret,
            service.server(a).tree().group_key().secret);
  EXPECT_EQ(sim_b.client(5).group_key()->secret,
            service.server(b).tree().group_key().secret);
  EXPECT_NE(sim_a.client(5).group_key()->secret,
            sim_b.client(5).group_key()->secret);

  // Churn in one group leaves the other membership's key untouched.
  const Bytes before_b = sim_b.client(5).group_key()->secret;
  sim_a.apply(sim::Request{sim::RequestKind::kLeave, 2});
  sim_a.apply(sim::Request{sim::RequestKind::kJoin, 3});
  EXPECT_EQ(sim_b.client(5).group_key()->secret, before_b);
  EXPECT_EQ(sim_a.client(5).group_key()->secret,
            service.server(a).tree().group_key().secret);
}

TEST(MultiGroupService, ClientIgnoresOtherGroupsMessages) {
  // Even if a rekey message from another group reaches a client (mixed
  // multicast domains), the group-id filter must drop it before any state
  // change — including epoch bookkeeping.
  MultiGroupService service(base_config());
  const GroupId a = service.create_group();
  const GroupId b = service.create_group();

  // A client of group b, manually wired.
  client::ClientConfig config;
  config.user = 1;
  config.suite = base_config().suite;
  config.group = b;
  config.root = service.server(b).root_id();
  config.verify = false;
  client::GroupClient client(config, nullptr);
  client.install_individual_key(SymmetricKey{
      individual_key_id(1), 1, service.individual_key(1)});

  // Capture a group-a rekey message addressed at user 1 and feed it in.
  Bytes cross_traffic;
  service.network(a).attach_client(1, [&cross_traffic](BytesView data) {
    cross_traffic.assign(data.begin(), data.end());
  });
  service.server(a).join(1);  // emits the group-a welcome for user 1
  ASSERT_FALSE(cross_traffic.empty());

  const client::RekeyOutcome outcome = client.handle_datagram(cross_traffic);
  EXPECT_FALSE(outcome.accepted);
  EXPECT_EQ(outcome.keys_changed, 0u);
  EXPECT_EQ(client.last_epoch(), 0u);  // epoch horizon untouched
  EXPECT_EQ(client.key_count(), 1u);

  // The genuine group-b admission still works afterwards.
  Bytes own_traffic;
  service.network(b).attach_client(1, [&own_traffic](BytesView data) {
    own_traffic.assign(data.begin(), data.end());
  });
  service.server(b).join(1);
  ASSERT_FALSE(own_traffic.empty());
  EXPECT_TRUE(client.handle_datagram(own_traffic).accepted);
  EXPECT_TRUE(client.group_key().has_value());
}

}  // namespace
}  // namespace keygraphs::server
