// The K-lane configuration of the group key server (server/server.h).
// GroupKeyServer runs K subtree shards under a thin root layer; this
// header names the K-lane constructor's config and keeps the sharded
// server's name as an alias of the one class.
#pragma once

#include <cstddef>

#include "server/server.h"

namespace keygraphs::server {

struct ShardedServerConfig {
  ServerConfig base;
  /// Subtree shard count K. 1 = the single-tree server, the same as
  /// GroupKeyServer(base, ...).
  std::size_t shards = 1;
};

using ShardedGroupKeyServer = GroupKeyServer;

}  // namespace keygraphs::server
