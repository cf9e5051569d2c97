// End-to-end rekey tracing: the server stamps a TraceContext at plan time,
// carries it through seal and dispatch onto the datagram as the optional
// TraceExtension, and the client rebinds it so its receive/apply spans
// correlate with the server's plan/seal/dispatch spans. With the flag off
// (the default) the wire bytes are identical to the pre-extension format.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "client/client.h"
#include "common/error.h"
#include "json_check.h"
#include "server/server.h"
#include "server/sharded_server.h"
#include "storage/backend.h"
#include "telemetry/convergence.h"
#include "telemetry/export.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "transport/inproc.h"

namespace keygraphs {
namespace {

TEST(TraceWire, EncodingWithoutTraceIsByteIdentical) {
  const Bytes payload = bytes_of("hello");
  const rekey::Datagram plain{rekey::MessageType::kRekey, payload};
  const Bytes encoded = plain.encode();
  ASSERT_EQ(encoded.size(), 2 + payload.size());
  EXPECT_EQ(encoded[0], 0x47);  // magic
  EXPECT_EQ(encoded[1], 0x05);  // kRekey, trace flag clear
  const rekey::Datagram decoded = rekey::Datagram::decode(encoded);
  EXPECT_FALSE(decoded.trace.has_value());
  EXPECT_EQ(decoded.payload, payload);
}

TEST(TraceWire, ExtensionRoundTripsAndFlagsTypeByte) {
  const Bytes payload = bytes_of("payload");
  const rekey::TraceExtension extension{0x1122334455667788ull, 42, 2};
  const rekey::Datagram traced{rekey::MessageType::kRekey, payload,
                               extension};
  const Bytes encoded = traced.encode();
  EXPECT_EQ(encoded[1], 0x85);  // kRekey | kTraceFlag
  EXPECT_EQ(encoded.size(), 2 + 17 + payload.size());
  const rekey::Datagram decoded = rekey::Datagram::decode(encoded);
  ASSERT_TRUE(decoded.trace.has_value());
  EXPECT_EQ(*decoded.trace, extension);
  EXPECT_EQ(decoded.payload, payload);
  EXPECT_EQ(decoded.type, rekey::MessageType::kRekey);
}

TEST(TraceWire, TruncatedExtensionThrows) {
  const rekey::Datagram traced{rekey::MessageType::kRekey, bytes_of("x"),
                               rekey::TraceExtension{1, 2, 3}};
  Bytes encoded = traced.encode();
  encoded.resize(10);  // cuts into the extension
  EXPECT_THROW(rekey::Datagram::decode(encoded), ParseError);
}

TEST(TraceWire, RequestTypesStillValidateAfterFlagStrip) {
  // A flagged type byte outside the valid range must still be rejected.
  Bytes bogus = {0x47, static_cast<std::uint8_t>(0x80)};  // type 0 + flag
  EXPECT_THROW(rekey::Datagram::decode(bogus), ParseError);
}

struct Harness {
  std::uint64_t now = 1'000'000;
  server::ServerConfig config;
  transport::InProcNetwork network;
  std::unique_ptr<server::GroupKeyServer> server;
  std::map<UserId, std::unique_ptr<client::GroupClient>> members;
  std::map<UserId, Bytes> last_raw;  // last raw datagram per member

  explicit Harness(bool propagate, std::size_t group_size) {
    config.tree_degree = 8;
    config.rng_seed = 7;
    config.trace_propagation = propagate;
    config.clock_us = [this] { return now; };
    server = std::make_unique<server::GroupKeyServer>(config, network);
    for (UserId user = 1; user <= group_size; ++user) server->join(user);
  }

  void attach(UserId user) {
    client::ClientConfig member_config;
    member_config.user = user;
    member_config.suite = config.suite;
    member_config.root = server->root_id();
    member_config.verify = false;
    member_config.rng_seed = user + 1;
    member_config.recovery.clock_us = [this] { return now; };
    auto member =
        std::make_unique<client::GroupClient>(member_config, nullptr);
    member->install_individual_key(SymmetricKey{
        individual_key_id(user), 1,
        server->auth().individual_key(user, config.suite.key_size())});
    member->admit_snapshot(server->tree().keyset(user), server->epoch());
    client::GroupClient& ref = *member;
    network.attach_client(user, [this, &ref, user](BytesView datagram) {
      last_raw[user] = Bytes(datagram.begin(), datagram.end());
      ref.handle_datagram(datagram);
    });
    std::vector<KeyId> ids = ref.key_ids();
    ids.push_back(server->root_id());
    network.resubscribe(user, ids);
    members.emplace(user, std::move(member));
  }
};

TEST(TracePropagation, OffByDefaultKeepsDatagramsUntraced) {
  Harness harness(/*propagate=*/false, /*group_size=*/8);
  harness.attach(3);
  harness.server->join(9);
  ASSERT_FALSE(harness.last_raw[3].empty());
  EXPECT_EQ(harness.last_raw[3][1], 0x05);  // no trace flag on the wire
  EXPECT_FALSE(
      rekey::Datagram::decode(harness.last_raw[3]).trace.has_value());
}

TEST(TracePropagation, ServerAndClientSpansShareTheTraceId) {
  telemetry::Registry::global().reset();  // also clears the span ring
  Harness harness(/*propagate=*/true, /*group_size=*/8);
  harness.attach(3);
  harness.server->join(9);

  ASSERT_FALSE(harness.last_raw[3].empty());
  const rekey::Datagram raw = rekey::Datagram::decode(harness.last_raw[3]);
  ASSERT_TRUE(raw.trace.has_value());
  EXPECT_NE(raw.trace->trace_id, 0u);
  EXPECT_EQ(raw.trace->epoch, harness.server->epoch());
  EXPECT_EQ(raw.trace->op_kind,
            static_cast<std::uint8_t>(rekey::RekeyKind::kJoin));

  const std::uint64_t trace_id = raw.trace->trace_id;
  bool saw_plan = false;
  bool saw_seal = false;
  std::uint64_t dispatch_start = 0;
  std::uint64_t receive_start = 0;
  std::uint64_t apply_start = 0;
  for (const telemetry::SpanRecord& span :
       telemetry::Tracer::global().snapshot()) {
    if (span.trace_id != trace_id) continue;
    const std::string name = span.name;
    if (name == "rekey.plan") {
      saw_plan = true;
      EXPECT_EQ(span.process, telemetry::kServerProcess);
    } else if (name == "rekey.seal") {
      saw_seal = true;
    } else if (name == "rekey.dispatch") {
      dispatch_start = span.start_ns;
    } else if (name == "client.receive") {
      receive_start = span.start_ns;
      EXPECT_EQ(span.process, telemetry::client_process(3));
    } else if (name == "client.apply") {
      apply_start = span.start_ns;
      EXPECT_EQ(span.process, telemetry::client_process(3));
    }
  }
  EXPECT_TRUE(saw_plan);
  EXPECT_TRUE(saw_seal);
  ASSERT_GT(dispatch_start, 0u);
  ASSERT_GT(receive_start, 0u);
  ASSERT_GT(apply_start, 0u);
  // The delivery happens inside the dispatch span, so the client's spans
  // start after the dispatch span does.
  EXPECT_LE(dispatch_start, receive_start);
  EXPECT_LE(receive_start, apply_start);
}

// Acceptance scenario: a single join at n = 4096 with propagation on
// renders a valid Chrome Trace Event JSON with the server lane, at least
// one client lane, and a dispatch -> apply flow arrow whose dispatch span
// precedes the client apply span.
TEST(TracePropagation, SingleJoinAtFourKRendersChromeTrace) {
  Harness harness(/*propagate=*/true, /*group_size=*/4096);
  harness.attach(1);
  telemetry::Registry::global().reset();  // drop build-phase spans
  harness.server->join(4097);

  const std::string trace = telemetry::render_chrome_trace();
  ASSERT_TRUE(testjson::json_valid(trace)) << trace.substr(0, 400);
  EXPECT_NE(trace.find("\"name\":\"keyserver\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"client u1\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"s\""), std::string::npos);  // flow start
  EXPECT_NE(trace.find("\"ph\":\"f\""), std::string::npos);  // flow end
  EXPECT_NE(trace.find("rekey.dispatch"), std::string::npos);
  EXPECT_NE(trace.find("client.apply"), std::string::npos);

  std::uint64_t dispatch_start = 0;
  std::uint64_t apply_start = 0;
  for (const telemetry::SpanRecord& span :
       telemetry::Tracer::global().snapshot()) {
    const std::string name = span.name;
    if (name == "rekey.dispatch") dispatch_start = span.start_ns;
    if (name == "client.apply") apply_start = span.start_ns;
  }
  ASSERT_GT(dispatch_start, 0u);
  ASSERT_GT(apply_start, 0u);
  EXPECT_LT(dispatch_start, apply_start);
}

TEST(TracePropagation, ResyncRepliesCarryTheResyncKind) {
  Harness harness(/*propagate=*/true, /*group_size=*/8);
  harness.attach(5);
  harness.server->resync(5);
  ASSERT_FALSE(harness.last_raw[5].empty());
  const rekey::Datagram raw = rekey::Datagram::decode(harness.last_raw[5]);
  ASSERT_TRUE(raw.trace.has_value());
  EXPECT_EQ(raw.trace->op_kind,
            static_cast<std::uint8_t>(rekey::RekeyKind::kResync));
}

// At K = 1 and K = 4 the server stamps a resync with a trace id, the
// current epoch and op_kind = kResync, and draws no trace ids while
// replaying its journal.
class ShardedTrace : public ::testing::TestWithParam<std::size_t> {
 protected:
  server::ShardedServerConfig config(bool durable) const {
    server::ShardedServerConfig sharded;
    sharded.shards = GetParam();
    sharded.base.rng_seed = 7;
    sharded.base.trace_propagation = true;
    sharded.base.clock_us = [] { return std::uint64_t{1'000'000}; };
    if (durable) {
      sharded.base.storage.backend =
          storage::make_memory_backend(sharded.shards);
    }
    return sharded;
  }
};

TEST_P(ShardedTrace, ResyncCarriesTheTraceExtension) {
  transport::InProcNetwork network;
  server::GroupKeyServer server(config(/*durable=*/false), network);
  for (UserId user = 1; user <= 8; ++user) server.join(user);
  Bytes last;
  network.attach_client(5, [&last](BytesView datagram) {
    last.assign(datagram.begin(), datagram.end());
  });
  server.resync(5);

  ASSERT_FALSE(last.empty());
  const rekey::Datagram raw = rekey::Datagram::decode(last);
  ASSERT_TRUE(raw.trace.has_value());
  EXPECT_NE(raw.trace->trace_id, 0u);
  EXPECT_EQ(raw.trace->epoch, server.epoch());
  EXPECT_EQ(raw.trace->op_kind,
            static_cast<std::uint8_t>(rekey::RekeyKind::kResync));
}

TEST_P(ShardedTrace, JournalReplayDrawsNoTraceIds) {
  const server::ShardedServerConfig durable = config(/*durable=*/true);
  transport::NullTransport transport;
  server::GroupKeyServer primary(durable, transport);
  for (UserId user = 1; user <= 8; ++user) primary.join(user);
  primary.leave(3);

  server::GroupKeyServer replica(durable, transport);
  const std::uint64_t before = telemetry::next_trace_id();
  replica.recover_from_storage();
  EXPECT_EQ(telemetry::next_trace_id(), before + 1);
  EXPECT_EQ(replica.epoch(), primary.epoch());
}

INSTANTIATE_TEST_SUITE_P(Shards, ShardedTrace, ::testing::Values(1, 4));

TEST(TracePropagation, DisabledTelemetryStampsNoTrace) {
  telemetry::set_enabled(false);
  Harness harness(/*propagate=*/true, /*group_size=*/4);
  harness.attach(2);
  harness.server->join(5);
  telemetry::set_enabled(true);
  ASSERT_FALSE(harness.last_raw[2].empty());
  EXPECT_FALSE(
      rekey::Datagram::decode(harness.last_raw[2]).trace.has_value());
}

}  // namespace
}  // namespace keygraphs
