// Server specification file parser (the paper's server-initialization
// mechanism): full configuration round trip, defaults, and error reporting.
#include "server/spec.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "common/error.h"
#include "rekey/executor.h"
#include "storage/errors.h"

namespace keygraphs::server {
namespace {

TEST(Spec, EmptyTextGivesDefaults) {
  const ServerSpec spec = parse_server_spec("");
  EXPECT_EQ(spec.config.tree_degree, 4);
  EXPECT_EQ(spec.config.strategy, rekey::StrategyKind::kGroupOriented);
  EXPECT_EQ(spec.config.suite.cipher, crypto::CipherAlgorithm::kDes);
  EXPECT_EQ(spec.initial_size, 0u);
  EXPECT_FALSE(spec.acl.has_value());
}

TEST(Spec, FullConfiguration) {
  const ServerSpec spec = parse_server_spec(R"(
# the paper's measured configuration
degree       = 4
strategy     = key
cipher       = des
digest       = md5
signature    = rsa512
signing      = batch
group        = 7
seed         = 42
seal_threads = 4
auth_master  = deadbeefcafe
initial_size = 8192
port         = 9999
acl          = 1, 2, 3, 10
)");
  EXPECT_EQ(spec.config.tree_degree, 4);
  EXPECT_EQ(spec.config.strategy, rekey::StrategyKind::kKeyOriented);
  EXPECT_EQ(spec.config.suite.cipher, crypto::CipherAlgorithm::kDes);
  EXPECT_EQ(spec.config.suite.digest, crypto::DigestAlgorithm::kMd5);
  EXPECT_EQ(spec.config.suite.signature, crypto::SignatureAlgorithm::kRsa512);
  EXPECT_EQ(spec.config.signing, rekey::SigningMode::kBatch);
  EXPECT_EQ(spec.config.group, 7u);
  EXPECT_EQ(spec.config.rng_seed, 42u);
  EXPECT_EQ(spec.config.seal_threads, 4u);
  EXPECT_EQ(spec.config.auth_master, from_hex("deadbeefcafe"));
  EXPECT_EQ(spec.initial_size, 8192u);
  EXPECT_EQ(spec.port, 9999u);
  ASSERT_TRUE(spec.acl.has_value());
  EXPECT_EQ(*spec.acl, (std::vector<UserId>{1, 2, 3, 10}));
  EXPECT_TRUE(spec.access_control().authorizes(10));
  EXPECT_FALSE(spec.access_control().authorizes(11));
}

TEST(Spec, StarDegreeAndModernSuite) {
  const ServerSpec spec = parse_server_spec(
      "degree = star\ncipher = aes128\ndigest = sha256\n"
      "signature = rsa2048\nsigning = per-message\n");
  EXPECT_GT(spec.config.tree_degree, 1000000);
  EXPECT_EQ(spec.config.suite.cipher, crypto::CipherAlgorithm::kAes128);
  EXPECT_EQ(spec.config.suite.digest, crypto::DigestAlgorithm::kSha256);
}

TEST(Spec, TripleDesAccepted) {
  const ServerSpec spec = parse_server_spec("cipher = 3des\n");
  EXPECT_EQ(spec.config.suite.cipher, crypto::CipherAlgorithm::kDes3);
}

TEST(Spec, SealThreadsDefaultsToSerial) {
  EXPECT_EQ(parse_server_spec("").config.seal_threads, 1u);
  EXPECT_EQ(parse_server_spec("seal_threads = 8\n").config.seal_threads, 8u);
  EXPECT_THROW(parse_server_spec("seal_threads = 0\n"), ProtocolError);
  EXPECT_THROW(parse_server_spec("seal_threads = 300\n"), ProtocolError);
  EXPECT_THROW(parse_server_spec("seal_threads = many\n"), ProtocolError);
}

TEST(Spec, AclAllIsOpen) {
  const ServerSpec spec = parse_server_spec("acl = all\n");
  EXPECT_FALSE(spec.acl.has_value());
  EXPECT_TRUE(spec.access_control().authorizes(123456));
}

TEST(Spec, CommentsAndBlankLinesIgnored) {
  const ServerSpec spec = parse_server_spec(
      "\n   \n# comment\n  degree = 8  \n\n# another\n");
  EXPECT_EQ(spec.config.tree_degree, 8);
}

TEST(Spec, ErrorsNameTheLine) {
  try {
    parse_server_spec("degree = 4\nstrategy = bogus\n");
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& error) {
    EXPECT_NE(std::string(error.what()).find("line 2"), std::string::npos);
  }
}

TEST(Spec, RejectsMalformedInput) {
  EXPECT_THROW(parse_server_spec("no equals sign here\n"), ProtocolError);
  EXPECT_THROW(parse_server_spec("unknown_key = 1\n"), ProtocolError);
  EXPECT_THROW(parse_server_spec("degree = 1\n"), ProtocolError);
  EXPECT_THROW(parse_server_spec("degree = banana\n"), ProtocolError);
  EXPECT_THROW(parse_server_spec("port = 70000\n"), ProtocolError);
  EXPECT_THROW(parse_server_spec("auth_master = xyz\n"), ProtocolError);
  EXPECT_THROW(parse_server_spec("auth_master =\n"), ProtocolError);
  EXPECT_THROW(parse_server_spec("cipher = rot13\n"), ProtocolError);
  EXPECT_THROW(parse_server_spec("signing = maybe\n"), ProtocolError);
}

TEST(Spec, TelemetryDefaultsOff) {
  const ServerSpec spec = parse_server_spec("degree = 4\n");
  EXPECT_EQ(spec.telemetry, TelemetryFormat::kOff);
  EXPECT_EQ(spec.telemetry_period_s, 10u);
}

TEST(Spec, ParsesTelemetryKeys) {
  const ServerSpec spec = parse_server_spec(
      "telemetry = json\ntelemetry_period = 30\n");
  EXPECT_EQ(spec.telemetry, TelemetryFormat::kJson);
  EXPECT_EQ(spec.telemetry_period_s, 30u);

  EXPECT_EQ(parse_server_spec("telemetry = prom\n").telemetry,
            TelemetryFormat::kPrometheus);
  EXPECT_EQ(parse_server_spec("telemetry = off\n").telemetry,
            TelemetryFormat::kOff);
  EXPECT_EQ(parse_server_spec("telemetry_period = 0\n").telemetry_period_s,
            0u);
}

TEST(Spec, RejectsBadTelemetryValues) {
  EXPECT_THROW(parse_server_spec("telemetry = xml\n"), ProtocolError);
  EXPECT_THROW(parse_server_spec("telemetry_period = 100000\n"),
               ProtocolError);
  EXPECT_THROW(parse_server_spec("telemetry_period = soon\n"),
               ProtocolError);
}

TEST(Spec, ParsesScheduleCacheCapacities) {
  const ServerSpec spec = parse_server_spec(
      "schedule_cache_capacity = 512\n"
      "client_schedule_cache_capacity = 32\n");
  EXPECT_EQ(spec.config.schedule_cache_capacity, 512u);
  EXPECT_EQ(spec.client_schedule_cache_capacity, 32u);

  // Defaults when the keys are absent.
  const ServerSpec defaults = parse_server_spec("degree = 4\n");
  EXPECT_EQ(defaults.config.schedule_cache_capacity,
            rekey::RekeyExecutor::kDefaultCacheCapacity);
  EXPECT_EQ(defaults.client_schedule_cache_capacity, 64u);
}

TEST(Spec, RejectsBadScheduleCacheCapacities) {
  EXPECT_THROW(parse_server_spec("schedule_cache_capacity = 0\n"),
               ProtocolError);
  EXPECT_THROW(parse_server_spec("schedule_cache_capacity = 1048577\n"),
               ProtocolError);
  EXPECT_THROW(parse_server_spec("schedule_cache_capacity = many\n"),
               ProtocolError);
  EXPECT_THROW(parse_server_spec("client_schedule_cache_capacity = 0\n"),
               ProtocolError);
  EXPECT_THROW(
      parse_server_spec("client_schedule_cache_capacity = 1048577\n"),
      ProtocolError);
}

TEST(Spec, ParsesStorageKeys) {
  const ServerSpec spec = parse_server_spec(
      "storage = file\njournal_dir = /tmp/kg_journal\n"
      "snapshot_interval = 256\n");
  EXPECT_EQ(spec.config.storage.kind, storage::Kind::kFile);
  EXPECT_EQ(spec.config.storage.journal_dir, "/tmp/kg_journal");
  EXPECT_EQ(spec.config.storage.snapshot_interval, 256u);
  EXPECT_TRUE(spec.config.storage.enabled());

  EXPECT_EQ(parse_server_spec("storage = memory\n").config.storage.kind,
            storage::Kind::kMemory);
  EXPECT_EQ(parse_server_spec("storage = none\n").config.storage.kind,
            storage::Kind::kNone);

  // Defaults: durability off, the pre-journal behavior.
  const ServerSpec defaults = parse_server_spec("degree = 4\n");
  EXPECT_EQ(defaults.config.storage.kind, storage::Kind::kNone);
  EXPECT_FALSE(defaults.config.storage.enabled());
  EXPECT_EQ(defaults.config.storage.snapshot_interval, 1024u);
}

TEST(Spec, RejectsBadStorageValues) {
  EXPECT_THROW(parse_server_spec("storage = tape\n"), ProtocolError);
  EXPECT_THROW(parse_server_spec("journal_dir =\n"), ProtocolError);
  EXPECT_THROW(parse_server_spec("snapshot_interval = soon\n"),
               ProtocolError);
  EXPECT_THROW(parse_server_spec("snapshot_interval = 2000000000\n"),
               ProtocolError);
}

TEST(Spec, MmapStorageIsRejectedNamingTheBackends) {
  // The file backend is the only disk journal: `storage = mmap` fails at
  // parse time, and the error lists the accepted backends.
  try {
    parse_server_spec("storage = mmap\njournal_dir = /tmp/x\n");
    FAIL() << "expected ProtocolError for storage = mmap";
  } catch (const ProtocolError& error) {
    EXPECT_NE(std::string(error.what()).find("none|memory|file"),
              std::string::npos)
        << error.what();
  }
}

TEST(Spec, DiskStorageRequiresJournalDir) {
  // The cross-field check names the offending backend.
  try {
    parse_server_spec("storage = file\n");
    FAIL() << "expected ProtocolError for storage = file";
  } catch (const ProtocolError& error) {
    EXPECT_NE(std::string(error.what()).find("requires journal_dir"),
              std::string::npos);
    EXPECT_NE(std::string(error.what()).find("file"), std::string::npos);
  }
  // A memory journal needs no directory.
  EXPECT_NO_THROW(parse_server_spec("storage = memory\n"));
}

TEST(Spec, UnwritableJournalDirFailsAtBoot) {
  // A path that cannot be a directory (its parent is a regular file):
  // parsing succeeds — the path is syntactically fine — but the server
  // constructor's make_backend throws a typed StorageError.
  const std::string file =
      (std::filesystem::temp_directory_path() /
       ("kg_not_a_dir_" + std::to_string(::getpid())))
          .string();
  { std::ofstream touch(file); }
  const ServerSpec spec = parse_server_spec(
      "storage = file\njournal_dir = " + file + "/journal\n");
  transport::NullTransport transport;
  EXPECT_THROW(GroupKeyServer server(spec.config, transport),
               storage::StorageError);
  std::filesystem::remove(file);
}

TEST(Spec, SigningRequiresSignatureAlgorithm) {
  EXPECT_THROW(parse_server_spec("signing = batch\n"), ProtocolError);
  EXPECT_NO_THROW(
      parse_server_spec("signing = batch\nsignature = rsa512\n"));
}

TEST(Spec, LoadFromMissingFileThrows) {
  EXPECT_THROW(load_server_spec("/nonexistent/spec.conf"), Error);
}

TEST(Spec, ParsedSpecBootsAServer) {
  const ServerSpec spec = parse_server_spec(
      "degree = 3\nstrategy = hybrid\nseed = 5\ninitial_size = 9\n");
  transport::NullTransport transport;
  GroupKeyServer server(spec.config, transport, spec.access_control());
  for (UserId user = 1; user <= spec.initial_size; ++user) {
    EXPECT_EQ(server.join(user), JoinResult::kGranted);
  }
  EXPECT_EQ(server.tree().user_count(), 9u);
}

}  // namespace
}  // namespace keygraphs::server
