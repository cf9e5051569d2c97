// Durable state: CRC framing, journal records, the three storage
// backends, the DurableStore append/load/tail/compact lifecycle, and
// whole-server crash recovery via rng-tape replay — including the typed
// corruption errors (torn tail, CRC damage, epoch gaps) and byte-identical
// restart on the disk backends.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include "common/bytes.h"
#include "common/error.h"
#include "server/server.h"
#include "server/sharded_server.h"
#include "server/standby.h"
#include "storage/backend.h"
#include "storage/crc32.h"
#include "storage/durable.h"
#include "storage/record.h"
#include "transport/transport.h"

namespace keygraphs {
namespace {

using storage::Cursor;
using storage::DurableStore;
using storage::FrameScan;
using storage::JournalRecord;
using storage::OpKind;
using storage::RecoveredLog;
using storage::RecoveryOptions;
using storage::StorageBackend;

/// Fresh per-test scratch directory under the system tmp dir (unique per
/// process so parallel ctest runs never collide).
std::string temp_dir(const std::string& tag) {
  const std::filesystem::path base =
      std::filesystem::temp_directory_path() /
      ("kg_storage_" + tag + "_" + std::to_string(::getpid()));
  std::filesystem::remove_all(base);
  std::filesystem::create_directories(base);
  return base.string();
}

/// The one journal segment in `dir` (lane 0, any generation).
std::string journal_file(const std::string& dir) {
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("wal.", 0) == 0) return entry.path().string();
  }
  ADD_FAILURE() << "no journal segment in " << dir;
  return {};
}

JournalRecord sample_record(std::uint64_t epoch) {
  JournalRecord record;
  record.epoch = epoch;
  record.kind = OpKind::kJoin;
  record.shard = 0;
  record.timestamp_us = 1'000'000 + epoch;
  record.joins = {epoch};
  record.rng_tape = Bytes{1, 2, 3, static_cast<std::uint8_t>(epoch)};
  record.sealed_digest = Bytes(32, static_cast<std::uint8_t>(epoch));
  return record;
}

// --- CRC + frame layer --------------------------------------------------

TEST(Crc32, MatchesTheIeeeCheckValue) {
  // The canonical CRC-32 check vector.
  EXPECT_EQ(storage::crc32(bytes_of("123456789")), 0xCBF43926u);
  EXPECT_EQ(storage::crc32(BytesView{}), 0u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const Bytes data = bytes_of("write-ahead journals are just tapes");
  std::uint32_t crc = 0;
  for (std::size_t i = 0; i < data.size(); i += 7) {
    crc = storage::crc32_update(crc, data.data() + i,
                                std::min<std::size_t>(7, data.size() - i));
  }
  EXPECT_EQ(crc, storage::crc32(data));
}

TEST(JournalRecord, PayloadRoundTripsExactly) {
  JournalRecord record = sample_record(7);
  record.sequence = 42;
  record.kind = OpKind::kBatch;
  record.shard = 3;
  record.joins = {10, 11, 12};
  record.leaves = {4};
  record.root_tape = bytes_of("root draws");
  const JournalRecord back =
      JournalRecord::decode_payload(record.encode_payload());
  EXPECT_EQ(back.sequence, 42u);
  EXPECT_EQ(back.epoch, 7u);
  EXPECT_EQ(back.kind, OpKind::kBatch);
  EXPECT_EQ(back.shard, 3u);
  EXPECT_EQ(back.timestamp_us, record.timestamp_us);
  EXPECT_EQ(back.joins, record.joins);
  EXPECT_EQ(back.leaves, record.leaves);
  EXPECT_EQ(back.rng_tape, record.rng_tape);
  EXPECT_EQ(back.root_tape, record.root_tape);
  EXPECT_EQ(back.sealed_digest, record.sealed_digest);
}

TEST(JournalRecord, FrameScanWalksBackToBackRecords) {
  Bytes stream;
  for (std::uint64_t epoch = 1; epoch <= 5; ++epoch) {
    const Bytes frame = sample_record(epoch).encode_frame();
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  const FrameScan scan = storage::scan_frames(stream);
  ASSERT_EQ(scan.records.size(), 5u);
  EXPECT_EQ(scan.consumed, stream.size());
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.records[4].epoch, 5u);
}

TEST(JournalRecord, TornTailIsFlaggedNotThrown) {
  Bytes stream = sample_record(1).encode_frame();
  const Bytes second = sample_record(2).encode_frame();
  stream.insert(stream.end(), second.begin(), second.end() - 5);
  const FrameScan scan = storage::scan_frames(stream);
  EXPECT_EQ(scan.records.size(), 1u);
  EXPECT_TRUE(scan.torn_tail);
  EXPECT_EQ(scan.consumed, stream.size() - (second.size() - 5));
}

TEST(JournalRecord, CrcDamageMidSegmentThrowsCorrupt) {
  Bytes stream = sample_record(1).encode_frame();
  const std::size_t first = stream.size();
  const Bytes second = sample_record(2).encode_frame();
  stream.insert(stream.end(), second.begin(), second.end());
  stream[first + storage::kFrameHeaderSize + 3] ^= 0xff;  // payload bit rot
  EXPECT_THROW(storage::scan_frames(stream), storage::JournalCorruptError);
  Bytes bad_magic = stream;
  bad_magic[0] ^= 0xff;
  EXPECT_THROW(storage::scan_frames(bad_magic),
               storage::JournalCorruptError);
}

// --- Backends -----------------------------------------------------------

class BackendTest : public ::testing::TestWithParam<const char*> {
 protected:
  std::shared_ptr<StorageBackend> make(std::size_t lanes) {
    const std::string kind = GetParam();
    if (kind == "memory") return storage::make_memory_backend(lanes);
    dir_ = temp_dir(std::string(kind) + "_backend");
    return storage::make_file_backend(dir_, lanes);
  }
  std::string dir_;
};

TEST_P(BackendTest, AppendReadTruncateRoundTrip) {
  const auto backend = make(2);
  EXPECT_EQ(backend->lanes(), 2u);
  backend->append(0, bytes_of("alpha"));
  backend->append(0, bytes_of("beta"));
  backend->append(1, bytes_of("gamma"));
  backend->sync(0);
  backend->sync(1);
  EXPECT_EQ(backend->journal_size(0), 9u);
  EXPECT_EQ(backend->read_journal(0, 0), bytes_of("alphabeta"));
  EXPECT_EQ(backend->read_journal(0, 5), bytes_of("beta"));
  EXPECT_EQ(backend->read_journal(1, 0), bytes_of("gamma"));
  backend->truncate(0, 5);
  EXPECT_EQ(backend->read_journal(0, 0), bytes_of("alpha"));
  backend->append(0, bytes_of("delta"));
  backend->sync(0);
  EXPECT_EQ(backend->read_journal(0, 0), bytes_of("alphadelta"));
}

TEST_P(BackendTest, CompactReplacesSnapshotAndTruncatesLanes) {
  const auto backend = make(1);
  EXPECT_FALSE(backend->read_snapshot().has_value());
  EXPECT_EQ(backend->generation(), 0u);
  backend->append(0, bytes_of("journal bytes"));
  backend->sync(0);
  backend->compact(9, bytes_of("state at epoch nine"));
  EXPECT_EQ(backend->generation(), 1u);
  EXPECT_EQ(backend->journal_size(0), 0u);
  const auto snapshot = backend->read_snapshot();
  ASSERT_TRUE(snapshot.has_value());
  EXPECT_EQ(*snapshot, bytes_of("state at epoch nine"));
  EXPECT_EQ(backend->snapshot_epoch(), 9u);
  backend->compact(12, bytes_of("newer"));
  EXPECT_EQ(backend->generation(), 2u);
  EXPECT_EQ(backend->snapshot_epoch(), 12u);
}

TEST_P(BackendTest, SurvivesReopenWhenDiskBacked) {
  const auto backend = make(1);
  backend->append(0, bytes_of("persisted"));
  backend->sync(0);
  backend->compact(3, bytes_of("snap"));
  backend->append(0, bytes_of("after"));
  backend->sync(0);
  if (dir_.empty()) return;  // memory backend: nothing to reopen
  const auto reopened = storage::make_file_backend(dir_, 1);
  EXPECT_EQ(reopened->generation(), 1u);
  EXPECT_EQ(reopened->snapshot_epoch(), 3u);
  ASSERT_TRUE(reopened->read_snapshot().has_value());
  EXPECT_EQ(*reopened->read_snapshot(), bytes_of("snap"));
  EXPECT_EQ(reopened->read_journal(0, 0), bytes_of("after"));
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendTest,
                         ::testing::Values("memory", "file"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

// --- DurableStore -------------------------------------------------------

TEST(DurableStore, AppendAssignsSequencesAndLoadReturnsThem) {
  DurableStore store(storage::make_memory_backend(1), 0);
  for (std::uint64_t epoch = 1; epoch <= 4; ++epoch) {
    JournalRecord record = sample_record(epoch);
    store.append(record);
    EXPECT_EQ(record.sequence, epoch);
  }
  const RecoveredLog log = store.load(RecoveryOptions{});
  EXPECT_FALSE(log.snapshot.has_value());
  ASSERT_EQ(log.records.size(), 4u);
  EXPECT_EQ(log.records.front().epoch, 1u);
  EXPECT_EQ(log.records.back().sequence, 4u);
}

TEST(DurableStore, LoadMergesLanesByCommitSequence) {
  DurableStore store(storage::make_memory_backend(3), 0);
  for (std::uint64_t epoch = 1; epoch <= 6; ++epoch) {
    JournalRecord record = sample_record(epoch);
    record.shard = static_cast<std::uint32_t>(epoch % 3);  // spread lanes
    store.append(record);
  }
  const RecoveredLog log = store.load(RecoveryOptions{});
  ASSERT_EQ(log.records.size(), 6u);
  for (std::uint64_t i = 0; i < 6; ++i) {
    EXPECT_EQ(log.records[i].sequence, i + 1);
    EXPECT_EQ(log.records[i].epoch, i + 1);
  }
}

TEST(DurableStore, EpochGapInJournalThrowsTyped) {
  const auto backend = storage::make_memory_backend(1);
  {
    DurableStore store(backend, 0);
    for (const std::uint64_t epoch : {1u, 2u, 4u}) {  // 3 went missing
      JournalRecord record = sample_record(epoch);
      store.append(record);
    }
  }
  DurableStore reader(backend, 0);
  EXPECT_THROW(reader.load(RecoveryOptions{}), storage::EpochGapError);
}

TEST(DurableStore, SnapshotJournalEpochGapThrowsTyped) {
  const auto backend = storage::make_memory_backend(1);
  DurableStore store(backend, 0);
  store.compact(5, bytes_of("snapshot at five"));
  JournalRecord record = sample_record(7);  // 6 never journaled
  store.append(record);
  EXPECT_THROW(store.load(RecoveryOptions{}), storage::EpochGapError);
}

TEST(DurableStore, PreloadRecordsAreExemptFromEpochContiguity) {
  DurableStore store(storage::make_memory_backend(1), 0);
  JournalRecord preload = sample_record(0);
  preload.kind = OpKind::kPreload;
  preload.joins = {1, 2, 3};
  store.append(preload);
  JournalRecord first = sample_record(1);
  store.append(first);
  const RecoveredLog log = store.load(RecoveryOptions{});
  ASSERT_EQ(log.records.size(), 2u);
  EXPECT_EQ(log.records.front().kind, OpKind::kPreload);
}

TEST(DurableStore, TailFeedsNewRecordsAndReanchorsOnCompaction) {
  const auto backend = storage::make_memory_backend(1);
  DurableStore writer(backend, 0);
  DurableStore reader(backend, 0);
  Cursor cursor;

  for (std::uint64_t epoch = 1; epoch <= 3; ++epoch) {
    JournalRecord record = sample_record(epoch);
    writer.append(record);
  }
  storage::Tail tail = reader.tail(cursor);
  EXPECT_FALSE(tail.snapshot.has_value());
  ASSERT_EQ(tail.records.size(), 3u);

  JournalRecord fourth = sample_record(4);
  writer.append(fourth);
  tail = reader.tail(cursor);
  ASSERT_EQ(tail.records.size(), 1u);
  EXPECT_EQ(tail.records.front().epoch, 4u);

  // Nothing new: an idle poll returns empty without disturbing the cursor.
  tail = reader.tail(cursor);
  EXPECT_TRUE(tail.records.empty());

  // Compaction invalidates the cursor's byte offsets; the next tail
  // re-anchors on the snapshot and the (now truncated) journal.
  writer.compact(4, bytes_of("state at four"));
  JournalRecord fifth = sample_record(5);
  writer.append(fifth);
  tail = reader.tail(cursor);
  ASSERT_TRUE(tail.snapshot.has_value());
  EXPECT_EQ(tail.snapshot_epoch, 4u);
  ASSERT_EQ(tail.records.size(), 1u);
  EXPECT_EQ(tail.records.front().epoch, 5u);
}

TEST(DurableStore, DropTailAfterCutsTornBytes) {
  const auto backend = storage::make_memory_backend(1);
  DurableStore writer(backend, 0);
  JournalRecord record = sample_record(1);
  writer.append(record);

  DurableStore reader(backend, 0);
  Cursor cursor;
  EXPECT_EQ(reader.tail(cursor).records.size(), 1u);

  // A dead writer's half-appended frame...
  const Bytes half = sample_record(9).encode_frame();
  backend->append(0, Bytes(half.begin(), half.end() - 5));
  const storage::Tail quiet = reader.tail(cursor);
  EXPECT_TRUE(quiet.records.empty());  // waiting, not throwing
  // ...is cut at promotion so new appends start on a frame boundary.
  reader.drop_tail_after(cursor);
  JournalRecord next = sample_record(2);
  reader.append(next);
  EXPECT_EQ(next.sequence, 2u);  // sequence continues past the observed one
  const RecoveredLog log = reader.load(RecoveryOptions{});
  ASSERT_EQ(log.records.size(), 2u);
  EXPECT_EQ(log.records.back().epoch, 2u);
}

// --- Whole-server recovery ---------------------------------------------

server::ServerConfig durable_config(std::uint64_t seed,
                                    std::shared_ptr<StorageBackend> backend) {
  server::ServerConfig config;
  config.tree_degree = 4;
  config.rng_seed = seed;
  config.retransmit_window = 16;
  config.recovery_rate = 0;
  config.storage.backend = std::move(backend);
  return config;
}

void churn(server::GroupKeyServer& server) {
  for (UserId user = 1; user <= 12; ++user) server.join(user);
  server.leave(3);
  server.batch({20, 21, 22}, {5, 6});
  server.leave(1);
}

TEST(ServerRecovery, ReplayRebuildsByteIdenticalState) {
  const auto backend = storage::make_memory_backend(1);
  transport::NullTransport transport;
  server::GroupKeyServer primary(durable_config(77, backend), transport);
  churn(primary);
  const Bytes expected = primary.snapshot();
  const std::uint64_t epoch = primary.epoch();

  // A replica with a *different* seed converges to the same bytes: every
  // key the original drew is replayed from the journaled rng tapes.
  server::GroupKeyServer replica(durable_config(12345, backend), transport);
  replica.recover_from_storage();
  EXPECT_EQ(replica.epoch(), epoch);
  EXPECT_EQ(replica.snapshot(), expected);
  EXPECT_EQ(replica.tree().group_key(), primary.tree().group_key());

  // The replica keeps operating — and journals its own ops durably.
  replica.join(100);
  EXPECT_EQ(replica.epoch(), epoch + 1);
}

TEST(ServerRecovery, ResyncsAreNeverJournaled) {
  const auto backend = storage::make_memory_backend(1);
  transport::NullTransport transport;
  server::GroupKeyServer server(durable_config(31, backend), transport);
  server.join(1);
  server.join(2);
  const std::size_t before = server.durable()->load(RecoveryOptions{})
                                 .records.size();
  server.resync(1);
  (void)server.handle_nack(2, 1);
  EXPECT_EQ(server.durable()->load(RecoveryOptions{}).records.size(),
            before);
}

TEST(ServerRecovery, ReplayRehydratesTheRetransmitWindow) {
  const auto backend = storage::make_memory_backend(1);
  transport::NullTransport transport;
  server::GroupKeyServer primary(durable_config(55, backend), transport);
  churn(primary);

  server::GroupKeyServer replica(durable_config(55, backend), transport);
  replica.recover_from_storage();
  // A member one epoch behind is served from the rehydrated sealed-bytes
  // ring — no resync fallback, exactly as the original server would.
  EXPECT_EQ(replica.handle_nack(2, replica.epoch() - 1),
            server::NackOutcome::kRetransmitted);
}

TEST(ServerRecovery, WrongAuthMasterFailsAsDivergence) {
  const auto backend = storage::make_memory_backend(1);
  transport::NullTransport transport;
  server::GroupKeyServer primary(durable_config(41, backend), transport);
  churn(primary);

  server::ServerConfig wrong = durable_config(41, backend);
  wrong.auth_master = bytes_of("not the same secret");
  server::GroupKeyServer replica(wrong, transport);
  EXPECT_THROW(replica.recover_from_storage(),
               storage::ReplayDivergenceError);
}

TEST(ServerRecovery, SnapshotIntervalCompactsAndRecoveryUsesIt) {
  const auto backend = storage::make_memory_backend(1);
  transport::NullTransport transport;
  server::ServerConfig config = durable_config(63, backend);
  config.storage.snapshot_interval = 4;
  server::GroupKeyServer primary(config, transport);
  for (UserId user = 1; user <= 10; ++user) primary.join(user);

  // 10 commits with interval 4: compacted at least twice, and the journal
  // holds only the records after the last snapshot.
  EXPECT_GE(backend->generation(), 2u);
  ASSERT_TRUE(backend->read_snapshot().has_value());
  const RecoveredLog log = primary.durable()->load(RecoveryOptions{});
  EXPECT_GT(log.snapshot_epoch, 0u);
  EXPECT_LT(log.records.size(), 10u);

  server::GroupKeyServer replica(config, transport);
  replica.recover_from_storage();
  EXPECT_EQ(replica.epoch(), primary.epoch());
  EXPECT_EQ(replica.snapshot(), primary.snapshot());
}

TEST(ServerRecovery, FileBackendRestartIsByteIdentical) {
  const std::string dir = temp_dir("file_restart");
  transport::NullTransport transport;
  server::ServerConfig config;
  config.rng_seed = 99;
  config.storage.kind = storage::Kind::kFile;
  config.storage.journal_dir = dir;
  config.storage.snapshot_interval = 6;

  Bytes expected;
  std::uint64_t epoch = 0;
  {
    server::GroupKeyServer primary(config, transport);
    churn(primary);
    expected = primary.snapshot();
    epoch = primary.epoch();
  }  // "crash": the process state is gone, only the journal dir remains

  server::GroupKeyServer restarted(config, transport);
  restarted.recover_from_storage();
  EXPECT_EQ(restarted.epoch(), epoch);
  EXPECT_EQ(restarted.snapshot(), expected);
}

// --- Journal corruption, end to end ------------------------------------

TEST(JournalCorruption, TruncatedTailStrictThrowsTolerantDropsOneOp) {
  const std::string dir = temp_dir("torn_tail");
  transport::NullTransport transport;
  server::ServerConfig config;
  config.rng_seed = 71;
  config.storage.kind = storage::Kind::kFile;
  config.storage.journal_dir = dir;
  config.storage.snapshot_interval = 0;  // keep every record on disk

  std::uint64_t epoch = 0;
  {
    server::GroupKeyServer primary(config, transport);
    for (UserId user = 1; user <= 8; ++user) primary.join(user);
    epoch = primary.epoch();
  }
  // Crash mid-append: the final frame loses its last bytes.
  const std::string wal = journal_file(dir);
  const auto size = std::filesystem::file_size(wal);
  std::filesystem::resize_file(wal, size - 5);

  {
    server::GroupKeyServer strict(config, transport);
    EXPECT_THROW(strict.recover_from_storage(),
                 storage::JournalTruncatedError);
  }
  server::GroupKeyServer tolerant(config, transport);
  RecoveryOptions options;
  options.tolerate_torn_tail = true;
  tolerant.recover_from_storage(options);
  // The torn record's datagrams never left the original server, so
  // resuming one epoch short is consistent — and the journal was cut back
  // to a frame boundary, so new commits append cleanly.
  EXPECT_EQ(tolerant.epoch(), epoch - 1);
  tolerant.join(200);
  EXPECT_EQ(tolerant.epoch(), epoch);

  server::GroupKeyServer again(config, transport);
  again.recover_from_storage();
  EXPECT_EQ(again.snapshot(), tolerant.snapshot());
}

TEST(JournalCorruption, CrcDamageMidSegmentFailsRecoveryTyped) {
  const std::string dir = temp_dir("bit_rot");
  transport::NullTransport transport;
  server::ServerConfig config;
  config.rng_seed = 72;
  config.storage.kind = storage::Kind::kFile;
  config.storage.journal_dir = dir;
  config.storage.snapshot_interval = 0;
  {
    server::GroupKeyServer primary(config, transport);
    for (UserId user = 1; user <= 6; ++user) primary.join(user);
  }
  const std::string wal = journal_file(dir);
  {
    std::fstream file(wal, std::ios::in | std::ios::out |
                               std::ios::binary);
    file.seekp(static_cast<std::streamoff>(
        std::filesystem::file_size(wal) / 2));
    char byte = 0;
    file.read(&byte, 1);
    file.seekp(-1, std::ios::cur);
    byte = static_cast<char>(byte ^ 0x40);
    file.write(&byte, 1);
  }
  server::GroupKeyServer replica(config, transport);
  // Tolerance covers torn tails only — mid-segment damage always throws.
  RecoveryOptions tolerant;
  tolerant.tolerate_torn_tail = true;
  EXPECT_THROW(replica.recover_from_storage(tolerant),
               storage::JournalCorruptError);
}

TEST(JournalCorruption, MissingEpochFailsRecoveryTyped) {
  // Forge a journal with a hole: epochs 1, 2, 4 — as if one lane's fsync
  // lied. The server must refuse to silently skip epoch 3.
  const auto backend = storage::make_memory_backend(1);
  transport::NullTransport transport;
  {
    server::GroupKeyServer primary(durable_config(73, backend), transport);
    for (UserId user = 1; user <= 4; ++user) primary.join(user);
  }
  // Rewrite the journal without the epoch-3 frame.
  DurableStore reader(backend, 0);
  RecoveredLog log = reader.load(RecoveryOptions{});
  ASSERT_EQ(log.records.size(), 4u);
  backend->truncate(0, 0);
  for (JournalRecord& record : log.records) {
    if (record.epoch == 3) continue;
    backend->append(0, record.encode_frame());
  }
  server::GroupKeyServer replica(durable_config(73, backend), transport);
  EXPECT_THROW(replica.recover_from_storage(), storage::EpochGapError);
}

// --- Sharded recovery ---------------------------------------------------

TEST(ShardedRecovery, JournalOnlyReplayAcrossLanes) {
  const auto backend = storage::make_memory_backend(4);
  transport::NullTransport transport;
  server::ShardedServerConfig config;
  config.shards = 4;
  config.base.tree_degree = 4;
  config.base.rng_seed = 81;
  config.base.retransmit_window = 16;
  config.base.recovery_rate = 0;
  config.base.storage.backend = backend;

  server::GroupKeyServer primary(config, transport);
  std::vector<UserId> preloaded;
  for (UserId user = 1; user <= 64; ++user) preloaded.push_back(user);
  primary.preload(preloaded);
  for (UserId user = 100; user <= 112; ++user) primary.join(user);
  primary.leave(7);
  primary.batch({200, 201, 202}, {8, 103});
  primary.leave(110);

  server::ShardedServerConfig replica_config = config;
  replica_config.base.rng_seed = 4242;  // tapes make the seed irrelevant
  server::GroupKeyServer replica(replica_config, transport);
  replica.recover_from_storage();

  EXPECT_EQ(replica.epoch(), primary.epoch());
  EXPECT_EQ(replica.member_count(), primary.member_count());
  EXPECT_EQ(replica.group_key().secret, primary.group_key().secret);
  for (const UserId user : {UserId{1}, UserId{42}, UserId{100}, UserId{202}}) {
    EXPECT_EQ(replica.keyset(user), primary.keyset(user)) << "user " << user;
  }
  EXPECT_FALSE(replica.has_member(7));
  EXPECT_FALSE(replica.has_member(110));

  // The replayed dispatch cursor continues the stitched epoch stream.
  // (Key material now diverges — post-recovery randomness comes from the
  // replica's own differently-seeded rng; only the epochs stay in step.)
  primary.join(300);
  replica.join(300);
  EXPECT_EQ(replica.epoch(), primary.epoch());
  // And the rehydrated window serves a one-epoch gap without a resync.
  EXPECT_EQ(replica.handle_nack(1, replica.epoch() - 1),
            server::NackOutcome::kRetransmitted);
}

// --- Hot standby --------------------------------------------------------

TEST(Standby, TailsThePrimaryAndPromotesSeamlessly) {
  const auto backend = storage::make_memory_backend(1);
  transport::NullTransport transport;
  auto primary = std::make_unique<server::GroupKeyServer>(
      durable_config(91, backend), transport);
  server::StandbyServer standby(durable_config(91, backend), transport);

  for (UserId user = 1; user <= 8; ++user) primary->join(user);
  EXPECT_EQ(standby.poll(), 8u);
  EXPECT_EQ(standby.epoch(), primary->epoch());

  primary->leave(4);
  primary->batch({30, 31}, {2});
  EXPECT_EQ(standby.poll(), 2u);
  EXPECT_EQ(standby.server().snapshot(), primary->snapshot());

  const std::uint64_t at_death = primary->epoch();
  primary.reset();  // the primary dies

  server::GroupKeyServer& promoted = standby.promote();
  EXPECT_TRUE(standby.promoted());
  EXPECT_EQ(promoted.epoch(), at_death);
  // The promoted server continues the same epoch stream and journals its
  // own commits into the same backend with fresh sequences.
  promoted.join(50);
  EXPECT_EQ(promoted.epoch(), at_death + 1);

  server::GroupKeyServer replica(durable_config(91, backend), transport);
  replica.recover_from_storage();
  EXPECT_EQ(replica.snapshot(), promoted.snapshot());
}

TEST(Standby, RequiresStorage) {
  transport::NullTransport transport;
  server::ServerConfig config;
  EXPECT_THROW(server::StandbyServer standby(config, transport),
               storage::StorageError);
}

}  // namespace
}  // namespace keygraphs
