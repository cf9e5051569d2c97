// Filesystem plumbing of the file backend: directory preparation, atomic
// (tmp + rename + fsync) replacement, journal segment naming, and the two
// small self-describing metadata files —
//
//   meta          u32 magic 'KGMT' | u64 generation | u32 crc
//   snapshot.bin  u32 magic 'KGSN' | u64 epoch | u32 crc(payload) | payload
//
// The snapshot file carries its own epoch (rather than trusting meta) so a
// crash between the snapshot rename and the meta write leaves a readable,
// consistent pair: recovery restores the newer snapshot and skips journal
// records at or below its epoch.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "common/bytes.h"
#include "storage/errors.h"

namespace keygraphs::storage {

/// Creates `dir` (and parents) if absent and verifies it is writable.
/// Throws StorageError otherwise.
void ensure_journal_dir(const std::string& dir);

/// Whole-file read; nullopt when the file does not exist.
[[nodiscard]] std::optional<Bytes> read_file(const std::string& path);

/// Durably replaces `dir`/`name`: write `contents` to a tmp file, fsync,
/// rename over the target, fsync the directory.
void atomic_replace(const std::string& dir, const std::string& name,
                    BytesView contents);

void fsync_path(const std::string& path);

/// Generation counter persisted in `dir`/meta; 0 when absent.
[[nodiscard]] std::uint64_t read_generation(const std::string& dir);
void write_generation(const std::string& dir, std::uint64_t generation);

/// Snapshot blob persisted in `dir`/snapshot.bin as {epoch, payload};
/// nullopt when absent. Throws JournalCorruptError on CRC/format damage.
[[nodiscard]] std::optional<std::pair<std::uint64_t, Bytes>>
read_snapshot_file(const std::string& dir);
void write_snapshot_file(const std::string& dir, std::uint64_t epoch,
                         BytesView payload);

/// `dir`/wal.`lane`.g`generation`.log — the per-(lane, generation)
/// journal segment.
[[nodiscard]] std::string segment_path(const std::string& dir,
                                       std::size_t lane,
                                       std::uint64_t generation);

/// Deletes journal segments in `dir` whose embedded generation differs
/// from `keep` (stale leftovers of an interrupted compaction).
void remove_stale_segments(const std::string& dir, std::uint64_t keep);

}  // namespace keygraphs::storage
