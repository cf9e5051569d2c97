#include "storage/fs_util.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "common/io.h"
#include "storage/crc32.h"

namespace keygraphs::storage {

namespace {

constexpr std::uint32_t kMetaMagic = 0x544d474bu;      // "KGMT"
constexpr std::uint32_t kSnapshotMagic = 0x4e53474bu;  // "KGSN"
constexpr const char* kMetaName = "meta";
constexpr const char* kSnapshotName = "snapshot.bin";

[[noreturn]] void throw_errno(const std::string& what) {
  throw StorageError(what + ": " + std::strerror(errno));
}

/// open(2) wrapper that closes on scope exit.
class Fd {
 public:
  Fd(const std::string& path, int flags, mode_t mode = 0644)
      : fd_(::open(path.c_str(), flags, mode)) {}
  ~Fd() {
    if (fd_ >= 0) ::close(fd_);
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  [[nodiscard]] int get() const noexcept { return fd_; }
  [[nodiscard]] bool ok() const noexcept { return fd_ >= 0; }

 private:
  int fd_;
};

void write_all(int fd, BytesView data, const std::string& path) {
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("write " + path);
    }
    done += static_cast<std::size_t>(n);
  }
}

}  // namespace

void ensure_journal_dir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    throw StorageError("journal_dir " + dir + ": " + ec.message());
  }
  if (::access(dir.c_str(), W_OK | X_OK) != 0) {
    throw_errno("journal_dir " + dir + " not writable");
  }
}

std::optional<Bytes> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  Bytes data((std::istreambuf_iterator<char>(in)),
             std::istreambuf_iterator<char>());
  if (in.bad()) throw StorageError("read " + path + " failed");
  return data;
}

void fsync_path(const std::string& path) {
  Fd fd(path, O_RDONLY);
  if (!fd.ok()) throw_errno("open " + path + " for fsync");
  if (::fsync(fd.get()) != 0) throw_errno("fsync " + path);
}

void atomic_replace(const std::string& dir, const std::string& name,
                    BytesView contents) {
  const std::string target = dir + "/" + name;
  const std::string tmp = target + ".tmp";
  {
    Fd fd(tmp, O_WRONLY | O_CREAT | O_TRUNC);
    if (!fd.ok()) throw_errno("open " + tmp);
    write_all(fd.get(), contents, tmp);
    if (::fsync(fd.get()) != 0) throw_errno("fsync " + tmp);
  }
  if (::rename(tmp.c_str(), target.c_str()) != 0) {
    throw_errno("rename " + tmp + " -> " + target);
  }
  fsync_path(dir);  // make the rename itself durable
}

std::uint64_t read_generation(const std::string& dir) {
  const auto data = read_file(dir + "/" + kMetaName);
  if (!data) return 0;
  try {
    ByteReader reader(*data);
    if (reader.u32() != kMetaMagic) {
      throw JournalCorruptError("meta file " + dir + ": bad magic");
    }
    const std::uint64_t generation = reader.u64();
    const std::uint32_t crc = reader.u32();
    reader.expect_done();
    ByteWriter check;
    check.u64(generation);
    if (crc32(check.take()) != crc) {
      throw JournalCorruptError("meta file " + dir + ": CRC mismatch");
    }
    return generation;
  } catch (const ParseError& error) {
    throw JournalCorruptError("meta file " + dir + ": " + error.what());
  }
}

void write_generation(const std::string& dir, std::uint64_t generation) {
  ByteWriter body;
  body.u64(generation);
  const Bytes body_bytes = body.take();
  ByteWriter writer;
  writer.u32(kMetaMagic);
  writer.u64(generation);
  writer.u32(crc32(body_bytes));
  atomic_replace(dir, kMetaName, writer.take());
}

std::optional<std::pair<std::uint64_t, Bytes>> read_snapshot_file(
    const std::string& dir) {
  const auto data = read_file(dir + "/" + kSnapshotName);
  if (!data) return std::nullopt;
  try {
    ByteReader reader(*data);
    if (reader.u32() != kSnapshotMagic) {
      throw JournalCorruptError("snapshot file " + dir + ": bad magic");
    }
    const std::uint64_t epoch = reader.u64();
    const std::uint32_t crc = reader.u32();
    const Bytes payload = reader.raw(reader.remaining());
    if (crc32(payload) != crc) {
      throw JournalCorruptError("snapshot file " + dir + ": CRC mismatch");
    }
    return std::make_pair(epoch, payload);
  } catch (const ParseError& error) {
    throw JournalCorruptError("snapshot file " + dir + ": " + error.what());
  }
}

void write_snapshot_file(const std::string& dir, std::uint64_t epoch,
                         BytesView payload) {
  ByteWriter writer;
  writer.u32(kSnapshotMagic);
  writer.u64(epoch);
  writer.u32(crc32(payload));
  writer.raw(payload);
  atomic_replace(dir, kSnapshotName, writer.take());
}

std::string segment_path(const std::string& dir, std::size_t lane,
                         std::uint64_t generation) {
  return dir + "/wal." + std::to_string(lane) + ".g" +
         std::to_string(generation) + ".log";
}

void remove_stale_segments(const std::string& dir, std::uint64_t keep) {
  const std::string tag = ".g" + std::to_string(keep) + ".";
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("wal.", 0) != 0) continue;
    if (name.find(tag) != std::string::npos) continue;
    std::filesystem::remove(entry.path(), ec);
  }
}

}  // namespace keygraphs::storage
