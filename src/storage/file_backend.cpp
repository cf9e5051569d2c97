// File backend: one append-only segment file per (lane, generation),
// fdatasync'd on sync(), plus the meta/snapshot files from fs_util.h. A
// segment this process creates also gets its directory entry fsync'd
// before its first sync() returns, so the first records of a new segment
// (the first commit after boot, and after each compaction) survive a
// crash like every later one. Single-writer / multi-reader: the owning
// server is the only appender and compactor, so it trusts its cached
// generation; readers (a standby process tailing the same directory)
// re-read meta on every call so they notice compactions done under their
// feet.
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <mutex>
#include <vector>

#include "storage/backend.h"
#include "storage/fs_util.h"

namespace keygraphs::storage {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw StorageError(what + ": " + std::strerror(errno));
}

class FileBackend final : public StorageBackend {
 public:
  FileBackend(std::string dir, std::size_t lanes)
      : dir_(std::move(dir)), fds_(lanes, -1), created_(lanes, false) {
    ensure_journal_dir(dir_);
    generation_ = read_generation(dir_);
  }

  ~FileBackend() override {
    for (const int fd : fds_) {
      if (fd >= 0) ::close(fd);
    }
  }

  [[nodiscard]] const char* name() const noexcept override { return "file"; }
  [[nodiscard]] std::size_t lanes() const noexcept override {
    return fds_.size();
  }

  void append(std::size_t lane, BytesView frame) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    const int fd = writer_fd(lane);
    std::size_t done = 0;
    while (done < frame.size()) {
      const ssize_t n = ::write(fd, frame.data() + done, frame.size() - done);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw_errno("append " + seg_path(lane, generation_));
      }
      done += static_cast<std::size_t>(n);
    }
  }

  void sync(std::size_t lane) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    check_lane(lane);
    const int fd = fds_[lane];
    if (fd >= 0 && ::fdatasync(fd) != 0) {
      throw_errno("fdatasync " + seg_path(lane, generation_));
    }
    if (created_[lane]) {
      fsync_path(dir_);  // the new segment's directory entry
      created_[lane] = false;
    }
  }

  [[nodiscard]] Bytes read_journal(std::size_t lane,
                                   std::size_t offset) const override {
    check_lane(lane);
    const auto data = read_file(seg_path(lane, read_generation(dir_)));
    if (!data || offset >= data->size()) return {};
    return Bytes(data->begin() + static_cast<std::ptrdiff_t>(offset),
                 data->end());
  }

  [[nodiscard]] std::size_t journal_size(std::size_t lane) const override {
    check_lane(lane);
    struct stat st = {};
    if (::stat(seg_path(lane, read_generation(dir_)).c_str(), &st) != 0) {
      return 0;
    }
    return static_cast<std::size_t>(st.st_size);
  }

  void truncate(std::size_t lane, std::size_t size) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    check_lane(lane);
    if (fds_[lane] >= 0) {
      ::close(fds_[lane]);
      fds_[lane] = -1;
    }
    const std::string path = seg_path(lane, generation_);
    struct stat st = {};
    if (::stat(path.c_str(), &st) != 0) return;  // nothing to cut
    if (static_cast<std::size_t>(st.st_size) <= size) return;
    if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
      throw_errno("truncate " + path);
    }
    fsync_path(path);
  }

  void compact(std::uint64_t epoch, BytesView snapshot) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    // Snapshot first: if we crash before the meta bump, recovery restores
    // the new snapshot and skips the (still present) journaled epochs
    // at or below it.
    write_snapshot_file(dir_, epoch, snapshot);
    const std::uint64_t next = generation_ + 1;
    write_generation(dir_, next);
    for (int& fd : fds_) {
      if (fd >= 0) ::close(fd);
      fd = -1;
    }
    generation_ = next;
    remove_stale_segments(dir_, next);
  }

  [[nodiscard]] std::optional<Bytes> read_snapshot() const override {
    auto snapshot = read_snapshot_file(dir_);
    if (!snapshot) return std::nullopt;
    return std::move(snapshot->second);
  }

  [[nodiscard]] std::uint64_t snapshot_epoch() const override {
    const auto snapshot = read_snapshot_file(dir_);
    return snapshot ? snapshot->first : 0;
  }

  [[nodiscard]] std::uint64_t generation() const override {
    return read_generation(dir_);
  }

 private:
  void check_lane(std::size_t lane) const {
    if (lane >= fds_.size()) {
      throw StorageError("file backend: lane " + std::to_string(lane) +
                         " out of range");
    }
  }

  [[nodiscard]] std::string seg_path(std::size_t lane,
                                     std::uint64_t generation) const {
    return segment_path(dir_, lane, generation);
  }

  [[nodiscard]] int writer_fd(std::size_t lane) {
    check_lane(lane);
    int& fd = fds_[lane];
    if (fd < 0) {
      const std::string path = seg_path(lane, generation_);
      fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_APPEND, 0644);
      if (fd >= 0) {
        created_[lane] = true;
      } else if (errno == EEXIST) {
        fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
      }
      if (fd < 0) throw_errno("open " + path);
    }
    return fd;
  }

  const std::string dir_;
  mutable std::mutex mutex_;
  std::uint64_t generation_ = 0;     // writer's cached view of meta
  std::vector<int> fds_;             // lazily opened per-lane segment fds
  std::vector<bool> created_;        // segment created, dir entry unsynced
};

}  // namespace

std::shared_ptr<StorageBackend> make_file_backend(const std::string& dir,
                                                  std::size_t lanes) {
  return std::make_shared<FileBackend>(dir, lanes == 0 ? 1 : lanes);
}

}  // namespace keygraphs::storage
