// Ablation — the price of durability: rekey latency with the write-ahead
// journal off versus each storage backend.
//
// One server per backend admits KG_GROUP_SIZE members, then serves a churn
// phase of alternating leaves and joins with every commit journaled (append
// + sync while the dispatch ticket is held — the datagrams do not leave
// until the record is durable). The sweep reports end-to-end per-operation
// latency percentiles next to the journal's own storage.append_ns /
// storage.fsync_ns telemetry, so the overhead decomposes into "time spent
// making the record durable" versus everything else. `none` is the
// pre-durability baseline; `memory` prices the framing + CRC alone; `file`
// adds write(2)+fdatasync per commit.
//
//   KG_GROUP_SIZE   members before the measured churn (default 65536)
//   KG_REQUESTS     measured churn operations per backend (default 1000)
//   KG_BENCH_JSON   file to append per-point JSON lines to
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench_util.h"
#include "server/server.h"
#include "storage/backend.h"
#include "telemetry/metrics.h"
#include "transport/transport.h"

namespace keygraphs {
namespace {

struct Point {
  double build_s = 0.0;       // admitting the initial group
  double op_p50_us = 0.0;     // end-to-end rekey latency percentiles
  double op_p99_us = 0.0;
  double op_mean_us = 0.0;
  std::uint64_t append_p99_ns = 0;  // journal frame append (0 when off)
  std::uint64_t fsync_p99_ns = 0;   // sync-to-durable
  std::uint64_t journal_bytes = 0;
  std::uint64_t snapshots = 0;
};

std::string scratch_dir(const char* backend) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("kg_ablation_storage_" + std::string(backend) + "_" +
       std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

Point run(const char* backend, std::size_t group_size,
          std::size_t churn_ops) {
  server::ServerConfig config;
  config.tree_degree = 4;
  config.rng_seed = 4242;
  const std::string name(backend);
  std::string dir;
  if (name == "memory") {
    config.storage.kind = storage::Kind::kMemory;
  } else if (name == "file") {
    config.storage.kind = storage::Kind::kFile;
    dir = scratch_dir(backend);
    config.storage.journal_dir = dir;
  }
  config.storage.snapshot_interval = 4096;

  transport::NullTransport transport;
  server::GroupKeyServer server(config, transport);

  using Clock = std::chrono::steady_clock;
  const auto build_start = Clock::now();
  for (UserId user = 1; user <= group_size; ++user) server.join(user);
  Point point;
  point.build_s = std::chrono::duration<double>(Clock::now() - build_start)
                      .count();

  // Score the journal's own telemetry over the measured churn only.
  telemetry::Registry::global().reset();

  std::vector<double> op_us;
  op_us.reserve(churn_ops);
  UserId leaver = 1;
  UserId joiner = group_size + 1;
  for (std::size_t op = 0; op < churn_ops; ++op) {
    const auto start = Clock::now();
    if (op % 2 == 0) {
      server.leave(leaver++);
    } else {
      server.join(joiner++);
    }
    op_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - start)
            .count());
  }

  std::sort(op_us.begin(), op_us.end());
  point.op_p50_us = op_us[op_us.size() / 2];
  point.op_p99_us = op_us[op_us.size() * 99 / 100];
  double total = 0.0;
  for (const double us : op_us) total += us;
  point.op_mean_us = total / static_cast<double>(op_us.size());

  auto& registry = telemetry::Registry::global();
  point.append_p99_ns = registry.histogram("storage.append_ns").p99();
  point.fsync_p99_ns = registry.histogram("storage.fsync_ns").p99();
  point.journal_bytes = registry.counter("storage.journal_bytes").value();
  point.snapshots = registry.counter("storage.snapshots").value();

  if (!dir.empty()) std::filesystem::remove_all(dir);
  return point;
}

void main_impl() {
  const std::size_t n = bench::env_size("KG_GROUP_SIZE", 65536);
  const std::size_t churn = bench::env_size("KG_REQUESTS", 1000);
  bench::emit_header_json("ablation_storage", {{"group_size", n},
                                               {"churn_ops", churn}});

  std::printf("Ablation: rekey latency with the write-ahead journal off vs "
              "each backend, n=%zu, %zu churn ops\n", n, churn);
  std::printf("append/fsync columns are the journal's own telemetry; "
              "'none' is the pre-durability baseline\n\n");
  std::printf("%-8s %10s %10s %10s %12s %12s %12s %10s\n", "backend",
              "mean us", "p50 us", "p99 us", "append p99", "fsync p99",
              "wal bytes", "snapshots");
  for (const char* backend : {"none", "memory", "file"}) {
    const Point point = run(backend, n, churn);
    std::printf("%-8s %10.2f %10.2f %10.2f %9llu ns %9llu ns %12llu %10llu\n",
                backend, point.op_mean_us, point.op_p50_us, point.op_p99_us,
                static_cast<unsigned long long>(point.append_p99_ns),
                static_cast<unsigned long long>(point.fsync_p99_ns),
                static_cast<unsigned long long>(point.journal_bytes),
                static_cast<unsigned long long>(point.snapshots));
    char buffer[384];
    std::snprintf(
        buffer, sizeof(buffer),
        "{\"bench\":\"ablation_storage\",\"backend\":\"%s\","
        "\"group_size\":%zu,\"churn_ops\":%zu,\"build_s\":%.3f,"
        "\"op_mean_us\":%.3f,\"op_p50_us\":%.3f,\"op_p99_us\":%.3f,"
        "\"append_p99_ns\":%llu,\"fsync_p99_ns\":%llu,"
        "\"journal_bytes\":%llu,\"snapshots\":%llu}",
        backend, n, churn, point.build_s, point.op_mean_us, point.op_p50_us,
        point.op_p99_us,
        static_cast<unsigned long long>(point.append_p99_ns),
        static_cast<unsigned long long>(point.fsync_p99_ns),
        static_cast<unsigned long long>(point.journal_bytes),
        static_cast<unsigned long long>(point.snapshots));
    bench::emit_json_line(buffer);
  }
}

}  // namespace
}  // namespace keygraphs

int main() {
  keygraphs::main_impl();
  return 0;
}
