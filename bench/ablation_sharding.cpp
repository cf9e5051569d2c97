// Ablation: sharding the key tree for large-group churn.
//
// Sweeps the shard count K over group sizes n, measuring the three costs
// the sharded server changes:
//   - preload: arena build time for the initial membership
//   - join/leave latency: single-caller, includes the root epoch stitch
//   - sealed rekeys/sec with one writer thread per shard, showing the
//     per-shard plan/seal pipelines overlapping
// At K=1 the server is byte-identical to the unsharded GroupKeyServer, so
// the K=1 row is the baseline the other rows are judged against.
//
// Scale knobs:
//   KG_SHARD_MAX_N   largest group size   (default 65536; paper scale 1<<20)
//   KG_SHARD_OPS     churn ops per point  (default 256)
//   KG_SHARD_MAX_K   largest shard count  (default 16; CI smoke uses 2)
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "server/sharded_server.h"
#include "sim/table.h"
#include "transport/transport.h"

namespace keygraphs {
namespace {

using Clock = std::chrono::steady_clock;

double elapsed_us(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

struct Point {
  double preload_ms = 0.0;
  double join_us = 0.0;
  double leave_us = 0.0;
  double rekeys_per_s = 0.0;
};

Point run(std::size_t shards, std::size_t n, std::size_t ops) {
  transport::NullTransport transport;
  server::ShardedServerConfig config;
  config.shards = shards;
  config.base.rng_seed = 1998;
  server::GroupKeyServer server(config, transport);

  Point point;
  std::vector<UserId> initial;
  initial.reserve(n);
  for (UserId user = 1; user <= n; ++user) initial.push_back(user);
  const auto preload_start = Clock::now();
  server.preload(initial);
  point.preload_ms = elapsed_us(preload_start) / 1000.0;

  // Single-caller latency: alternate joins of fresh ids with leaves of
  // preloaded ids, so the tree stays near size n throughout.
  UserId next_join = static_cast<UserId>(n) + 1;
  UserId next_leave = 1;
  const std::size_t half = ops / 2;
  auto start = Clock::now();
  for (std::size_t i = 0; i < half; ++i) server.join(next_join++);
  point.join_us = elapsed_us(start) / static_cast<double>(half);
  start = Clock::now();
  for (std::size_t i = 0; i < half; ++i) server.leave(next_leave++);
  point.leave_us = elapsed_us(start) / static_cast<double>(half);

  // Concurrent throughput: one writer per shard, each churning a disjoint
  // id range. Lanes plan and seal in parallel; only the epoch stitch and
  // ticket-ordered dispatch serialise.
  const std::size_t per_writer = ops / shards;
  std::vector<std::thread> writers;
  writers.reserve(shards);
  start = Clock::now();
  for (std::size_t w = 0; w < shards; ++w) {
    writers.emplace_back([&server, n, ops, per_writer, w] {
      UserId join_id = static_cast<UserId>(n + ops + 1 + w * per_writer);
      UserId leave_id = static_cast<UserId>(n / 2 + 1 + w * per_writer);
      for (std::size_t i = 0; i < per_writer; ++i) {
        if (i % 2 == 0) {
          server.join(join_id++);
        } else {
          server.leave(leave_id++);
        }
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  const double concurrent_us = elapsed_us(start);
  point.rekeys_per_s =
      static_cast<double>(per_writer * shards) / (concurrent_us / 1e6);
  return point;
}

void main_impl() {
  const std::size_t max_n = bench::env_size("KG_SHARD_MAX_N", 65536);
  const std::size_t ops = bench::env_size("KG_SHARD_OPS", 256);
  const std::size_t max_k = bench::env_size("KG_SHARD_MAX_K", 16);
  bench::emit_header_json(
      "ablation_sharding",
      {{"max_shards", max_k}, {"writers_per_shard", 1}});
  std::printf("Ablation: sharded key tree, K writer threads (one per "
              "shard), %zu churn ops per point\n", ops);
  std::printf("K=1 is the single-tree server; rekeys/s is the "
              "concurrent-writer sealed throughput\n\n");
  sim::TablePrinter table({{"shards", 7},
                           {"n", 9},
                           {"preload ms", 11},
                           {"join us", 9},
                           {"leave us", 9},
                           {"rekeys/s", 10}});
  table.header();
  for (std::size_t n = 4096; n <= max_n; n *= 4) {
    for (const std::size_t shards : {1u, 2u, 4u, 8u, 16u}) {
      if (shards > max_k) break;
      const Point point = run(shards, n, ops);
      table.row({sim::TablePrinter::num(shards),
                 sim::TablePrinter::num(n),
                 sim::TablePrinter::num(point.preload_ms, 1),
                 sim::TablePrinter::num(point.join_us, 1),
                 sim::TablePrinter::num(point.leave_us, 1),
                 sim::TablePrinter::num(point.rekeys_per_s, 0)});
      char buffer[256];
      std::snprintf(buffer, sizeof(buffer),
                    "{\"bench\":\"ablation_sharding\",\"shards\":%zu,"
                    "\"n\":%zu,\"preload_ms\":%.3f,\"join_us\":%.3f,"
                    "\"leave_us\":%.3f,\"rekeys_per_s\":%.0f}",
                    shards, n, point.preload_ms, point.join_us,
                    point.leave_us, point.rekeys_per_s);
      bench::emit_json_line(buffer);
    }
    std::printf("\n");
  }
}

}  // namespace
}  // namespace keygraphs

int main() {
  keygraphs::main_impl();
  return 0;
}
