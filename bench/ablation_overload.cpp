// Ablation: overload control under a flash crowd.
//
// A crowd of joiners hits a sharded server all at once. With overload off
// every join rekeys inline — one epoch per joiner, seal cost O(crowd),
// and the tail joiner waits for every epoch before it. With overload on
// the server runs degraded: offers coalesce into bounded per-lane queues,
// a periodic flush batches them (one epoch per flush round), and anything
// past the bound is shed with a retry-after hint the crowd honors.
//
// The table shows the trade the subsystem buys: epochs collapse from
// O(crowd) to O(rounds), wall time drops with them, the queue never
// exceeds its bound, and — the acceptance criterion — zero buffered ops
// rot past shed_deadline_us, because the flush period undercuts the
// deadline by construction.
//
// Scale knobs:
//   KG_OVL_BASE    members before the crowd (default 1024)
//   KG_OVL_CROWD   largest flash crowd      (default 4096; sweep /4, /2, /1)
//   KG_OVL_QUEUE   per-lane admission bound (default 64)
//   KG_OVL_SHARDS  shard / lane count       (default 4)
//   KG_OVL_CHECK   1 = exit nonzero on any deadline shed in degraded mode
//                  (CI smoke asserts the acceptance criterion)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_util.h"
#include "server/sharded_server.h"
#include "sim/table.h"
#include "telemetry/metrics.h"
#include "transport/transport.h"

namespace keygraphs {
namespace {

using Clock = std::chrono::steady_clock;

double elapsed_ms(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct Point {
  double wall_ms = 0.0;
  std::uint64_t epochs = 0;
  std::size_t shed = 0;          // retry-later answers (admission bound)
  std::size_t rounds = 0;        // flush rounds until the crowd is in
  std::size_t max_depth = 0;     // peak per-lane queue depth
  std::uint64_t deadline_shed = 0;
};

server::ShardedServerConfig base_config(std::size_t shards,
                                        std::uint64_t* now_us) {
  server::ShardedServerConfig config;
  config.shards = shards;
  config.base.rng_seed = 1998;
  config.base.retransmit_window = 2;
  config.base.clock_us = [now_us] { return *now_us; };
  return config;
}

std::vector<UserId> iota_users(UserId first, std::size_t count) {
  std::vector<UserId> users;
  users.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    users.push_back(first + static_cast<UserId>(i));
  }
  return users;
}

/// Overload off: the crowd rekeys inline, one epoch per joiner.
Point run_off(std::size_t shards, std::size_t base, std::size_t crowd) {
  std::uint64_t now_us = 1'000'000;
  transport::NullTransport transport;
  server::GroupKeyServer server(base_config(shards, &now_us),
                                       transport);
  server.preload(iota_users(1, base));

  Point point;
  const auto start = Clock::now();
  for (const UserId user : iota_users(static_cast<UserId>(base) + 1, crowd)) {
    server.join(user);
  }
  point.wall_ms = elapsed_ms(start);
  point.epochs = server.epoch();
  return point;
}

/// Overload on, pinned degraded: offer, flush each period, retry sheds.
Point run_on(std::size_t shards, std::size_t base, std::size_t crowd,
             std::size_t queue) {
  std::uint64_t now_us = 1'000'000;
  transport::NullTransport transport;
  server::ShardedServerConfig config = base_config(shards, &now_us);
  config.base.overload.enabled = true;
  config.base.overload.admission_queue = queue;
  config.base.overload.degraded_batch_period_us = 100'000;
  config.base.overload.shed_deadline_us = 250'000;
  config.base.overload.degrade_queue_fraction = 0.0;  // pin degraded
  server::GroupKeyServer server(config, transport);
  server.preload(iota_users(1, base));
  (void)server.poll_overload();  // evaluate -> degraded

  auto& deadline_shed = telemetry::Registry::global().counter(
      "server.overload.deadline_shed");
  const std::uint64_t deadline_before = deadline_shed.value();

  Point point;
  std::vector<UserId> pending =
      iota_users(static_cast<UserId>(base) + 1, crowd);
  const auto start = Clock::now();
  while (!pending.empty()) {
    ++point.rounds;
    std::vector<UserId> still_pending;
    for (const UserId user : pending) {
      const server::GateResult gate =
          server.offer_join(user, server.auth().join_token(user));
      if (gate.action == server::overload::Admission::kShed) {
        ++point.shed;
        still_pending.push_back(user);
      }
    }
    pending.swap(still_pending);
    now_us += config.base.overload.degraded_batch_period_us;
    const server::OverloadTick tick = server.poll_overload();
    for (const auto& notice : tick.shed) {
      still_pending.push_back(notice.user);  // deadline-shed: retry too
    }
  }
  point.wall_ms = elapsed_ms(start);
  point.epochs = server.epoch();
  point.max_depth = server.admission().max_depth();
  point.deadline_shed = deadline_shed.value() - deadline_before;
  return point;
}

void main_impl() {
  const std::size_t base = bench::env_size("KG_OVL_BASE", 1024);
  const std::size_t max_crowd = bench::env_size("KG_OVL_CROWD", 4096);
  const std::size_t queue = bench::env_size("KG_OVL_QUEUE", 64);
  const std::size_t shards = bench::env_size("KG_OVL_SHARDS", 4);
  const bool check = bench::env_size("KG_OVL_CHECK", 0) != 0;

  // The counters the run_on sweep reads must be live.
  telemetry::set_enabled(true);

  bench::emit_header_json("ablation_overload", {{"base", base},
                                                {"queue", queue},
                                                {"shards", shards}});
  std::printf("Ablation: flash crowd of joiners, overload off vs on "
              "(K=%zu lanes, queue bound %zu, base group %zu)\n",
              shards, queue, base);
  std::printf("on = pinned degraded: coalesce + periodic batch flush; "
              "shed joins retry on the server's hint\n\n");
  sim::TablePrinter table({{"overload", 9},
                           {"crowd", 8},
                           {"wall ms", 9},
                           {"epochs", 8},
                           {"shed", 7},
                           {"rounds", 7},
                           {"max depth", 10},
                           {"ddl shed", 9}});
  table.header();

  bool deadline_violated = false;
  for (std::size_t crowd = max_crowd / 4; crowd <= max_crowd; crowd *= 2) {
    if (crowd == 0) continue;
    const Point off = run_off(shards, base, crowd);
    table.row({"off", sim::TablePrinter::num(crowd),
               sim::TablePrinter::num(off.wall_ms, 1),
               sim::TablePrinter::num(off.epochs), "-", "-", "-", "-"});
    const Point on = run_on(shards, base, crowd, queue);
    deadline_violated = deadline_violated || on.deadline_shed > 0;
    table.row({"on", sim::TablePrinter::num(crowd),
               sim::TablePrinter::num(on.wall_ms, 1),
               sim::TablePrinter::num(on.epochs),
               sim::TablePrinter::num(on.shed),
               sim::TablePrinter::num(on.rounds),
               sim::TablePrinter::num(on.max_depth),
               sim::TablePrinter::num(on.deadline_shed)});
    char buffer[320];
    std::snprintf(buffer, sizeof(buffer),
                  "{\"bench\":\"ablation_overload\",\"crowd\":%zu,"
                  "\"off_wall_ms\":%.3f,\"off_epochs\":%llu,"
                  "\"on_wall_ms\":%.3f,\"on_epochs\":%llu,\"shed\":%zu,"
                  "\"rounds\":%zu,\"max_depth\":%zu,\"deadline_shed\":%llu}",
                  crowd, off.wall_ms,
                  static_cast<unsigned long long>(off.epochs), on.wall_ms,
                  static_cast<unsigned long long>(on.epochs), on.shed,
                  on.rounds, on.max_depth,
                  static_cast<unsigned long long>(on.deadline_shed));
    bench::emit_json_line(buffer);
  }

  if (check && deadline_violated) {
    std::fprintf(stderr,
                 "KG_OVL_CHECK: deadline sheds in degraded mode (flush "
                 "period %d us must beat shed deadline %d us)\n",
                 100'000, 250'000);
    std::exit(1);
  }
}

}  // namespace
}  // namespace keygraphs

int main() {
  keygraphs::main_impl();
  return 0;
}
