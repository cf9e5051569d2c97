// Ablation — key-tree storage: the arena-backed KeyTree and its immutable
// preorder epoch views.
//
// Three questions:
//   1. Resolve cost. A view lists every leaf's user in preorder, so a
//      subtree's members are one contiguous slice: recipients() (the
//      dispatch path's fan-out resolve) copies it, users_under() also sorts
//      it. The pair prices the sort, at n = 1024..KG_TREE_MAX members.
//   2. Mutation cost. One join + leave pair (each publishes a fresh view),
//      and one bare publish_view(), at the same n: the publish share is
//      what a persistent view has to remove.
//   Both report the median over their repetitions, in microseconds.
//   3. Reader throughput under a concurrent writer. Readers acquire the
//      current immutable view (RCU shared_ptr swap) and never lock, so a
//      churning writer should not dent read throughput beyond core
//      contention. Measured with the writer idle vs. churning.
//
//   KG_TREE_MAX     largest member count (default 65536)
//   KG_TRAVERSALS   measured resolves per n; a tenth as many join + leave
//                   pairs and publishes (default 200)
//   KG_READ_MS      per-phase reader window, milliseconds (default 300)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <optional>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "keygraph/key_tree.h"

namespace keygraphs {
namespace {

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

void grow_to(KeyTree& tree, UserId first, UserId last) {
  std::vector<std::pair<UserId, Bytes>> joins;
  for (UserId u = first; u <= last; ++u) {
    joins.emplace_back(u, Bytes(16, static_cast<std::uint8_t>(u * 37 + 1)));
    if (joins.size() == 2048 || u == last) {
      tree.batch_update(joins, {});
      joins.clear();
    }
  }
}

/// Median wall time of `reps` calls to `body`, in microseconds: one slow
/// call (a page fault, a preemption) cannot move it the way it moves a
/// mean.
template <typename Body>
double median_us(std::size_t reps, const Body& body) {
  std::vector<double> samples(reps);
  for (double& sample : samples) {
    const auto start = std::chrono::steady_clock::now();
    body();
    sample = ms_since(start) * 1000.0;
  }
  const auto middle = samples.begin() + static_cast<std::ptrdiff_t>(reps / 2);
  std::nth_element(samples.begin(), middle, samples.end());
  return *middle;
}

void resolve_point(std::size_t n, std::size_t traversals) {
  crypto::SecureRandom rng(7001);
  KeyTree tree(4, 16, rng);
  grow_to(tree, 1, n);
  const TreeViewPtr view = tree.view();
  const KeyId root = view->root_id();

  // Full-membership resolution of the root: preorder slice vs sorted copy.
  std::size_t sink = 0;
  const double recipients_us = median_us(traversals, [&] {
    sink += view->recipients(root, std::nullopt).size();
  });
  const double users_under_us = median_us(traversals, [&] {
    sink += view->users_under(root).size();
  });
  const volatile std::size_t keep = sink;
  (void)keep;

  char json[384];
  std::snprintf(
      json, sizeof(json),
      "{\"bench\":\"tree_storage\",\"mode\":\"resolve\",\"n\":%zu,"
      "\"recipients_us\":%.2f,\"users_under_us\":%.2f,"
      "\"sort_share\":%.3f}",
      n, recipients_us, users_under_us,
      users_under_us > 0 ? 1.0 - recipients_us / users_under_us : 0.0);
  bench::emit_json_line(json);
}

void mutate_publish_point(std::size_t n, std::size_t pairs) {
  crypto::SecureRandom rng(7003);
  KeyTree tree(4, 16, rng);
  grow_to(tree, 1, n);

  UserId next = static_cast<UserId>(n) + 1;
  const double pair_us = median_us(pairs, [&] {
    const UserId u = next++;
    tree.join(u, Bytes(16, static_cast<std::uint8_t>(u)));
    tree.leave(u);
  });
  const double publish_us = median_us(pairs, [&] { tree.publish_view(); });

  char json[384];
  std::snprintf(
      json, sizeof(json),
      "{\"bench\":\"tree_storage\",\"mode\":\"mutate_publish\","
      "\"n\":%zu,\"pairs\":%zu,\"join_leave_pair_us\":%.2f,"
      "\"publish_view_us\":%.2f,\"publish_share\":%.3f}",
      n, pairs, pair_us, publish_us,
      pair_us > 0 ? 2.0 * publish_us / pair_us : 0.0);
  bench::emit_json_line(json);
}

/// Reads completed in `window_ms`, with an optional concurrent writer
/// churning join/leave through the same tree.
void reader_throughput_point(std::size_t n, double window_ms) {
  crypto::SecureRandom rng(7002);
  KeyTree tree(4, 16, rng);
  grow_to(tree, 1, n);
  const KeyId root = tree.view()->root_id();

  const auto read_phase = [&](bool with_writer) -> std::uint64_t {
    std::atomic<bool> stop{false};
    std::thread writer;
    if (with_writer) {
      writer = std::thread([&tree, &stop, n] {
        UserId next = static_cast<UserId>(n) + 1;
        while (!stop.load(std::memory_order_acquire)) {
          const UserId u = next++;
          tree.join(u, Bytes(16, static_cast<std::uint8_t>(u)));
          tree.leave(u);
        }
      });
    }
    std::uint64_t reads = 0;
    std::size_t sink = 0;
    const auto start = std::chrono::steady_clock::now();
    while (ms_since(start) < window_ms) {
      const TreeViewPtr view = tree.view();
      sink += view->users_under(root).size();
      ++reads;
    }
    const volatile std::size_t keep = sink;
    (void)keep;
    stop.store(true, std::memory_order_release);
    if (writer.joinable()) writer.join();
    return reads;
  };

  const std::uint64_t quiet = read_phase(false);
  const std::uint64_t contended = read_phase(true);
  char json[384];
  std::snprintf(json, sizeof(json),
                "{\"bench\":\"tree_storage\",\"mode\":\"reader_throughput\","
                "\"n\":%zu,\"window_ms\":%.0f,\"reads_quiet\":%llu,"
                "\"reads_with_writer\":%llu,\"retained_pct\":%.1f}",
                n, window_ms, static_cast<unsigned long long>(quiet),
                static_cast<unsigned long long>(contended),
                quiet > 0 ? 100.0 * static_cast<double>(contended) /
                                static_cast<double>(quiet)
                          : 0.0);
  bench::emit_json_line(json);
}

}  // namespace
}  // namespace keygraphs

int main() {
  using namespace keygraphs;
  const std::size_t max_n = bench::env_size("KG_TREE_MAX", 65536);
  const std::size_t traversals =
      std::max<std::size_t>(1, bench::env_size("KG_TRAVERSALS", 200));
  const double window_ms =
      static_cast<double>(bench::env_size("KG_READ_MS", 300));
  bench::emit_header_json("ablation_tree_storage");
  for (std::size_t n = 1024; n <= max_n; n *= 4) {
    resolve_point(n, traversals);
    mutate_publish_point(n, std::max<std::size_t>(1, traversals / 10));
  }
  reader_throughput_point(4096, window_ms);
  return 0;
}
