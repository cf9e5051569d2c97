// The RCU read path under real concurrency: readers acquire an immutable
// TreeView and must run to completion — resync, snapshot, subgroup
// resolution, membership reads — while a writer holds the group mutex, even
// one parked indefinitely in the middle of planning. The server runs at
// K = 1. Runs under the TSan CI job alongside the pipeline and
// server-concurrency suites.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "common/error.h"
#include "keygraph/key_tree.h"
#include "server/sharded_server.h"
#include "transport/transport.h"

namespace keygraphs::server {
namespace {

Bytes ik(UserId user) {
  Bytes key(8, 0);
  for (int i = 0; i < 8; ++i) key[static_cast<std::size_t>(i)] =
      static_cast<std::uint8_t>(user >> (8 * i));
  return key;
}

// A writer thread parks inside its join plan — holding the lane mutex — by
// blocking in the injected clock (the plan reads it exactly once, under
// the lock). Every read below must complete regardless.
TEST(ViewConcurrency, ReaderCompletesWhileWriterParkedMidPlan) {
  transport::NullTransport transport;
  ServerConfig config;
  config.rng_seed = 11;

  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool armed = false;           // start trapping clock reads
  bool trapped = false;         // one clock read has been consumed
  bool writer_parked = false;   // the writer is inside the trap
  bool release_writer = false;
  config.clock_us = [&]() -> std::uint64_t {
    std::unique_lock lock(gate_mutex);
    if (armed && !trapped) {
      trapped = true;
      writer_parked = true;
      gate_cv.notify_all();
      gate_cv.wait(lock, [&] { return release_writer; });
    }
    return 1234;  // fixed timestamp for every other plan
  };

  GroupKeyServer server({config, 1}, transport);
  for (UserId u = 1; u <= 8; ++u) {
    ASSERT_EQ(server.join(u), JoinResult::kGranted);
  }
  const std::uint64_t epoch_before = server.epoch();
  {
    const std::lock_guard lock(gate_mutex);
    armed = true;
  }
  std::thread writer([&server] { server.join(100); });
  {
    std::unique_lock lock(gate_mutex);
    gate_cv.wait(lock, [&] { return writer_parked; });
  }

  // The writer holds the lane mutex inside its plan. Its mutation has
  // already published the next view (publication is the linearization
  // point), so readers see the post-join epoch — and must never block on
  // the writer.
  const TreeViewPtr view = server.shard_view(0);
  EXPECT_EQ(view->epoch(), epoch_before + 1);
  EXPECT_EQ(server.member_count(), 9u);
  EXPECT_TRUE(server.has_member(100));
  EXPECT_TRUE(server.has_member(3));
  EXPECT_EQ(server.group_key().secret, view->group_key().secret);

  const std::vector<UserId> everyone =
      view->resolve_subgroup(view->root_id(), std::nullopt);
  EXPECT_EQ(everyone.size(), 9u);

  // Serializing the acquired view yields one consistent epoch, lock-free.
  const Bytes snap = view->serialize();
  EXPECT_FALSE(snap.empty());

  // A full resync — plan, seal, dispatch — completes while the writer is
  // still parked: it plans on the acquired view and dispatches outside the
  // epoch-ticket sequence.
  server.resync(5);

  {
    const std::lock_guard lock(gate_mutex);
    release_writer = true;
  }
  gate_cv.notify_all();
  writer.join();

  EXPECT_EQ(server.epoch(), epoch_before + 1);
  EXPECT_EQ(server.member_count(), 9u);
  // The lock-free snapshot restores into an equivalent tree (deserialize
  // validates every invariant), and the live tree is consistent too.
  crypto::SecureRandom rng(12);
  const std::unique_ptr<KeyTree> replica = KeyTree::deserialize(snap, rng);
  EXPECT_EQ(replica->user_count(), 9u);
  EXPECT_NO_THROW(
      (void)KeyTree::deserialize(server.shard_view(0)->serialize(), rng));
}

// Sustained churn against concurrent lock-free readers: one writer thread
// joins/leaves while two readers hammer views, resyncs, snapshots and
// subgroup resolution. TSan polices the data races;
// the assertions police torn views.
TEST(ViewConcurrency, ChurnVersusReadersStress) {
  transport::NullTransport transport;
  ServerConfig config;
  config.rng_seed = 21;
  GroupKeyServer server({config, 1}, transport);
  for (UserId u = 1; u <= 16; ++u) {
    ASSERT_EQ(server.join(u), JoinResult::kGranted);
  }
  const KeyId root = server.shard_view(0)->root_id();

  std::atomic<bool> stop{false};
  std::thread writer([&server, &stop] {
    for (int i = 0; i < 120; ++i) {
      const UserId u = 1000 + static_cast<UserId>(i);
      server.join(u);
      if (i % 3 == 0) server.leave(u);
    }
    stop.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&server, &stop, root, t] {
      std::size_t iterations = 0;
      while ((!stop.load(std::memory_order_acquire) || iterations < 40) &&
             iterations < 4000) {
        const TreeViewPtr view = server.shard_view(0);
        // Each view is internally consistent, whatever epoch it is.
        EXPECT_EQ(view->users().size(), view->user_count());
        EXPECT_EQ(view->users_under(root).size(), view->user_count());
        EXPECT_FALSE(view->serialize().empty());
        EXPECT_GE(view->resolve_subgroup(root, std::nullopt).size(), 16u);
        if (t == 0) {
          // Users 1..16 never leave, so resync always has a member.
          server.resync(1 + static_cast<UserId>(iterations % 16));
        } else {
          EXPECT_FALSE(server.shard_view(0)->serialize().empty());
        }
        ++iterations;
      }
    });
  }
  writer.join();
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(server.member_count(), 16u + 120u - 40u);
  crypto::SecureRandom rng(22);
  EXPECT_NO_THROW(
      (void)KeyTree::deserialize(server.shard_view(0)->serialize(), rng));
}

// The core RCU claim on the raw tree, no server involved: a reader loops on
// acquired views while the single writer churns; every acquired view is a
// complete, frozen snapshot.
TEST(ViewConcurrency, RawTreeReaderDuringWriterChurn) {
  crypto::SecureRandom rng(33);
  keygraphs::KeyTree tree(4, 8, rng);
  for (UserId u = 1; u <= 8; ++u) tree.join(u, ik(u));

  std::atomic<bool> stop{false};
  std::thread reader([&tree, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      const TreeViewPtr view = tree.view();
      const std::vector<UserId> users = view->users();
      EXPECT_EQ(users.size(), view->user_count());
      EXPECT_GE(users.size(), 8u);  // users 1..8 never leave
      const Bytes first = view->serialize();
      EXPECT_EQ(view->serialize(), first);  // frozen
    }
  });
  for (int i = 0; i < 250; ++i) {
    const UserId u = 500 + static_cast<UserId>(i);
    tree.join(u, ik(u));
    if (i % 2 == 0) tree.leave(u);
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  tree.check_invariants();
  EXPECT_EQ(tree.user_count(), 8u + 125u);
}

}  // namespace
}  // namespace keygraphs::server
