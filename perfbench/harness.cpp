#include "harness.h"

#include <sys/resource.h>
#include <sys/statfs.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>

#include "fleet.h"
#include "front.h"
#include "keygraph/key_tree.h"
#include "keygraph/shard_router.h"
#include "telemetry/metrics.h"
#include "transport/transport.h"
#include "workload.h"

namespace perfbench {

namespace kg = keygraphs;
namespace fs = std::filesystem;

namespace {

constexpr std::int64_t kNsPerMs = 1'000'000;
constexpr std::int64_t kNsPerS = 1'000'000'000;
/// A request not converged this long after it was sent has failed.
constexpr std::int64_t kRequestDeadlineNs = 10 * kNsPerS;
/// Recoveries per measurement; recover_s is their median.
constexpr int kRecoveries = 3;
/// Upper bound on the shadow key-tree replay after a traced run.
constexpr std::int64_t kShadowBudgetNs = 4 * kNsPerS;
/// Uncounted load before the measured window.
constexpr std::int64_t kWarmupNs = kNsPerS;
/// Slices of the window behind the reported tail latency and rate.
constexpr std::size_t kSlices = 8;
/// peak_rss_mb is read once this many measured requests have converged.
/// The process's memory grows with the requests it has served, and a
/// timed window serves more of them on a fast host than on a slow one;
/// reading at a fixed count keeps host speed out of the memory figure.
/// Not a power of two, so the read comes before the served-request log
/// doubles its buffer.
constexpr std::size_t kRssRequests = 8000;

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2.0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

char note_buffer[512];
template <typename... Args>
std::string format(const char* pattern, Args... args) {
  std::snprintf(note_buffer, sizeof(note_buffer), pattern, args...);
  return note_buffer;
}

/// One set-up: server, preloaded group, observers joined over UDP.
struct Stack {
  std::unique_ptr<FrontServer> front;
  std::unique_ptr<Fleet> fleet;
};

/// Serves and pumps on the calling thread until the fleet is idle.
void settle(Stack& stack, std::int64_t deadline_ns) {
  while (!stack.fleet->idle() && now_ns() < deadline_ns) {
    while (stack.front->serve_once(0)) {
    }
    stack.fleet->pump(1);
  }
  while (stack.front->serve_once(0)) {
  }
  stack.fleet->pump(0);
}

Stack build_stack(const WorkloadSpec& spec, const RunOptions& options,
                  const std::string& journal_dir,
                  std::function<std::uint64_t()> clock) {
  if (spec.journal) fs::remove_all(journal_dir);
  Stack stack;
  // Traced runs install the timing decorators for the whole run; the
  // self-test compares them against untraced runs.
  stack.front = std::make_unique<FrontServer>(spec, options.trace,
                                              journal_dir, std::move(clock));
  stack.front->preload();
  stack.fleet =
      std::make_unique<Fleet>(spec, options.seed, *stack.front);
  stack.fleet->join_observers();
  settle(stack, now_ns() + 60 * kNsPerS);
  if (!stack.fleet->observers_joined()) {
    throw std::runtime_error("observers did not converge during set-up");
  }
  return stack;
}

/// Times recover_from_storage on copies of the live journal.
std::vector<double> measure_recovery(const WorkloadSpec& spec,
                                     const std::string& journal_dir,
                                     const std::string& copy_dir,
                                     std::uint64_t live_epoch,
                                     const kg::SymmetricKey& live_key,
                                     std::vector<std::string>& violations) {
  std::vector<double> seconds;
  for (int i = 0; i < kRecoveries; ++i) {
    fs::remove_all(copy_dir);
    fs::copy(journal_dir, copy_dir, fs::copy_options::recursive);
    kg::server::ServerConfig config = spec.config;
    config.storage = {};
    config.storage.backend = kg::storage::make_file_backend(copy_dir, 1);
    kg::transport::NullTransport null;
    kg::server::GroupKeyServer fresh(config, null);
    const std::int64_t start = now_ns();
    fresh.recover_from_storage();
    seconds.push_back(static_cast<double>(now_ns() - start) / kNsPerS);
    if (fresh.epoch() != live_epoch ||
        !(fresh.tree().group_key() == live_key)) {
      violations.push_back("recovered server diverges from the live one "
                           "(epoch " + std::to_string(fresh.epoch()) +
                           " vs " + std::to_string(live_epoch) + ")");
    }
  }
  fs::remove_all(copy_dir);
  return seconds;
}

/// Per-layer accumulation for one traced commit.
struct CommitSpans {
  double op = 0, op_self = 0, plan = 0, seal = 0, dispatch = 0,
         dispatch_self = 0, send = 0, resolve = 0, append = 0, sync = 0;
  bool has_op = false, has_plan = false, has_dispatch = false,
       has_storage = false;
};

std::map<std::uint64_t, CommitSpans> fold_spans(const std::vector<Span>& spans) {
  std::map<std::uint64_t, CommitSpans> out;
  std::vector<std::vector<Interval>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      children[static_cast<std::size_t>(spans[i].parent)].push_back(
          {spans[i].start_ns, spans[i].end_ns});
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (span.trace == 0) continue;  // recovery traffic between commits
    CommitSpans& acc = out[span.trace];
    const Interval whole{span.start_ns, span.end_ns};
    const double us = static_cast<double>(span.end_ns - span.start_ns) / 1e3;
    const double self_us =
        static_cast<double>(self_time(whole, children[i])) / 1e3;
    switch (span.name) {
      case SpanName::kOp:
        acc.has_op = true;
        acc.op += us;
        acc.op_self += self_us;
        break;
      case SpanName::kPlan:
        acc.has_plan = true;
        acc.plan += us;
        break;
      case SpanName::kSeal: acc.seal += us; break;
      case SpanName::kDispatch:
        acc.has_dispatch = true;
        acc.dispatch += us;
        acc.dispatch_self += self_us;
        break;
      case SpanName::kSend: acc.send += us; break;
      case SpanName::kResolve: acc.resolve += us; break;
      case SpanName::kAppend:
        acc.has_storage = true;
        acc.append += us;
        break;
      case SpanName::kSync:
        acc.has_storage = true;
        acc.sync += us;
        break;
      default: break;
    }
  }
  return out;
}

/// Shadow key-tree replay of the traced window's membership sequence.
struct ShadowResult {
  std::vector<double> mutate_us;
  std::vector<double> publish_us;
  std::uint64_t keys_changed = 0;
  std::uint64_t ops = 0;
  double publish_total_us = 0;
  std::size_t commits_replayed = 0;
  std::size_t commits_total = 0;
};

ShadowResult replay_shadow(const WorkloadSpec& spec, std::uint64_t seed,
                           const std::vector<kg::UserId>& standing,
                           const std::vector<Commit>& commits, SpanLog& log) {
  ShadowResult out;
  out.commits_total = commits.size();
  const std::size_t key_size = spec.config.suite.key_size();
  const kg::Bytes key(key_size, 0x5a);
  kg::crypto::SecureRandom rng(seed ^ 0x5AAD0ull);
  const kg::ShardRouter router(spec.shards);
  std::vector<std::unique_ptr<kg::KeyTree>> trees;
  for (std::size_t s = 0; s < spec.shards; ++s) {
    trees.push_back(std::make_unique<kg::KeyTree>(
        spec.config.tree_degree, key_size, rng,
        kg::ShardRouter::first_id(s)));
  }
  // The server's build: one batch on K=1, 8192-user chunks per shard when
  // sharded (what ShardedGroupKeyServer::preload does).
  std::vector<std::vector<std::pair<kg::UserId, kg::Bytes>>> build(spec.shards);
  const std::size_t chunk = spec.shards == 1 ? spec.preload + 1 : 8192;
  for (kg::UserId user = 1; user <= spec.preload; ++user) {
    auto& joins = build[router.shard_of(user)];
    joins.emplace_back(user, key);
    if (joins.size() == chunk) {
      trees[router.shard_of(user)]->batch_update(joins, {});
      joins.clear();
    }
  }
  for (std::size_t s = 0; s < spec.shards; ++s) {
    if (!build[s].empty()) trees[s]->batch_update(build[s], {});
  }
  for (kg::UserId user : standing) {
    kg::KeyTree& tree = *trees[router.shard_of(user)];
    if (!tree.has_user(user)) (void)tree.join(user, key);
  }

  const std::int64_t budget_end = now_ns() + kShadowBudgetNs;
  for (const Commit& commit : commits) {
    if (now_ns() > budget_end) break;
    ++out.commits_replayed;
    std::vector<std::vector<std::pair<kg::UserId, kg::Bytes>>> joins(
        spec.shards);
    std::vector<std::vector<kg::UserId>> leaves(spec.shards);
    for (const Handled& handled : commit.requests) {
      if (!handled.granted || handled.thrown) continue;
      const std::size_t s = router.shard_of(handled.user);
      const bool member = trees[s]->has_user(handled.user);
      if (handled.kind == RequestKind::kJoin && !member) {
        joins[s].emplace_back(handled.user, key);
      } else if (handled.kind == RequestKind::kLeave && member) {
        leaves[s].push_back(handled.user);
      }
    }
    for (std::size_t s = 0; s < spec.shards; ++s) {
      if (joins[s].empty() && leaves[s].empty()) continue;
      kg::KeyTree& tree = *trees[s];
      const std::int64_t t0 = now_ns();
      std::size_t changed = 0;
      if (spec.front == Front::kSingle) {
        // One request per commit on K=1: the server's join/leave path.
        if (!joins[s].empty()) {
          changed = tree.join(joins[s][0].first, key).path.size();
        } else {
          changed = tree.leave(leaves[s][0]).path.size();
        }
      } else {
        changed = tree.batch_update(joins[s], leaves[s]).changes.size();
      }
      const std::int64_t t1 = now_ns();
      tree.publish_view();
      const std::int64_t t2 = now_ns();
      log.record(SpanName::kMutate, commit.seq, t0, t1);
      log.record(SpanName::kPublish, commit.seq, t1, t2);
      // join/leave/batch_update publish a view internally; the separately
      // timed publish_view() call stands in for that step.
      const double publish = static_cast<double>(t2 - t1) / 1e3;
      out.mutate_us.push_back(
          std::max(0.0, static_cast<double>(t1 - t0) / 1e3 - publish));
      out.publish_us.push_back(publish);
      out.publish_total_us += publish;
      out.keys_changed += changed;
      out.ops += joins[s].size() + leaves[s].size();
    }
  }
  return out;
}

void add_distribution(std::vector<std::pair<std::string, double>>& layers,
                      const std::string& name, std::vector<double> values) {
  const Distribution d = summarize(std::move(values));
  layers.emplace_back(name + ".p50", d.p50);
  layers.emplace_back(name + ".p99", d.tail);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// The commit whose epochs include `epoch` (commits in epoch order).
const Commit* owner_of(const std::vector<Commit>& commits,
                       std::uint64_t epoch) {
  const auto it = std::partition_point(
      commits.begin(), commits.end(),
      [epoch](const Commit& c) { return c.end_epoch < epoch; });
  if (it == commits.end() || epoch < it->first_epoch) return nullptr;
  return &*it;
}

void write_spans(const std::string& path, const std::vector<Span>& server,
                 const std::vector<Span>& client,
                 const std::vector<Commit>& commits) {
  std::ofstream out(path);
  if (!out) return;
  const auto commit_of_epoch = [&](std::uint64_t epoch) -> std::uint64_t {
    const Commit* owner = owner_of(commits, epoch);
    return owner != nullptr ? owner->seq : 0;
  };
  const auto emit = [&](const Span& span, std::uint64_t trace,
                        const char* side) {
    out << "{\"name\":\"" << span_name(span.name) << "\",\"trace\":" << trace
        << ",\"side\":\"" << side << "\",\"start_ns\":" << span.start_ns
        << ",\"end_ns\":" << span.end_ns << ",\"parent\":" << span.parent
        << "}\n";
  };
  for (const Span& span : server) emit(span, span.trace, "server");
  for (const Span& span : client) {
    const std::uint64_t trace = span.name == SpanName::kApply
                                    ? commit_of_epoch(span.trace)
                                    : span.trace;
    emit(span, trace, "client");
  }
}

}  // namespace

std::string filesystem_type(const std::string& path) {
  struct statfs info {};
  if (::statfs(path.c_str(), &info) != 0) return "unknown";
  const auto magic = static_cast<unsigned long>(info.f_type);
  const char* name = "other";
  switch (magic) {
    case 0xEF53: name = "ext4"; break;
    case 0x01021994: name = "tmpfs"; break;
    case 0x794C7630: name = "overlayfs"; break;
    case 0x58465342: name = "xfs"; break;
    case 0x9123683E: name = "btrfs"; break;
    case 0x2FC12FC1: name = "zfs"; break;
    case 0x6969: name = "nfs"; break;
    case 0x01021997: name = "9p"; break;
    case 0x65735546: name = "fuse"; break;
    default: break;
  }
  return format("%s(0x%lx)", name, magic);
}

RunResult run_workload(const RunOptions& options) {
  const auto spec_opt =
      make_workload(options.workload, options.preload);
  if (!spec_opt.has_value()) {
    throw std::invalid_argument("unknown workload: " + options.workload);
  }
  const WorkloadSpec& spec = *spec_opt;
  const RunOptions& opts = options;
  const bool lockstep = opts.lockstep_rounds > 0;

  RunResult result;
  fs::create_directories(opts.run_dir);
  const std::string tag = spec.name + "-seed" + std::to_string(opts.seed);
  const std::string journal_dir = opts.run_dir + "/journal-" + tag;
  if (spec.journal) {
    fs::create_directories(journal_dir);
    result.journal_fs = filesystem_type(journal_dir);
  } else {
    result.journal_fs = "none";
  }
  kg::telemetry::set_enabled(lockstep && opts.trace);

  // Pinned server clock for byte-reproducible lockstep runs. It stands
  // still: telemetry reads the clock too, so a ticking clock would stamp
  // different headers into traced and untraced runs.
  std::function<std::uint64_t()> clock;
  if (lockstep) {
    clock = [] { return std::uint64_t{1'700'000'000'000'000}; };
  }

  // --- Set-up, several times; the last stack is the one measured. -------
  Stack stack;
  std::vector<double> setups;
  const std::size_t reps = std::max<std::size_t>(1, opts.setup_reps);
  for (std::size_t rep = 0; rep < reps; ++rep) {
    stack.fleet.reset();
    stack.front.reset();
    const std::int64_t start = now_ns();
    stack = build_stack(spec, opts, journal_dir, clock);
    setups.push_back(static_cast<double>(now_ns() - start) / kNsPerS);
  }
  result.setup_s = median(setups);
  FrontServer& front = *stack.front;
  Fleet& fleet = *stack.fleet;

  // --- Measurement. ----------------------------------------------------
  std::vector<double> recoveries;
  std::vector<kg::UserId> standing;  // members when tracing switched on
  std::int64_t start = 0, end = 0, mid = 0;
  std::uint64_t recovery_base = 0;
  fleet.set_counting(true);
  const auto enable_tracing = [&] {
    front.set_tracing(true);
    fleet.set_tracing(true);
    kg::telemetry::set_enabled(true);
    fleet.reset_counters();
    recovery_base = front.recovery_served();
    standing = fleet.observer_users();
    for (kg::UserId user : fleet.churn_members()) standing.push_back(user);
  };
  if (lockstep) {
    if (opts.trace) enable_tracing();
    start = now_ns();
    for (std::size_t round = 0; round < opts.lockstep_rounds; ++round) {
      fleet.send_idle();
      while (!front.serve_once(200)) {
        if (now_ns() - start > 60 * kNsPerS) break;
      }
      settle(stack, now_ns() + kRequestDeadlineNs);
      fleet.expire(now_ns() - kRequestDeadlineNs);
    }
    end = now_ns();
    mid = start;
  } else {
    front.start_thread();
    // Warm-up, not counted: load runs until allocators and caches settle.
    // On the journaled workload it runs exactly recover_after_ops churn
    // ops, so the journal tail recovery replays has the same length on
    // every run, and recovery is timed before the measured window opens.
    fleet.set_counting(false);
    const std::int64_t warm_end = now_ns() + kWarmupNs;
    while (spec.journal ? fleet.converged_total() < spec.recover_after_ops
                        : now_ns() < warm_end) {
      fleet.send_idle();
      fleet.pump(0);
      fleet.expire(now_ns() - kRequestDeadlineNs);
    }
    if (spec.journal) {
      while (!fleet.idle()) fleet.pump(0);
      recoveries = measure_recovery(spec, journal_dir,
                                    opts.run_dir + "/recover-" + tag,
                                    fleet.last_epoch(), fleet.last_key(),
                                    result.violations);
    }
    fleet.set_counting(true);
    const auto window = static_cast<std::int64_t>(opts.seconds * kNsPerS);
    start = now_ns();
    end = start + window;
    mid = opts.trace ? start + window / 2 : start;
    bool tracing = false;
    std::int64_t active_ns = start;
    while (true) {
      const std::int64_t now = now_ns();
      if (result.rss_requests == 0 && fleet.served().size() >= kRssRequests) {
        result.peak_rss_mb = peak_rss_mb();
        result.rss_requests = fleet.served().size();
      }
      if (opts.trace && !tracing && now >= mid) {
        enable_tracing();
        tracing = true;
      }
      if (now < end) {
        if (fleet.send_idle() > 0) active_ns = now;
      } else if (fleet.idle()) {
        break;
      } else if (now > end + kRequestDeadlineNs) {
        fleet.expire(now);
        break;
      }
      if (fleet.pump(now - active_ns < kSpinNs ? 0 : 2)) active_ns = now_ns();
      fleet.expire(now - kRequestDeadlineNs);
    }
    front.stop_thread();
    const std::string front_error = front.thread_error();
    if (!front_error.empty()) {
      result.violations.push_back("server front failed: " + front_error);
    }
  }
  kg::telemetry::set_enabled(false);
  if (result.rss_requests == 0) {
    result.peak_rss_mb = peak_rss_mb();
    result.rss_requests = fleet.served().size();
  }
  result.recover_samples = recoveries.size();
  result.recover_s = median(recoveries);

  // --- End-to-end summary. ---------------------------------------------
  result.outcomes = fleet.outcomes();
  std::vector<double> plain_ms, traced_ms;
  for (const Served& served : fleet.served()) {
    const double ms =
        static_cast<double>(served.converged_ns - served.sent_ns) / kNsPerMs;
    (served.sent_ns >= mid && opts.trace ? traced_ms : plain_ms).push_back(ms);
  }
  const std::vector<double>& window_ms = opts.trace ? traced_ms : plain_ms;
  result.latency_ms = summarize(window_ms);
  // Host noise comes in bursts; the reported median and tail are the
  // medians over kSlices consecutive equal-count slices of the window's
  // requests (in send order) of each slice's median and tail, and the
  // rate is the median of kSlices equal time slices, so a few contended
  // seconds cannot swing a whole run.
  std::vector<double> medians, tails;
  const std::size_t per_slice = window_ms.size() / kSlices;
  for (std::size_t k = 0; k < kSlices && per_slice > 0; ++k) {
    const Distribution d = summarize(std::vector<double>(
        window_ms.begin() + static_cast<std::ptrdiff_t>(k * per_slice),
        window_ms.begin() + static_cast<std::ptrdiff_t>((k + 1) * per_slice)));
    medians.push_back(d.p50);
    tails.push_back(d.tail);
    result.slice_percentile = d.tail_percentile;
  }
  result.slice_samples = per_slice;
  result.slices = kSlices;
  result.p50_ms = median(medians);
  result.tail_ms = median(tails);
  std::vector<double> rates;
  const std::int64_t slice_ns = (end - start) / kSlices;
  for (std::size_t k = 0; k < kSlices && slice_ns > 0; ++k) {
    const std::int64_t from = start + static_cast<std::int64_t>(k) * slice_ns;
    std::size_t converged = 0;
    for (const Served& served : fleet.served()) {
      converged += served.converged_ns >= from &&
                   served.converged_ns < from + slice_ns;
    }
    rates.push_back(static_cast<double>(converged) * kNsPerS /
                    static_cast<double>(slice_ns));
  }
  result.ops_per_s = median(rates);
  std::string slices = "slices (p50 ms / tail ms / ops/s):";
  for (std::size_t k = 0; k < medians.size() && k < rates.size(); ++k) {
    slices += format(" %.4g/%.4g/%.4g", medians[k], tails[k], rates[k]);
  }
  result.notes.push_back(slices);
  const Fleet::CommitTotals& totals = fleet.commit_totals();
  result.rekey_bytes_per_op = ratio(static_cast<double>(totals.bytes),
                                    static_cast<double>(totals.ops));
  result.notes.push_back(format(
      "commits: %llu measured, %.2f requests per commit",
      static_cast<unsigned long long>(totals.commits),
      ratio(static_cast<double>(totals.ops),
            static_cast<double>(totals.commits))));

  result.fingerprint.rekey_bytes = totals.bytes;
  result.fingerprint.sealed_digest = front.sealed_digest();
  result.fingerprint.received_digest = fleet.received_digest();
  result.fingerprint.client_keys = fleet.member_keys();
  result.fingerprint.requests_digest = fleet.requests_digest();

  result.notes.push_back(format(
      "gate: %zu exact-epoch key checks, %zu join/leave secrecy checks, %zu "
      "violations",
      fleet.key_checks(), fleet.secrecy_checks(),
      fleet.violation_count() + result.violations.size()));
  for (const std::string& v : fleet.violations()) result.violations.push_back(v);
  if (fleet.violation_count() > fleet.violations().size()) {
    result.violations.push_back(format(
        "... and %zu more", fleet.violation_count() -
                                fleet.violations().size()));
  }
  if (fleet.key_checks() == 0) {
    result.violations.push_back("no member key was ever checked");
  }
  result.correct = result.violations.empty();

  // --- Traced run: per-layer metrics. -----------------------------------
  if (opts.trace) {
    const std::vector<Commit>& traced = fleet.traced_commits();
    const ShadowResult shadow =
        replay_shadow(spec, opts.seed, standing, traced, fleet.log());
    const auto folded = fold_spans(front.log().spans());

    std::vector<double> op, op_self, plan, dispatch, dispatch_self, seal,
        send, resolve, append, sync;
    double traced_ops = 0, commits_with_ops = 0, wraps = 0, messages = 0,
           storage_bytes = 0, datagrams = 0, syscalls = 0, failures = 0;
    std::set<std::uint64_t> traced_seqs;
    for (const Commit& commit : traced) {
      double granted = 0;
      for (const Handled& h : commit.requests) granted += h.granted && !h.thrown;
      if (granted == 0) continue;
      traced_seqs.insert(commit.seq);
      traced_ops += granted;
      ++commits_with_ops;
      wraps += static_cast<double>(commit.wraps);
      messages += static_cast<double>(commit.messages);
      storage_bytes += static_cast<double>(commit.storage_bytes);
      datagrams += static_cast<double>(commit.datagrams);
      syscalls += static_cast<double>(commit.syscalls);
      failures += static_cast<double>(commit.send_failures);
      const auto it = folded.find(commit.seq);
      if (it == folded.end() || !it->second.has_op) continue;
      const CommitSpans& s = it->second;
      op.push_back(s.op);
      op_self.push_back(s.op_self);
      send.push_back(s.send);
      resolve.push_back(s.resolve);
      if (s.has_plan) {
        plan.push_back(s.plan);
        seal.push_back(s.seal);
      }
      if (s.has_dispatch) {
        dispatch.push_back(s.dispatch);
        dispatch_self.push_back(s.dispatch_self);
      }
      if (s.has_storage) {
        append.push_back(s.append);
        sync.push_back(s.sync);
      }
    }
    std::vector<double> queue_wait;
    std::map<std::uint64_t, const Commit*> by_seq;
    for (const Commit& commit : traced) by_seq[commit.seq] = &commit;
    for (const Served& served : fleet.served()) {
      const auto it = by_seq.find(served.commit);
      if (it == by_seq.end()) continue;
      queue_wait.push_back(
          static_cast<double>(it->second->start_ns - served.sent_ns) / 1e3);
    }
    std::vector<double> wait, apply;
    for (const ReadSample& read : fleet.reads()) {
      apply.push_back(static_cast<double>(read.apply_ns) / 1e3);
      const Commit* owner = owner_of(traced, read.epoch);
      if (owner == nullptr) continue;
      const std::size_t k = read.epoch - owner->first_epoch;
      const std::int64_t sent_end =
          k < owner->send_ends.size() ? owner->send_ends[k] : owner->end_ns;
      wait.push_back(
          static_cast<double>(std::max<std::int64_t>(0, read.read_ns - sent_end)) /
          1e3);
    }

    auto& L = result.layers;
    add_distribution(L, "server.queue_wait_us", queue_wait);
    add_distribution(L, "server.op_us", op);
    add_distribution(L, "server.op_self_us", op_self);
    add_distribution(L, "server.plan_us", plan);
    add_distribution(L, "server.dispatch_us", dispatch);
    add_distribution(L, "server.dispatch_self_us", dispatch_self);
    L.emplace_back("server.ops_per_commit", ratio(traced_ops, commits_with_ops));
    add_distribution(L, "keygraph.mutate_us", shadow.mutate_us);
    add_distribution(L, "keygraph.publish_us", shadow.publish_us);
    L.emplace_back("keygraph.keys_changed_per_op",
                   ratio(static_cast<double>(shadow.keys_changed),
                         static_cast<double>(shadow.ops)));
    add_distribution(L, "rekey.seal_us", seal);
    L.emplace_back("rekey.wraps_per_op", ratio(wraps, traced_ops));
    L.emplace_back("rekey.messages_per_op", ratio(messages, traced_ops));
    add_distribution(L, "storage.append_us", append);
    add_distribution(L, "storage.sync_us", sync);
    L.emplace_back("storage.bytes_per_op", ratio(storage_bytes, traced_ops));
    L.emplace_back("storage.recover_s", result.recover_s);
    add_distribution(L, "transport.resolve_us", resolve);
    add_distribution(L, "transport.send_us", send);
    L.emplace_back("transport.datagrams_per_op", ratio(datagrams, traced_ops));
    L.emplace_back("transport.syscalls_per_op", ratio(syscalls, traced_ops));
    L.emplace_back("transport.send_failures", failures);
    add_distribution(L, "client.wait_us", wait);
    add_distribution(L, "client.apply_us", apply);
    L.emplace_back("client.datagrams_per_op",
                   ratio(static_cast<double>(fleet.datagrams_read()),
                         traced_ops));
    L.emplace_back("client.useful_ratio",
                   ratio(static_cast<double>(fleet.useful_reads()),
                         static_cast<double>(fleet.datagrams_read())));
    L.emplace_back(
        "client.recovery_requests_per_op",
        ratio(static_cast<double>(fleet.recovery_requests()), traced_ops));
    const Distribution plain = summarize(plain_ms);
    L.emplace_back("trace.overhead_ms", result.latency_ms.p50 - plain.p50);

    result.notes.push_back(format(
        "trace: untraced half p50 %.4f ms (n=%zu), traced half p50 %.4f ms "
        "(n=%zu), overhead %.4f ms",
        plain.p50, plain.count, result.latency_ms.p50, result.latency_ms.count,
        result.latency_ms.p50 - plain.p50));
    const auto mean = [](const std::vector<double>& v) {
      double sum = 0;
      for (double x : v) sum += x;
      return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
    };
    const double op_mean = mean(op);
    const double publish_mean =
        ratio(shadow.publish_total_us,
              static_cast<double>(shadow.commits_replayed));
    result.notes.push_back(format(
        "server.op_us split (mean %.1f us per commit): keygraph publish "
        "%.1f%% (shadow tree), transport.resolve %.1f%%, rekey.seal %.1f%%, "
        "rest %.1f%%",
        op_mean, 100 * ratio(publish_mean, op_mean),
        100 * ratio(mean(resolve), op_mean), 100 * ratio(mean(seal), op_mean),
        100 * (1 - ratio(publish_mean + mean(resolve) + mean(seal), op_mean))));
    result.notes.push_back(format(
        "shadow key tree: replayed %zu of %zu traced commits; recovery "
        "requests served %llu",
        shadow.commits_replayed, shadow.commits_total,
        static_cast<unsigned long long>(front.recovery_served() -
                                        recovery_base)));
    if (!lockstep) {
      const std::string path = opts.run_dir + "/spans-" + tag + ".jsonl";
      write_spans(path, front.log().spans(), fleet.log().spans(), traced);
      result.notes.push_back("spans written to " + path);
    }
  }

  stack.fleet.reset();
  stack.front.reset();
  if (spec.journal) fs::remove_all(journal_dir);
  return result;
}

}  // namespace perfbench
