// The load harness: one process, at most two threads. The server front
// thread runs the receive loop keyserverd runs (UdpSocket::receive ->
// decode_request -> plan/seal/dispatch or batch); the fleet thread owns
// every client socket (epoll), the closed-loop churn users, convergence
// detection and the correctness gate.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "summary.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Traced run: the first half of the window runs untraced, the second
  /// half with spans, timing decorators and program telemetry on; the
  /// per-layer metrics come from the second half and the tracing overhead
  /// is the difference of the two halves' median latency.
  bool trace = false;
  /// Scratch directory for journals and the span dump (created if absent).
  std::string run_dir = ".bench_build/run";
  /// Overrides the workload's preloaded population (self-test).
  std::optional<std::size_t> preload;
  /// Set-ups per run; setup_s is their median.
  std::size_t setup_reps = 5;
  /// Deterministic mode for the self-test: one thread, each round sends
  /// every idle churn user's next request before the front serves them,
  /// the server clock is pinned, and exactly this many rounds run instead
  /// of a timed window. 0 = the normal timed, two-thread run.
  std::size_t lockstep_rounds = 0;
};

/// Byte-level fingerprint of a run, for the decorator equivalence test.
struct Fingerprint {
  std::uint64_t rekey_bytes = 0;      // server bytes handed to transport
  std::uint64_t sealed_digest = 0;    // K=1: every sealed wire blob
  std::uint64_t received_digest = 0;  // every datagram each client read
  std::vector<keygraphs::Bytes> client_keys;  // final group key per client
  std::uint64_t requests_digest = 0;  // the request sequence served
};

struct RunResult {
  bool correct = true;
  std::vector<std::string> violations;
  Outcomes outcomes;
  /// Every measured request's request-to-convergence latency.
  Distribution latency_ms;
  /// rekey_p50_ms / rekey_p99_ms: medians over the window's slices of
  /// each slice's median and tail.
  double p50_ms = 0.0;
  double tail_ms = 0.0;
  double slice_percentile = 0.0;
  std::size_t slices = 0;
  std::size_t slice_samples = 0;
  double ops_per_s = 0.0;
  double setup_s = 0.0;
  /// Peak resident set once rss_requests measured requests had converged
  /// (all of them when the window served fewer than the fixed count).
  double peak_rss_mb = 0.0;
  std::size_t rss_requests = 0;
  double rekey_bytes_per_op = 0.0;
  /// signed-durable-1k only (median of several recoveries); 0 otherwise.
  double recover_s = 0.0;
  std::size_t recover_samples = 0;
  std::string journal_fs;
  /// Per-layer metrics of a traced run, by BENCHMARK.json name.
  std::vector<std::pair<std::string, double>> layers;
  /// Human-readable lines printed above the result JSON.
  std::vector<std::string> notes;
  Fingerprint fingerprint;
};

/// Runs one workload. Throws std::invalid_argument for an unknown name.
RunResult run_workload(const RunOptions& options);

/// "ext4(0xef53)"-style name of the filesystem holding `path`.
std::string filesystem_type(const std::string& path);

}  // namespace perfbench
