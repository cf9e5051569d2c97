// perfbench_selftest — checks the benchmark's own code.
//
//   * summary arithmetic: the nearest-rank percentile, the "highest
//     percentile with at least ten samples beyond it" rule, failed_frac
//     counting and span self time;
//   * the seeded request generator: same seed, same sequence;
//   * the timing decorators change nothing: for every workload shape (on a
//     small group, in deterministic lockstep mode) a traced run with the
//     transport and storage decorators gives the same rekey bytes, sealed
//     bytes, received datagrams and client group keys as a run without.
//
// Run with `python3 perfbench/run.py --selftest`. Exits 1 on any failure.
#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "harness.h"
#include "summary.h"
#include "workload.h"

using namespace perfbench;

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

bool near(double a, double b) { return std::abs(a - b) < 1e-9; }

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void test_percentiles() {
  const std::vector<double> hundred = one_to(100);
  check(near(nearest_rank(hundred, 50), 50), "p50 of 1..100 is 50");
  check(near(nearest_rank(hundred, 99), 99), "p99 of 1..100 is 99");
  check(near(nearest_rank(hundred, 100), 100), "p100 is the max");
  check(near(nearest_rank({7.0}, 99), 7.0), "single sample");
  check(near(nearest_rank({}, 50), 0.0), "empty sample");
  check(near(nearest_rank(one_to(10), 25), 3), "p25 of 1..10 is rank 3");

  // Ten or more samples strictly above the chosen rank.
  check(samples_beyond(1000, 99) == 10, "p99 of 1000 leaves 10 beyond");
  check(near(tail_percentile(1000), 99), "n=1000 reports p99");
  check(near(tail_percentile(999), 98), "n=999 drops to p98 (9 beyond p99)");
  check(samples_beyond(999, 99) == 9, "p99 of 999 leaves 9 beyond");
  check(near(tail_percentile(500), 98), "n=500 reports p98 (10 beyond)");
  check(near(tail_percentile(499), 95), "n=499 drops to p95");
  check(near(tail_percentile(200), 95), "n=200 reports p95");
  check(near(tail_percentile(199), 90), "n=199 drops to p90");
  check(near(tail_percentile(20), 50), "n=20 reports p50");
  check(near(tail_percentile(5), 50), "tiny samples fall back to p50");
  check(near(tail_percentile(0), 0), "no samples, no percentile");
  check(near(tail_percentile(100000), 99), "never above p99");
  for (std::size_t n = 20; n <= 5000; ++n) {
    const double p = tail_percentile(n);
    if (samples_beyond(n, p) < kTailBeyond) {
      check(false, "rule violated at n=" + std::to_string(n));
      break;
    }
  }

  std::vector<double> shuffled = one_to(1000);
  std::swap(shuffled[0], shuffled[999]);
  const Distribution d = summarize(shuffled);
  check(d.count == 1000 && near(d.p50, 500) && near(d.tail, 990) &&
            near(d.tail_percentile, 99),
        "summarize sorts and applies the tail rule");
}

void test_outcomes() {
  Outcomes o;
  check(near(o.failed_frac(), 0), "nothing attempted is not a failure");
  o.attempted = 200;
  o.converged = 190;
  o.denied = 4;     // refused by the server
  o.thrown = 1;
  o.timed_out = 5;  // never converged before the deadline
  check(o.failed() == 10, "denied + thrown + timed out all count");
  check(near(o.failed_frac(), 0.05), "failed_frac is failed / attempted");
}

void test_self_time() {
  const Interval parent{0, 100};
  check(self_time(parent, {}) == 100, "no children: all self time");
  check(self_time(parent, {{10, 20}, {30, 50}}) == 70, "disjoint children");
  check(self_time(parent, {{10, 40}, {30, 50}}) == 60,
        "overlapping children count once");
  check(self_time(parent, {{10, 40}, {20, 30}}) == 70,
        "nested children count once");
  check(self_time(parent, {{-50, 10}, {90, 200}}) == 80,
        "children clipped to the parent");
  check(self_time(parent, {{0, 100}}) == 0, "fully covered");
  check(covered(parent, {{40, 60}, {10, 20}, {15, 45}}) == 50,
        "unsorted children");
}

void test_sequences() {
  RequestSequence a(42, 3), b(42, 3), c(43, 3), other_slot(42, 4);
  std::set<keygraphs::UserId> seen;
  bool same = true, differs = false, alternates = true, unique = true;
  for (int i = 0; i < 2000; ++i) {
    const Request ra = a.next();
    const Request rb = b.next();
    const Request rc = c.next();
    const Request rs = other_slot.next();
    same = same && ra == rb;
    differs = differs || !(ra == rc);
    alternates = alternates && (ra.kind == RequestKind::kJoin) == (i % 2 == 0);
    if (ra.kind == RequestKind::kJoin) {
      unique = unique && seen.insert(ra.user).second;
    }
    if (rs.kind == RequestKind::kJoin) {
      unique = unique && seen.insert(rs.user).second;
    }
  }
  check(same, "the same seed gives the same request sequence");
  check(differs, "another seed gives another sequence");
  check(alternates, "each churn user joins, then leaves, then joins anew");
  check(unique, "churn ids are fresh across users and cycles");
  check(observer_ids(7) == observer_ids(7), "observer ids follow the seed");
  check(observer_ids(7) != observer_ids(8), "observer ids vary by seed");
}

RunResult lockstep(const std::string& workload, bool traced,
                   std::size_t preload, std::size_t rounds) {
  RunOptions options;
  options.workload = workload;
  options.seed = 5;
  options.trace = traced;
  options.preload = preload;
  options.setup_reps = 1;
  options.lockstep_rounds = rounds;
  options.run_dir = "selftest-run";
  return run_workload(options);
}

void test_decorators(const std::string& workload, std::size_t preload,
                     std::size_t rounds) {
  const RunResult plain = lockstep(workload, false, preload, rounds);
  const RunResult again = lockstep(workload, false, preload, rounds);
  const RunResult traced = lockstep(workload, true, preload, rounds);
  const std::string at = " (" + workload + ")";
  for (const RunResult* r : {&plain, &again, &traced}) {
    check(r->correct, "correctness gate passes" + at);
    for (const std::string& v : r->violations) check(false, v + at);
    check(r->outcomes.failed() == 0 && r->outcomes.converged > 0,
          "every request converges" + at);
  }
  const Fingerprint& a = plain.fingerprint;
  const Fingerprint& b = again.fingerprint;
  const Fingerprint& t = traced.fingerprint;
  check(a.received_digest == b.received_digest &&
            a.sealed_digest == b.sealed_digest,
        "lockstep runs are byte-reproducible" + at);
  check(a.requests_digest == t.requests_digest,
        "same seed, same request sequence" + at);
  check(a.rekey_bytes == t.rekey_bytes &&
            plain.rekey_bytes_per_op == traced.rekey_bytes_per_op,
        "decorators keep rekey_bytes_per_op" + at);
  check(a.sealed_digest == t.sealed_digest,
        "decorators keep the sealed bytes" + at);
  check(a.received_digest == t.received_digest,
        "decorators keep every datagram clients receive" + at);
  check(!a.client_keys.empty() && a.client_keys == t.client_keys,
        "decorators keep the client group keys" + at);
  check(!traced.layers.empty(), "the traced run reports layers" + at);
  std::printf("decorators %s: %llu rekey bytes over %llu requests\n",
              workload.c_str(),
              static_cast<unsigned long long>(a.rekey_bytes),
              static_cast<unsigned long long>(plain.outcomes.converged));
}

}  // namespace

int main() {
  test_percentiles();
  test_outcomes();
  test_self_time();
  test_sequences();
  try {
    test_decorators("churn-64k", 300, 12);
    test_decorators("signed-durable-1k", 64, 12);
    test_decorators("batch-sharded-64k", 600, 4);
  } catch (const std::exception& error) {
    check(false, std::string("lockstep run threw: ") + error.what());
  }
  if (failures != 0) {
    std::printf("perfbench_selftest: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
