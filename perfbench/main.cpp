// perfbench — the repository benchmark.
//
// Usage:
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--run-dir <dir>]
//
// Prints every metric by name with its unit and sample count, then, as the
// last line, one JSON object {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones. Exits 1 when the correctness gate fails.
#include <malloc.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "crypto/cpu_features.h"
#include "harness.h"
#include "workload.h"

using namespace perfbench;

namespace {

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--run-dir <dir>]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // One malloc arena: otherwise glibc adds a second one only if the two
  // threads ever contend for the allocator, and peak_rss_mb flips between
  // two values from run to run.
  mallopt(M_ARENA_MAX, 1);
  RunOptions options;
  options.workload.clear();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--run-dir") {
      options.run_dir = value;
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || options.workload.empty() || options.seconds <= 0) {
    return usage(argv[0]);
  }
  if (options.trace) options.setup_reps = 1;

  RunResult result;
  try {
    result = run_workload(options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }

  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("host: nproc=%ld journal_fs=%s cpu=%s\n",
              sysconf(_SC_NPROCESSORS_ONLN), result.journal_fs.c_str(),
              keygraphs::crypto::cpu_features_json().c_str());
  for (const std::string& note : result.notes) {
    std::printf("%s\n", note.c_str());
  }
  const Outcomes& o = result.outcomes;
  std::printf("requests: attempted=%llu converged=%llu denied=%llu "
              "thrown=%llu timed_out=%llu failed_frac=%.6f\n",
              static_cast<unsigned long long>(o.attempted),
              static_cast<unsigned long long>(o.converged),
              static_cast<unsigned long long>(o.denied),
              static_cast<unsigned long long>(o.thrown),
              static_cast<unsigned long long>(o.timed_out), o.failed_frac());
  for (const std::string& v : result.violations) {
    std::printf("VIOLATION: %s\n", v.c_str());
  }

  std::vector<Metric> metrics;
  if (!options.trace) {
    const Distribution& d = result.latency_ms;
    metrics = {
        {"rekey_p50_ms", result.p50_ms, "ms"},
        {"setup_s", result.setup_s, "s"},
        {"peak_rss_mb", result.peak_rss_mb, "MiB"},
        {"rekey_bytes_per_op", result.rekey_bytes_per_op, "bytes"},
    };
    std::printf("metric rekey_p50_ms %.6f ms (median of %zu slices' p50, "
                "n=%zu per slice; whole window p50 = %.6f ms, n=%zu)\n",
                result.p50_ms, result.slices, result.slice_samples, d.p50,
                d.count);
    // rekey_p99_ms and ops_per_s are printed, not in the result: on a
    // shared host their run-to-run spread is wider than any bound a
    // regression gate can use. In these closed loops ops_per_s is the
    // user count over the mean latency, so rekey_p50_ms gates it too.
    std::printf("metric rekey_p99_ms %.6f ms (median of %zu slices' p%g, "
                "n=%zu per slice, %zu beyond; whole window p%g = %.6f ms, "
                "n=%zu; not in the result JSON)\n",
                result.tail_ms, result.slices, result.slice_percentile,
                result.slice_samples,
                samples_beyond(result.slice_samples, result.slice_percentile),
                d.tail_percentile, d.tail, d.count);
    std::printf("metric ops_per_s %.6f ops/s (median of %zu time slices, "
                "n=%llu converged; not in the result JSON)\n",
                result.ops_per_s, result.slices,
                static_cast<unsigned long long>(o.converged));
    std::printf("metric setup_s %.6f s (median of %zu set-ups)\n",
                result.setup_s, options.setup_reps);
    std::printf("metric peak_rss_mb %.3f MiB (n=1; after set-up, warm-up "
                "and %zu measured requests)\n",
                result.peak_rss_mb, result.rss_requests);
    std::printf("metric rekey_bytes_per_op %.3f bytes (n=%llu ops)\n",
                result.rekey_bytes_per_op,
                static_cast<unsigned long long>(o.converged));
    std::printf("metric failed_frac %.6f ratio (n=%llu attempted; in the "
                "result's attempted/failed fields)\n",
                o.failed_frac(), static_cast<unsigned long long>(o.attempted));
    if (result.recover_samples > 0) {
      std::printf("metric recover_s %.6f s (median of %zu recoveries; "
                  "per-layer storage.recover_s)\n",
                  result.recover_s, result.recover_samples);
    }
  } else {
    for (const auto& [name, value] : result.layers) {
      std::string unit = "count";
      if (name.find("_us") != std::string::npos) unit = "us";
      if (name.find("_ms") != std::string::npos) unit = "ms";
      if (name.find("recover_s") != std::string::npos) unit = "s";
      if (name.find("ratio") != std::string::npos) unit = "ratio";
      metrics.push_back({name, value, unit});
      std::printf("layer %s %.6f %s\n", name.c_str(), value, unit.c_str());
    }
  }

  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(o.attempted);
  json += ", \"failed\": " + std::to_string(o.failed());
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
