// Summary arithmetic for the benchmark: percentiles, the tail-percentile
// rule, failure fractions and span self time. Kept free of any I/O so the
// self-test can pin every rule down exactly.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Nearest-rank quantile of an ascending-sorted sample: the value at rank
/// ceil(p/100 * n), 1-based. `p` in (0, 100]. Returns 0 for an empty sample.
double nearest_rank(const std::vector<double>& sorted, double p);

/// The tail percentile the benchmark reports as "p99": the highest entry of
/// kTailLadder whose nearest-rank value still has at least kTailBeyond
/// samples strictly above its rank. Falls back to the median (50) when the
/// sample is too small for any ladder entry, and to 0 for an empty sample.
inline constexpr std::size_t kTailBeyond = 10;
inline constexpr double kTailLadder[] = {99.0, 98.0, 95.0, 90.0, 75.0, 50.0};
double tail_percentile(std::size_t samples);

/// Number of samples ranked above the nearest-rank value for `p`.
std::size_t samples_beyond(std::size_t samples, double p);

/// Median and tail of one latency sample, with the rule's bookkeeping.
struct Distribution {
  std::size_t count = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_percentile = 0.0;  // which percentile `tail` is
};
Distribution summarize(std::vector<double> samples);

/// Request outcomes. Denied, thrown and not-converged-by-the-deadline
/// requests are all failures; only converged requests count as served.
struct Outcomes {
  std::uint64_t attempted = 0;
  std::uint64_t converged = 0;
  std::uint64_t denied = 0;
  std::uint64_t thrown = 0;
  std::uint64_t timed_out = 0;

  [[nodiscard]] std::uint64_t failed() const noexcept {
    return denied + thrown + timed_out;
  }
  /// failed / attempted; 0 when nothing was attempted.
  [[nodiscard]] double failed_frac() const noexcept;
};

/// A closed time interval [start, end] in nanoseconds.
using Interval = std::pair<std::int64_t, std::int64_t>;

/// Total length of the union of `children`, each clipped to `parent`.
std::int64_t covered(const Interval& parent, std::vector<Interval> children);

/// A span's self time: its duration minus the part of its interval that
/// its child spans cover (overlapping children are counted once).
std::int64_t self_time(const Interval& parent,
                       const std::vector<Interval>& children);

/// Formats a double with all its significant digits (for the result JSON).
std::string json_number(double value);

}  // namespace perfbench
