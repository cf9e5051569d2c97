#include "summary.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

std::size_t rank_of(std::size_t samples, double p) {
  const double exact = p / 100.0 * static_cast<double>(samples);
  // Guard against 0.98 * 500 = 490.00000000000006 rounding up a rank.
  const double rounded = std::round(exact);
  const double rank = std::abs(exact - rounded) < 1e-9 ? rounded
                                                       : std::ceil(exact);
  return std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, samples);
}

}  // namespace

double nearest_rank(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  return sorted[rank_of(sorted.size(), p) - 1];
}

std::size_t samples_beyond(std::size_t samples, double p) {
  if (samples == 0) return 0;
  return samples - rank_of(samples, p);
}

double tail_percentile(std::size_t samples) {
  if (samples == 0) return 0.0;
  for (double p : kTailLadder) {
    if (samples_beyond(samples, p) >= kTailBeyond) return p;
  }
  return 50.0;
}

Distribution summarize(std::vector<double> samples) {
  Distribution out;
  out.count = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  out.p50 = nearest_rank(samples, 50.0);
  out.tail_percentile = tail_percentile(samples.size());
  out.tail = nearest_rank(samples, out.tail_percentile);
  return out;
}

double Outcomes::failed_frac() const noexcept {
  if (attempted == 0) return 0.0;
  return static_cast<double>(failed()) / static_cast<double>(attempted);
}

std::int64_t covered(const Interval& parent, std::vector<Interval> children) {
  for (Interval& child : children) {
    child.first = std::max(child.first, parent.first);
    child.second = std::min(child.second, parent.second);
  }
  std::sort(children.begin(), children.end());
  std::int64_t total = 0;
  std::int64_t reach = parent.first;
  for (const Interval& child : children) {
    if (child.second <= child.first) continue;
    const std::int64_t from = std::max(child.first, reach);
    if (child.second > from) {
      total += child.second - from;
      reach = child.second;
    }
  }
  return total;
}

std::int64_t self_time(const Interval& parent,
                       const std::vector<Interval>& children) {
  const std::int64_t duration = parent.second - parent.first;
  return duration - covered(parent, children);
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace perfbench
