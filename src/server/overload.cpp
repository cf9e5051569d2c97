#include "server/overload.h"

#include <algorithm>
#include <cmath>

#include "telemetry/convergence.h"
#include "telemetry/metrics.h"

namespace keygraphs::server::overload {

namespace {

telemetry::Gauge& queue_depth_gauge() {
  static auto& gauge = telemetry::Registry::global().gauge(
      "server.overload.queue_depth",
      "Coalesced joins/leaves currently buffered across all lanes");
  return gauge;
}

telemetry::Gauge& breaker_gauge() {
  static auto& gauge = telemetry::Registry::global().gauge(
      "server.overload.breaker_open",
      "Lanes whose admission circuit breaker is currently open");
  return gauge;
}

}  // namespace

const char* health_name(HealthState state) noexcept {
  switch (state) {
    case HealthState::kHealthy:
      return "healthy";
    case HealthState::kDegraded:
      return "degraded";
    case HealthState::kShedding:
      return "shedding";
  }
  return "?";
}

void publish_health(HealthState state) {
  // Written unconditionally (not gated on telemetry::enabled()): /healthz
  // reads this gauge, and health must answer even with telemetry off.
  static auto& gauge = telemetry::Registry::global().gauge(
      "server.health",
      "Overload health state: 0 healthy, 1 degraded, 2 shedding");
  gauge.set(static_cast<std::int64_t>(state));
}

AdmissionController::AdmissionController(const OverloadConfig& config,
                                         std::size_t lanes)
    : config_(config), lanes_(std::max<std::size_t>(lanes, 1)) {
  config_.admission_queue = std::max<std::size_t>(config_.admission_queue, 1);
  config_.admission_burst = std::max(config_.admission_burst, 1.0);
}

void AdmissionController::trip_breaker(LaneState& lane,
                                       std::uint64_t now_us) {
  if (lane.breaker_open_until_us > now_us) return;
  lane.breaker_open_until_us = now_us + config_.breaker_cooldown_us;
  ++breakers_open_;
  static auto& trips = telemetry::Registry::global().counter(
      "server.overload.breaker_trips",
      "Per-lane admission circuit breakers opened");
  if (telemetry::enabled()) {
    trips.add(1);
    breaker_gauge().set(static_cast<std::int64_t>(breakers_open_));
  }
}

Decision AdmissionController::shed(LaneState& lane,
                                   std::uint64_t retry_after_us,
                                   std::uint64_t now_us,
                                   bool count_consecutive) {
  ++sheds_window_;
  ++sheds_total_;
  static auto& sheds = telemetry::Registry::global().counter(
      "server.overload.shed",
      "Requests refused with kRetryLater by the admission controller");
  if (telemetry::enabled()) sheds.add(1);
  if (count_consecutive &&
      ++lane.consecutive_sheds >= config_.breaker_threshold) {
    trip_breaker(lane, now_us);
  }
  return Decision{Admission::kShed, std::max<std::uint64_t>(retry_after_us, 1)};
}

Decision AdmissionController::admit(std::size_t lane_index,
                                    std::uint64_t now_us,
                                    HealthState health) {
  std::lock_guard<std::mutex> lock(mutex_);
  LaneState& lane = lanes_.at(lane_index);

  // An open breaker sheds instantly with the remaining cooldown as the
  // hint; the first offer after the cooldown closes it.
  if (lane.breaker_open_until_us > now_us) {
    return shed(lane, lane.breaker_open_until_us - now_us, now_us,
                /*count_consecutive=*/false);
  }
  if (lane.breaker_open_until_us != 0) {
    lane.breaker_open_until_us = 0;
    lane.consecutive_sheds = 0;
    if (breakers_open_ > 0) --breakers_open_;
    if (telemetry::enabled()) {
      breaker_gauge().set(static_cast<std::int64_t>(breakers_open_));
    }
  }

  // Token-bucket admission (RecoveryLimiter semantics: refill only on a
  // forward clock, so a backwards step can never mint tokens).
  if (config_.admission_rate > 0) {
    if (!lane.bucket_primed) {
      lane.bucket_primed = true;
      lane.tokens = config_.admission_burst;
      lane.refilled_us = now_us;
    } else if (now_us > lane.refilled_us) {
      const double elapsed_s =
          static_cast<double>(now_us - lane.refilled_us) * 1e-6;
      lane.tokens = std::min(config_.admission_burst,
                             lane.tokens + elapsed_s * config_.admission_rate);
      lane.refilled_us = now_us;
    }
    if (lane.tokens < 1.0) {
      const double wait_s = (1.0 - lane.tokens) / config_.admission_rate;
      return shed(lane, static_cast<std::uint64_t>(std::ceil(wait_s * 1e6)),
                  now_us, /*count_consecutive=*/true);
    }
    lane.tokens -= 1.0;
  }

  if (health == HealthState::kHealthy) {
    lane.consecutive_sheds = 0;
    static auto& admitted = telemetry::Registry::global().counter(
        "server.overload.admitted",
        "Requests admitted to the immediate-rekey path");
    if (telemetry::enabled()) admitted.add(1);
    return Decision{Admission::kAdmit, 0};
  }

  // Degraded: buffer for the next batch tick, bounded per lane.
  if (lane.depth >= config_.admission_queue) {
    return shed(lane, config_.degraded_batch_period_us, now_us,
                /*count_consecutive=*/true);
  }
  lane.consecutive_sheds = 0;
  ++lane.depth;
  ++total_depth_;
  max_depth_ = std::max(max_depth_, lane.depth);
  static auto& coalesced = telemetry::Registry::global().counter(
      "server.overload.coalesced",
      "Requests buffered for the periodic degraded-mode batch");
  if (telemetry::enabled()) {
    coalesced.add(1);
    queue_depth_gauge().set(static_cast<std::int64_t>(total_depth_));
  }
  return Decision{Admission::kCoalesce, 0};
}

void AdmissionController::release(std::size_t lane_index, std::size_t n) {
  if (n == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  LaneState& lane = lanes_.at(lane_index);
  const std::size_t returned = std::min(lane.depth, n);
  lane.depth -= returned;
  total_depth_ -= std::min(total_depth_, returned);
  if (telemetry::enabled()) {
    queue_depth_gauge().set(static_cast<std::int64_t>(total_depth_));
  }
}

void AdmissionController::note_seal(std::size_t lane_index,
                                    std::uint64_t seal_us,
                                    std::uint64_t now_us) {
  std::lock_guard<std::mutex> lock(mutex_);
  LaneState& lane = lanes_.at(lane_index);
  lane.seal_ewma_us =
      lane.seal_ewma_us == 0 ? seal_us : (lane.seal_ewma_us * 7 + seal_us) / 8;
  // A lane sealing at twice the degrade threshold is the "one slow shard"
  // case: open its breaker so it sheds alone instead of stalling siblings.
  if (config_.degrade_seal_us > 0 &&
      lane.seal_ewma_us > 2 * config_.degrade_seal_us) {
    trip_breaker(lane, now_us);
  }
}

std::size_t AdmissionController::depth(std::size_t lane_index) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lanes_.at(lane_index).depth;
}

std::size_t AdmissionController::max_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return max_depth_;
}

std::size_t AdmissionController::total_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_depth_;
}

std::size_t AdmissionController::take_sheds() {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t sheds = sheds_window_;
  sheds_window_ = 0;
  return sheds;
}

std::uint64_t AdmissionController::total_sheds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sheds_total_;
}

std::uint64_t AdmissionController::seal_ewma_us(std::size_t lane_index) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lanes_.at(lane_index).seal_ewma_us;
}

bool AdmissionController::breaker_open(std::size_t lane_index,
                                       std::uint64_t now_us) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lanes_.at(lane_index).breaker_open_until_us > now_us;
}

HealthMonitor::HealthMonitor(const OverloadConfig& config) : config_(config) {
  config_.admission_queue = std::max<std::size_t>(config_.admission_queue, 1);
  publish_health(state_);
}

void HealthMonitor::note_queue_depth(std::size_t depth) {
  std::lock_guard<std::mutex> lock(mutex_);
  peak_depth_ = std::max(peak_depth_, depth);
}

void HealthMonitor::note_seal_us(std::uint64_t seal_us) {
  std::lock_guard<std::mutex> lock(mutex_);
  seal_ewma_us_ =
      seal_ewma_us_ == 0 ? seal_us : (seal_ewma_us_ * 7 + seal_us) / 8;
}

void HealthMonitor::note_slo_lag(std::uint64_t lag_epochs) {
  std::lock_guard<std::mutex> lock(mutex_);
  slo_lag_ = std::max(slo_lag_, lag_epochs);
}

void HealthMonitor::note_sheds(std::size_t count) {
  std::lock_guard<std::mutex> lock(mutex_);
  sheds_ += count;
}

HealthState HealthMonitor::evaluate(std::uint64_t now_us) {
  std::lock_guard<std::mutex> lock(mutex_);
  const double fraction =
      static_cast<double>(peak_depth_) /
      static_cast<double>(config_.admission_queue);
  int level = 0;
  if (fraction >= config_.shed_queue_fraction) {
    level = 2;
  } else if (fraction >= config_.degrade_queue_fraction ||
             (config_.degrade_seal_us > 0 &&
              seal_ewma_us_ > config_.degrade_seal_us) ||
             (config_.slo_lag_epochs > 0 &&
              slo_lag_ >= config_.slo_lag_epochs) ||
             sheds_ > 0) {
    // Shed pressure bootstraps degraded even at zero queue depth: the
    // queue only fills once coalescing starts, so a token-bucket burst is
    // the first overload signal the monitor ever sees.
    level = 1;
  }

  const int current = static_cast<int>(state_);
  if (level >= current) {
    // Pressure at or above the current state: stay (or escalate
    // immediately) and restart the recovery dwell.
    calm_anchor_set_ = true;
    calm_since_us_ = now_us;
    if (level > current) {
      state_ = static_cast<HealthState>(level);
      publish_health(state_);
      static auto& transitions = telemetry::Registry::global().counter(
          "server.overload.health_transitions",
          "HealthMonitor state changes (either direction)");
      if (telemetry::enabled()) transitions.add(1);
    }
  } else {
    if (!calm_anchor_set_) {
      calm_anchor_set_ = true;
      calm_since_us_ = now_us;
    } else if (now_us - calm_since_us_ >= config_.recover_dwell_us) {
      // One level at a time: shedding cools to degraded (still batching)
      // before anything goes back to immediate rekeying.
      state_ = static_cast<HealthState>(current - 1);
      calm_since_us_ = now_us;
      publish_health(state_);
      static auto& transitions = telemetry::Registry::global().counter(
          "server.overload.health_transitions",
          "HealthMonitor state changes (either direction)");
      if (telemetry::enabled()) transitions.add(1);
    }
  }

  peak_depth_ = 0;
  slo_lag_ = 0;
  sheds_ = 0;
  return state_;
}

HealthState HealthMonitor::state() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_;
}

Gate::Gate(const OverloadConfig& config, std::size_t lanes)
    : config_(config),
      admission_(config, lanes),
      health_(config),
      lanes_(std::max<std::size_t>(lanes, 1)) {}

GateResult Gate::offer(std::size_t lane, UserId user, bool join, bool member,
                       std::uint64_t now_us) {
  GateResult result;
  const std::lock_guard<std::mutex> lock(mutex_);
  if (const auto it = buffered_.find(user); it != buffered_.end()) {
    // An identical re-offer rides the buffered op. A conflicting one (a
    // rejoin while the leave is buffered, or a leave before the join has
    // flushed) must wait for the flush's rekey: shed it past the tick.
    if (it->second != join) {
      result.action = Admission::kShed;
      result.retry_after_us = config_.degraded_batch_period_us;
    } else {
      result.action = Admission::kCoalesce;
    }
    return result;
  }
  if (join && member) return result;  // duplicate join: cheap no-op
  if (!join && !member) {
    result.denied = true;  // matches leave_with_token's non-member answer
    return result;
  }
  const Decision decision = admission_.admit(lane, now_us, health_.state());
  result.action = decision.action;
  result.retry_after_us = decision.retry_after_us;
  if (decision.action == Admission::kCoalesce) {
    buffered_.emplace(user, join);
    LaneBuffer& buffer = lanes_.at(lane);
    (join ? buffer.joins : buffer.leaves).push_back({user, now_us});
  }
  return result;
}

void Gate::note_seal(std::size_t lane, std::uint64_t seal_us,
                     std::uint64_t now_us) {
  health_.note_seal_us(seal_us);
  admission_.note_seal(lane, seal_us, now_us);
}

OverloadTick Gate::poll(
    std::uint64_t now_us, const std::function<bool(UserId)>& is_member,
    const std::function<std::vector<UserId>(const std::vector<UserId>&,
                                            const std::vector<UserId>&)>&
        batch) {
  OverloadTick tick;
  if (!config_.enabled) return tick;
  health_.note_sheds(admission_.take_sheds());
  health_.note_queue_depth(admission_.total_depth());
  if (config_.slo_lag_epochs > 0) {
    health_.note_slo_lag(telemetry::ConvergenceMonitor::global().max_lag());
  }
  health_.evaluate(now_us);

  std::vector<LaneBuffer> drained;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (buffered_.empty()) return tick;
    const bool full = std::any_of(
        lanes_.begin(), lanes_.end(), [&](const LaneBuffer& buffer) {
          return buffer.joins.size() + buffer.leaves.size() >=
                 config_.admission_queue;
        });
    if (now_us < next_flush_us_ && !full) return tick;
    next_flush_us_ = now_us + config_.degraded_batch_period_us;
    drained.resize(lanes_.size());
    drained.swap(lanes_);
    for (std::size_t lane = 0; lane < drained.size(); ++lane) {
      admission_.release(
          lane, drained[lane].joins.size() + drained[lane].leaves.size());
    }
    buffered_.clear();
  }

  // Filtering and batch() run with mutex_ dropped: the membership callback
  // and batch() take the servers' own locks, and offers from other
  // threads never wait on a flush.
  static auto& deadline_shed = telemetry::Registry::global().counter(
      "server.overload.deadline_shed",
      "Buffered ops shed because they waited past shed_deadline_us");
  const auto expired = [&](const BufferedOp& op) {
    return config_.shed_deadline_us > 0 && now_us > op.offered_us &&
           now_us - op.offered_us > config_.shed_deadline_us;
  };
  const std::uint64_t period = config_.degraded_batch_period_us;
  std::vector<UserId> joins;
  std::vector<UserId> leaves;
  for (const LaneBuffer& buffer : drained) {
    for (const BufferedOp& op : buffer.joins) {
      if (expired(op)) {
        tick.shed.push_back({op.user, true, period});
        if (telemetry::enabled()) deadline_shed.add(1);
      } else if (!is_member(op.user)) {
        // A direct join may have raced the buffer (e.g. a resumed client
        // went around the gate).
        joins.push_back(op.user);
      }
    }
    for (const BufferedOp& op : buffer.leaves) {
      if (expired(op)) {
        tick.shed.push_back({op.user, false, period});
        if (telemetry::enabled()) deadline_shed.add(1);
      } else if (is_member(op.user)) {
        leaves.push_back(op.user);
      }
    }
  }
  if (!joins.empty() || !leaves.empty()) {
    tick.joined = batch(joins, leaves);
    tick.flushed = true;
  }
  return tick;
}

}  // namespace keygraphs::server::overload
