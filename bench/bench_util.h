// Shared helpers for the paper-reproduction benchmark binaries.
//
// Scale knobs come from the environment so `for b in build/bench/*; do $b;
// done` finishes in minutes while `KG_REQUESTS=1000 KG_CLIENT_SIZE=8192 ...`
// reproduces the paper's exact scale:
//   KG_REQUESTS      churn requests per experiment (paper: 1000)
//   KG_SEEDS         request sequences averaged per data point (paper: 3)
//   KG_GROUP_SIZE    initial group size for fixed-size tables (paper: 8192)
//   KG_CLIENT_SIZE   initial size for client-attached runs (paper: 8192)
//   KG_BENCH_JSON    file to append per-point JSON lines to (default stdout)
#pragma once

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <string>
#include <thread>
#include <utility>

#include "crypto/cpu_features.h"
#include "sim/experiment.h"
#include "sim/table.h"
#include "telemetry/stage.h"

namespace keygraphs::bench {

inline std::size_t env_size(const char* name, std::size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return static_cast<std::size_t>(std::strtoull(value, nullptr, 10));
}

inline std::size_t requests() { return env_size("KG_REQUESTS", 1000); }
inline std::size_t seeds() { return env_size("KG_SEEDS", 3); }
inline std::size_t group_size() { return env_size("KG_GROUP_SIZE", 8192); }
inline std::size_t client_size() { return env_size("KG_CLIENT_SIZE", 2048); }

/// Server summaries of one configuration over several seeds (the paper
/// averages three request sequences per point): means, plus the min-max
/// of the per-seed mean processing time.
struct AveragedResult {
  sim::ExperimentResult result;  // client fields from the last seed
  double join_ms = 0.0;
  double leave_ms = 0.0;
  double all_ms = 0.0;
  double min_ms = 0.0;  // lowest per-seed all_ms
  double max_ms = 0.0;  // highest per-seed all_ms
  /// Per-stage self time in microseconds, averaged over ops and seeds.
  telemetry::StageBreakdown stage_us{};
  std::size_t seeds = 0;

  /// Sum of the measured stages (auth excluded — the paper's processing
  /// time excludes authentication, Section 5).
  [[nodiscard]] double stage_sum_us() const {
    double sum = 0.0;
    for (std::size_t i = 0; i < telemetry::kStageCount; ++i) {
      if (static_cast<telemetry::Stage>(i) == telemetry::Stage::kAuth) {
        continue;
      }
      sum += stage_us[i];
    }
    return sum;
  }

  /// Folds in one seed's run; finish() turns the sums into means.
  void add(sim::ExperimentResult run) {
    const double ms = run.all.avg_processing_ms;
    min_ms = seeds == 0 ? ms : std::min(min_ms, ms);
    max_ms = seeds == 0 ? ms : std::max(max_ms, ms);
    join_ms += run.join.avg_processing_ms;
    leave_ms += run.leave.avg_processing_ms;
    all_ms += ms;
    for (std::size_t i = 0; i < telemetry::kStageCount; ++i) {
      stage_us[i] += run.all.avg_stage_us[i];
    }
    result = std::move(run);
    ++seeds;
  }

  void finish() {
    const auto n = static_cast<double>(seeds);
    join_ms /= n;
    leave_ms /= n;
    all_ms /= n;
    for (double& stage : stage_us) stage /= n;
  }
};

inline AveragedResult run_averaged(sim::ExperimentConfig config,
                                   std::size_t seed_count) {
  AveragedResult averaged;
  for (std::size_t seed = 1; seed <= seed_count; ++seed) {
    config.seed = seed;
    averaged.add(sim::run_experiment(config));
  }
  averaged.finish();
  return averaged;
}

inline const char* strategy_label(rekey::StrategyKind kind) {
  switch (kind) {
    case rekey::StrategyKind::kUserOriented:
      return "user";
    case rekey::StrategyKind::kKeyOriented:
      return "key";
    case rekey::StrategyKind::kGroupOriented:
      return "group";
    case rekey::StrategyKind::kHybrid:
      return "hybrid";
  }
  return "?";
}

/// Appends one pre-formatted JSON line to $KG_BENCH_JSON, or to stdout
/// when the variable is unset. `json` should not carry its own newline.
inline void emit_json_line(std::string json) {
  json += '\n';
  const char* path = std::getenv("KG_BENCH_JSON");
  if (path != nullptr && *path != '\0') {
    if (std::FILE* file = std::fopen(path, "a")) {
      std::fwrite(json.data(), 1, json.size(), file);
      std::fclose(file);
      return;
    }
  }
  std::fwrite(json.data(), 1, json.size(), stdout);
}

/// Emits the uniform one-per-binary JSON header: the bench name, the
/// host's hardware_concurrency, and any bench-specific thread/shard
/// configuration as extra integer fields. Every ablation bench emits
/// exactly one header line before its data points so downstream tooling
/// can normalise results by host shape without parsing free-form text.
inline void emit_header_json(
    const char* bench,
    std::initializer_list<std::pair<const char*, std::size_t>> config = {}) {
  std::string json = "{\"bench\":\"";
  json += bench;
  json += "\",\"header\":true,\"hardware_concurrency\":";
  json += std::to_string(std::thread::hardware_concurrency());
  // Which AES kernel the dispatcher picked (and why): results from a
  // hardware-kernel host and a table-fallback host must never be compared
  // without noticing.
  json += ",\"cpu_features\":" + crypto::cpu_features_json();
  for (const auto& [key, value] : config) {
    json += ",\"";
    json += key;
    json += "\":" + std::to_string(value);
  }
  json += "}";
  emit_json_line(std::move(json));
}

/// Appends one JSON line describing a benchmark data point — the averaged
/// processing time with its min-max across seeds, plus the per-stage
/// breakdown — to $KG_BENCH_JSON, or to stdout when the variable is unset.
inline void emit_point_json(const char* bench, bool signed_mode,
                            const char* x_key, std::size_t x_value,
                            rekey::StrategyKind strategy,
                            const AveragedResult& averaged) {
  std::string json = "{\"bench\":\"";
  json += bench;
  json += "\",\"signed\":";
  json += signed_mode ? "true" : "false";
  json += ",\"";
  json += x_key;
  json += "\":" + std::to_string(x_value);
  json += ",\"strategy\":\"";
  json += strategy_label(strategy);
  json += "\"";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), ",\"avg_ms\":%.6f", averaged.all_ms);
  json += buffer;
  std::snprintf(buffer, sizeof(buffer), ",\"min_ms\":%.6f,\"max_ms\":%.6f",
                averaged.min_ms, averaged.max_ms);
  json += buffer;
  std::snprintf(buffer, sizeof(buffer), ",\"processing_us\":%.3f",
                averaged.all_ms * 1000.0);
  json += buffer;
  json += ",\"stages_us\":{";
  for (std::size_t i = 0; i < telemetry::kStageCount; ++i) {
    std::snprintf(buffer, sizeof(buffer), "%s\"%s\":%.3f", i == 0 ? "" : ",",
                  telemetry::stage_name(static_cast<telemetry::Stage>(i)),
                  averaged.stage_us[i]);
    json += buffer;
  }
  std::snprintf(buffer, sizeof(buffer), "},\"stage_sum_us\":%.3f}",
                averaged.stage_sum_us());
  json += buffer;
  emit_json_line(std::move(json));
}

inline const std::array<rekey::StrategyKind, 3> kPaperStrategies = {
    rekey::StrategyKind::kUserOriented, rekey::StrategyKind::kKeyOriented,
    rekey::StrategyKind::kGroupOriented};

}  // namespace keygraphs::bench
