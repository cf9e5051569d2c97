// Server specification files (paper Section 5: "The server is initialized
// from a specification file which determines the initial group size, the
// rekeying strategy, the key tree degree, the encryption algorithm, the
// message digest algorithm, the digital signature algorithm, etc.").
//
// Plain key = value lines, '#' comments. Recognized keys:
//   degree        = 4 | star
//   strategy      = user | key | group | hybrid
//   cipher        = des | 3des | aes128
//   digest        = none | md5 | sha1 | sha256
//   signature     = none | rsa512 | rsa768 | rsa1024 | rsa2048
//   signing       = none | digest | per-message | batch
//   group         = <u32 group id>
//   seed          = <u64; 0 = OS entropy>
//   seal_threads  = <1..256 threads for the seal (crypto) phase; 1 = serial>
//   auth_master   = <hex shared secret for the simulated auth service>
//   initial_size  = <users to admit at startup (user ids 1..n)>
//   port          = <udp port for the daemon; 0 = ephemeral>
//   acl           = all | <comma-separated user ids>
//   telemetry     = off | json | prom   (periodic metrics dump format)
//   telemetry_period = <seconds between dumps; 0 = only on SIGUSR1>
//   telemetry_http_port = <loopback HTTP scrape endpoint serving /metrics,
//                          /healthz and /trace; 0 = ephemeral port; absent
//                          = no endpoint>
//   trace_propagation = on | off   (stamp rekeys with trace contexts and
//                                   carry them on the wire; default off)
//   convergence_slo_us = <fleet convergence SLO in microseconds; samples
//                         above it count as fleet.slo_violations; 0 = off>
//   schedule_cache_capacity = <1..1048576 cached wrapping-key schedules in
//                              the seal executor (per shard lane when the
//                              server is sharded); default 8192>
//   client_schedule_cache_capacity = <1..1048576 cached unwrap schedules
//                                     handed to clients at admission;
//                                     default 64>
//   storage       = none | memory | file   (write-ahead journal backend;
//                   default none. file requires journal_dir)
//   journal_dir   = <directory for the file journal + snapshots; created
//                    if absent>
//   snapshot_interval = <journal records between compacted snapshots;
//                        0 = never compact; default 1024>
//   overload      = on | off   (overload control: bounded admission, load
//                   shedding with kRetryLater, and degraded-mode batch
//                   coalescing; default off = byte-identical wire output)
//   admission_queue = <1..1048576 coalesced ops buffered per admission
//                      lane before requests are shed; default 1024>
//   shed_deadline_us = <buffered ops older than this at flush time are
//                       shed instead of batched; 0 = no deadline;
//                       default 250000>
//   degraded_batch_period_us = <degraded-mode flush tick; default 100000>
//   admission_rate  = <token-bucket admissions per lane per second;
//                      0 = unlimited; default 0>
//   admission_burst = <token-bucket burst capacity; default 64>
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "server/server.h"

namespace keygraphs::server {

/// How (and whether) the daemon dumps telemetry snapshots.
enum class TelemetryFormat {
  kOff,         ///< telemetry disabled entirely (zero-cost hot paths)
  kJson,        ///< JSON-lines snapshots on stderr
  kPrometheus,  ///< Prometheus text exposition on stderr
};

/// A parsed specification: the server configuration plus daemon-level
/// settings that are not part of ServerConfig proper.
struct ServerSpec {
  ServerConfig config;
  std::size_t initial_size = 0;
  std::uint16_t port = 0;
  /// nullopt = allow all; otherwise the explicit allow list.
  std::optional<std::vector<UserId>> acl;
  TelemetryFormat telemetry = TelemetryFormat::kOff;
  /// Seconds between periodic dumps; 0 disables the timer (SIGUSR1 still
  /// triggers a dump whenever telemetry != off).
  std::uint32_t telemetry_period_s = 10;
  /// Loopback HTTP scrape endpoint port; engaged when present (0 binds an
  /// ephemeral port, printed at startup), absent = no endpoint.
  std::optional<std::uint16_t> telemetry_http_port;
  /// Fleet convergence SLO in microseconds; 0 disables the check.
  std::uint64_t convergence_slo_us = 0;
  /// Unwrap ScheduleCache capacity the deployment hands to clients at
  /// admission (ClientConfig::schedule_cache_capacity). Not part of
  /// ServerConfig — the server never unwraps — but specified centrally so
  /// a fleet rollout sizes every member identically.
  std::size_t client_schedule_cache_capacity = 64;

  [[nodiscard]] AccessControl access_control() const {
    return acl.has_value() ? AccessControl::allow_list(*acl)
                           : AccessControl::allow_all();
  }
};

/// Parses specification text. Unknown keys and malformed values throw
/// ProtocolError naming the offending line.
ServerSpec parse_server_spec(std::string_view text);

/// Convenience: read and parse a file. Throws Error if unreadable.
ServerSpec load_server_spec(const std::string& path);

}  // namespace keygraphs::server
