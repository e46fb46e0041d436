// The unified stats JSON schema ("wfsort-stats-v1") — one document shape for
// both substrates, so tools, scripts and CI read the same keys whether
// a run went through the native engine or the PRAM simulator.
//
// Top-level keys (all always present; see docs/observability.md):
//   schema      "wfsort-stats-v1"
//   substrate   "native" | "sim"
//   build_type  "release" | "debug" — provenance of the producing binary
//   config      run parameters (variant, n, threads/procs, seed, knobs)
//   totals      scalar outcomes (wall_ms, workers, rounds, ...)
//   phases      array of {name, max_ms, total_ms, workers} — empty for sim
//   counters    named event counts (object; key set depends on substrate/level)
//   histograms  named histogram objects ({kind, total, counts, ...})
//   contention  max-contention value plus per-site/per-region attribution
#pragma once

#include <cstdint>
#include <string>

#include "common/json.h"
#include "telemetry/report.h"

namespace pram {
class Metrics;
struct CommitStats;
}

namespace wfsort {
struct Options;
struct SortStats;
}

namespace wfsort::telemetry {

inline constexpr const char kStatsSchema[] = "wfsort-stats-v1";
inline constexpr const char kMonitorSchema[] = "wfsort-monitor-v1";

// "release" or "debug", from the NDEBUG the telemetry library itself was
// compiled with.  Stamped into every stats document and monitor header so a
// committed artifact carries its provenance — a debug-build number is not a
// number.
const char* build_type_name();

// Config echo for a native run; fill by hand or from Options via
// native_run_info().
struct NativeRunInfo {
  std::string variant;  // "det" | "lc"
  std::uint64_t n = 0;
  std::uint32_t threads = 0;
  std::uint64_t seed = 0;
  std::uint32_t wat_batch = 0;
  std::uint64_t seq_cutoff = 0;
  std::uint32_t lc_copies = 0;
  std::string phase1;  // "tree" | "partition"
  Level level = Level::kOff;
};

NativeRunInfo native_run_info(const Options& opts, std::uint64_t n);

// Config echo for a simulated run.
struct SimRunInfo {
  std::string program;  // e.g. "det_sort", "lc_sort", "wat"
  std::uint64_t n = 0;
  std::uint32_t procs = 0;
  std::string sched;
  std::uint64_t seed = 0;
  std::uint32_t sim_threads = 1;  // round-engine shards (config.engine = "par" when > 1)
};

// Log2 histogram -> {"kind":"log2", total, sum, max, mean, counts:[...]}
// (counts trimmed to the last nonzero bucket).
Json histogram_json(const LogHistogram& h);

// Latency sketch quantile summary -> {"kind":"loglin", sub_bits, count,
// sum, max_us, mean_us, p50_us, p99_us, p999_us}.  Quantiles carry the
// sketch's documented relative error (LatencySketch::kRelativeError).
Json sketch_json(const LatencySketch& sk);

// One flight-recorder event -> {"t", "kind", "a8", "a32", "value", "tid"}
// (kind rendered by name; see ring.h for the per-kind payload table).
Json flight_event_json(const FlightEvent& e);

// One native run.  Everything but the worker counts and the tree depth is
// read off stats.telemetry (per-phase spans, counters, histograms at
// Level::kFull); a run with no Report (N <= 1) exports empty sections.
Json native_stats_json(const NativeRunInfo& info, const SortStats& stats);

// One simulated run, from the machine's Metrics.  When `commit` is given and
// the run used the sharded round engine, the document additionally carries
// the "sim_commit" counter group (per-phase nanoseconds and round counts of
// the two-phase commit) and one phase span per shard ("shard<i>", busy time
// across all round phases).
Json sim_stats_json(const SimRunInfo& info, const pram::Metrics& metrics,
                    const pram::CommitStats* commit = nullptr);

// Structural validation of a stats document (schema name, required keys,
// key types).  Returns false and sets *error on the first violation.
// `require_release`: additionally reject documents whose build_type is
// missing or not "release" (the provenance gate a committed artifact must
// pass).
bool validate_stats_json(const Json& doc, std::string* error,
                         bool require_release = false);

// Structural validation of a whole "wfsort-monitor-v1" JSONL file (the live
// monitor's output; monitor.h documents the record stream).  A file holds
// one or more sessions, each a "header" record followed by its "sample"
// records; every header must carry build_type provenance exactly like a
// stats document (`require_release` rejects missing/non-release values).
bool validate_monitor_jsonl(const std::string& text, std::string* error,
                            bool require_release = false);

}  // namespace wfsort::telemetry
