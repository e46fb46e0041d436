// The searching adversary: probe, sweep, shrink.
//
// Wait-freedom claims are universally quantified — "under every schedule and
// failure pattern" — so testing them takes an adversary that *looks for*
// the pattern that breaks the algorithm instead of replaying a fixed one.
// The pipeline here:
//
//   1. probe_scenario() runs the spec once, faultless, with a tracer that
//      watches the sort's memory regions, and records where the interesting
//      moments landed: phase-2/phase-3 entry rounds, the first and last
//      WAT done-mark write, every successful child-pointer install CAS.
//   2. resolve_script() turns a symbolic script (events keyed to those
//      moments) into a concrete round-keyed one.
//   3. search_for_violation() sweeps structured scripts (kills and stalls
//      aimed at each landmark, in all-but-one / half-crew / single-victim /
//      crash-and-revive patterns) plus randomized scripts, under every
//      scheduler family, until a scenario fails or the budget runs out.
//      The first failure is packaged as a ReplayArtifact.
//   4. shrink_artifact() delta-debugs a failing artifact: drop events
//      (ddmin), then pull triggers earlier, keeping any script that still
//      fails with the same FailureKind.  The result replays like the
//      original but with the smallest script the search could certify.
//
// Symbolic landmarks are defined for the deterministic simulator sort; for
// the LC variant and the native engine the sweep still runs, using
// probe-independent round placements.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "runtime/scenario.h"

namespace wfsort::runtime {

struct ProbeReport {
  std::uint64_t rounds = 0;             // faultless run length
  std::uint64_t phase2_entry = 0;       // round of the first size-region write
  std::uint64_t phase3_entry = 0;       // round of the first place-region write
  std::uint64_t first_wat_claim = 0;    // first WAT done-mark write
  std::uint64_t last_wat_claim = 0;     // last WAT done-mark write
  std::vector<std::uint64_t> cas_install_rounds;  // successful child installs
};

// Run `spec` once with no faults, tracing the deterministic sort's regions.
// The spec's script is ignored.  Requires substrate == kSim.
ProbeReport probe_scenario(const ScenarioSpec& spec);

// Replace symbolic triggers with concrete rounds using the probe's
// landmarks: phase entries and WAT claims add the event's `at` as a round
// offset; kInstallCas picks the `at`-th successful install (1-based,
// clamped to the last observed).  Already-concrete events pass through.
FaultScript resolve_script(const FaultScript& script, const ProbeReport& probe);

struct SearchOptions {
  std::uint64_t max_runs = 400;  // scenario executions across the whole sweep
  std::uint64_t seed = 0x5eedbadULL;  // randomized-script generator seed
  std::uint32_t random_scripts = 24;  // per scheduler family
  bool sweep_schedulers = true;  // try all families, not just spec.sched
};

struct SearchStats {
  std::uint64_t runs = 0;     // scenarios executed
  std::uint64_t probes = 0;   // probe runs
  std::uint64_t scripts = 0;  // candidate scripts generated
  std::uint64_t failures = 0; // scenarios that violated a check

  // Progress attributed to each scheduler family swept, in sweep order, so
  // a long hunt can report where its budget went and which family found
  // the failure.
  struct FamilyProgress {
    std::string family;
    std::uint64_t runs = 0;
    std::uint64_t scripts = 0;
    std::uint64_t failures = 0;
  };
  std::vector<FamilyProgress> families;
  // The entry for `name`, appended on first use.
  FamilyProgress& family(const std::string& name);
};

// Search progress as a JSON document ("wfsort-search-v1"): totals plus the
// per-family breakdown.  `wfsort hunt --stats-json` writes this.
Json search_stats_json(const SearchStats& stats);

// Sweep scripts and schedules derived from `base` until one fails.  Returns
// true and fills *out with the failing artifact; false when the budget is
// exhausted with no violation (the certification outcome).
bool search_for_violation(const ScenarioSpec& base, const SearchOptions& opts,
                          ReplayArtifact* out, SearchStats* stats = nullptr);

struct ShrinkOptions {
  std::uint64_t max_runs = 300;  // replays spent shrinking
};

// Minimize a failing artifact: fewest events, then smallest triggers, such
// that the scenario still fails with the artifact's FailureKind.  Returns
// the minimized artifact (equal to the input when nothing smaller fails).
ReplayArtifact shrink_artifact(const ReplayArtifact& artifact, const ShrinkOptions& opts = {},
                               SearchStats* stats = nullptr);

// The structured placements search_for_violation derives from a probe;
// exposed for tests and the fuzzer.
std::vector<FaultScript> structured_scripts(std::uint32_t procs, const ProbeReport& probe);

// One randomized concrete script: 1-4 events, kills/sleeps/suspend+revive
// pairs at rounds within [1, horizon], always leaving a survivor.
FaultScript random_script(std::uint32_t procs, std::uint64_t horizon, Rng& rng);

}  // namespace wfsort::runtime
