// One fully-specified adversarial run, executable and serializable.
//
// A ScenarioSpec pins everything a run depends on — workload, crew size,
// variant, machine seed, memory model, scheduler, fault script, oracle
// cadence, own-step bound — so that executing it twice produces the same
// behavior op-for-op on the simulator.  That determinism is what turns a
// found failure into a *repro*: the searching adversary, the fuzzer, the
// shrinker, `wfsort replay`, and the tests all drive this one runner.
//
// The native substrate runs real threads and therefore replays the same
// *configuration*, not the same interleaving; native artifacts are
// best-effort repros (re-run them a few times), which the replay report
// says explicitly.
#pragma once

#include <cstdint>
#include <string>

#include "common/json.h"
#include "exp/workloads.h"
#include "pram/machine.h"
#include "pramsort/det_programs.h"
#include "runtime/fault_script.h"
#include "runtime/sched_family.h"

namespace wfsort::runtime {

enum class Substrate : std::uint8_t { kSim, kNative };
enum class SortKind : std::uint8_t { kDet, kLc };
// Native deterministic phase-1 strategy (Options::phase1).  The simulator
// and the low-contention variant ignore it.
enum class Phase1Kind : std::uint8_t { kTree, kPartition };

struct ScenarioSpec {
  Substrate substrate = Substrate::kSim;

  // Workload.
  std::uint64_t n = 256;
  exp::Dist dist = exp::Dist::kShuffled;
  std::uint64_t workload_seed = 1;

  // Crew and variant.
  std::uint32_t procs = 16;  // simulator processors / native worker threads
  SortKind variant = SortKind::kDet;
  // Phase-3 pruning rule.  The simulator runs all three; the native engine
  // has one rule, kCompleted (native_spec_error).
  sim::PlacePrune prune = sim::PlacePrune::kCompleted;
  bool random_first = false;
  Phase1Kind phase1 = Phase1Kind::kTree;

  // Simulator machine + schedule.
  std::uint64_t machine_seed = 0x9a7a1e5ed0c0ffeeULL;
  pram::MemoryModel memory = pram::MemoryModel::kCrcw;
  std::uint64_t max_rounds = 0;  // 0 = default_round_cap()
  SchedSpec sched;
  // Real threads sharding the round engine.  Deliberately NOT serialized
  // into scenario/artifact JSON: observables are bit-identical at any value
  // (tests/test_determinism.cpp), so it is a property of the run host, not
  // of the scenario — an artifact recorded at 4 threads replays exactly on
  // a 1-thread machine and vice versa.
  std::uint32_t sim_threads = 1;

  // Native engine randomness (Options::seed).
  std::uint64_t sort_seed = 0x50535a97ULL;

  // The adversary.
  FaultScript script;

  // Mid-run oracle cadence in rounds (0 disables; simulator + kDet only).
  std::uint64_t oracle_period = 64;

  // When nonzero, certify wait-freedom numerically: every processor that
  // finishes must have taken at most this many of its own steps (simulator
  // memory operations / native checkpoints).
  std::uint64_t own_step_bound = 0;
};

enum class FailureKind : std::uint8_t {
  kNone,       // scenario passed every check
  kHang,       // survivors existed but the run hit the round cap / no worker
               // completed — the wait-freedom completion guarantee failed
  kUnsorted,   // output is not the sorted permutation of the input
  kValidation, // a post-run structural invariant is violated (tree/size/place)
  kOracle,     // the mid-run oracle caught corrupted shared state
  kOwnStep,    // a finishing processor exceeded the certified own-step bound
};

const char* failure_kind_name(FailureKind k);
bool parse_failure_kind(const std::string& name, FailureKind* out);

struct ScenarioResult {
  FailureKind failure = FailureKind::kNone;
  std::string detail;  // human-readable specifics of the violation

  // Run accounting (simulator runs; zeros for native).
  std::uint64_t rounds = 0;
  std::uint64_t total_ops = 0;
  std::size_t max_contention = 0;
  // Worst own-step count over processors that finished (both substrates).
  std::uint64_t max_finish_steps = 0;

  // The run's unified stats document ("wfsort-stats-v1", telemetry/schema.h):
  // pram::Metrics for simulated runs, SortStats + full-level telemetry for
  // native ones.  Embedded in failure artifacts so replay can diff observed
  // contention against the original run.
  Json stats;

  // Post-mortem flight-recorder rings of the fault script's kill victims
  // (array of {tid, total_events, events}; null when the script kills
  // nobody).  Simulated rings are stamped with round numbers and replay
  // byte-identically; native rings are copied out of the stats document and
  // carry best-effort wall-clock times.
  Json rings{};

  bool ok() const { return failure == FailureKind::kNone; }
};

// The round cap used when spec.max_rounds == 0: generous enough for the
// fully-serial schedule with every scripted crash, far below "hung forever".
std::uint64_t default_round_cap(const ScenarioSpec& spec);

// Why the native engine cannot run `spec`, or "" if it can (sim specs
// always can).  The native engine prunes phase 3 one way only, on the
// bottom-up completion flag: a native spec must ask for kCompleted.
std::string native_spec_error(const ScenarioSpec& spec);

// Execute the scenario and judge it.  The spec's script must be concrete and
// valid for its crew, and a native spec must pass native_spec_error
// (WFSORT_CHECK enforced) — use FaultScript::validate before calling on
// untrusted input.
ScenarioResult run_scenario(const ScenarioSpec& spec);

// ---- Failure artifacts ----

struct ReplayArtifact {
  ScenarioSpec spec;
  FailureKind failure = FailureKind::kNone;
  std::string detail;
  // Stats document of the original failing run (null when the artifact
  // predates telemetry); `wfsort replay` diffs a re-run against this.
  Json observed;
  // Kill victims' post-mortem rings (ScenarioResult::rings; optional —
  // absent in artifacts that predate the flight recorder).
  Json rings{};
};

Json spec_to_json(const ScenarioSpec& spec);
bool spec_from_json(const Json& j, ScenarioSpec* out, std::string* error);

std::string artifact_to_text(const ReplayArtifact& a);
bool artifact_from_text(const std::string& text, ReplayArtifact* out, std::string* error);

bool write_artifact(const ReplayArtifact& a, const std::string& path);
bool load_artifact(const std::string& path, ReplayArtifact* out, std::string* error);

struct ReplayOutcome {
  ScenarioResult result;
  bool reproduced = false;  // replay failed with the artifact's failure kind
  bool exact = false;       // ... and the identical detail string
};

// Re-execute the artifact's scenario and compare against its recorded
// failure.
ReplayOutcome replay(const ReplayArtifact& a);

}  // namespace wfsort::runtime
