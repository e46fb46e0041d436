// Numeric wait-freedom certification (Theorem 1's promise, measured).
//
// The paper's claim is universally quantified: every processor that keeps
// taking steps finishes the sort within a bounded number of ITS OWN steps,
// no matter what the schedule does and no matter which other processors
// crash, stall, or revive.  These tests assert that bound numerically: for
// N in {256, 1024} and a crew of 16, every scheduler family crossed with
// every canned adversary family must leave every finishing processor at or
// under a certified own-step budget.
//
// The budget is C * N * ceil(log2 N) with C = 14, calibrated empirically:
// the worst measured case is the lone-survivor run, where one processor
// inherits the entire job (N=1024: 41179 own steps, N=256: 8503), and the
// budget keeps ~3.5x headroom over it.  A faultless 16-processor run uses
// under 4000 steps per processor at N=1024, so a regression that breaks the
// own-step bound (e.g. a helping loop that degrades to spinning) trips this
// long before it becomes a hang.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "exp/workloads.h"
#include "runtime/adversaries.h"
#include "runtime/scenario.h"
#include "runtime/sched_family.h"
#include "runtime/search.h"

namespace {

namespace rt = wfsort::runtime;

std::uint64_t ceil_log2(std::uint64_t n) {
  return std::bit_width(n - 1);
}

std::uint64_t certified_bound(std::uint64_t n) {
  return 14 * n * ceil_log2(n);
}

struct AdversaryCase {
  const char* name;
  rt::FaultScript script;
};

// The canned adversary families from DESIGN.md, sized for a crew of 16.
std::vector<AdversaryCase> adversary_cases(std::uint32_t procs) {
  return {
      {"faultless", rt::FaultScript{}},
      {"fail-stop-half", rt::fail_stop_at_round(64, procs / 2, procs - 1)},
      {"single-survivor", rt::single_survivor(128, 0, procs)},
      {"crash-and-revive-half", rt::crash_and_revive(64, 192, procs / 2, procs - 1)},
      {"staggered-kills", rt::staggered_kills(32, 48, procs, 4)},
  };
}

void certify(std::uint64_t n, std::uint32_t sim_threads = 1) {
  constexpr std::uint32_t kProcs = 16;
  const std::uint64_t bound = certified_bound(n);

  rt::ScenarioSpec spec;
  spec.substrate = rt::Substrate::kSim;
  spec.n = n;
  spec.procs = kProcs;
  spec.variant = rt::SortKind::kDet;
  spec.own_step_bound = bound;
  spec.sim_threads = sim_threads;

  for (const rt::SchedSpec& sched : rt::all_sched_specs(kProcs, 0xce27u)) {
    for (const AdversaryCase& adv : adversary_cases(kProcs)) {
      spec.sched = sched;
      spec.script = adv.script;
      ASSERT_TRUE(spec.script.validate(kProcs).empty());
      const rt::ScenarioResult res = rt::run_scenario(spec);
      EXPECT_TRUE(res.ok())
          << "n=" << n << " sched=" << rt::sched_family_name(sched.family)
          << " adversary=" << adv.name << " failed ("
          << rt::failure_kind_name(res.failure) << "): " << res.detail;
      EXPECT_GT(res.max_finish_steps, 0u)
          << "n=" << n << " sched=" << rt::sched_family_name(sched.family)
          << " adversary=" << adv.name << ": nobody finished";
      EXPECT_LE(res.max_finish_steps, bound);
    }
  }
}

TEST(WaitFreeCert, EveryScheduleAndAdversaryAtN256) {
  certify(256);
}

TEST(WaitFreeCert, EveryScheduleAndAdversaryAtN1024) {
  certify(1024);
}

// The same universal sweep through the sharded round engine: wait-freedom
// certification is about observables, and sim_threads must not change one.
TEST(WaitFreeCert, EveryScheduleAndAdversaryAtN256Parallel) {
  certify(256, /*sim_threads=*/4);
}

// Per-scenario accounting must be identical between engines, not merely
// within the bound: every scheduler family crossed with every adversary
// yields the same round count, op count, contention, and own-step maximum
// at 4 threads as at 1.
TEST(WaitFreeCert, ParallelEngineAccountingMatchesSequential) {
  constexpr std::uint32_t kProcs = 16;
  rt::ScenarioSpec spec;
  spec.substrate = rt::Substrate::kSim;
  spec.n = 256;
  spec.procs = kProcs;
  spec.own_step_bound = certified_bound(spec.n);
  for (const rt::SchedSpec& sched : rt::all_sched_specs(kProcs, 0xce27u)) {
    for (const AdversaryCase& adv : adversary_cases(kProcs)) {
      spec.sched = sched;
      spec.script = adv.script;
      spec.sim_threads = 1;
      const rt::ScenarioResult seq = rt::run_scenario(spec);
      spec.sim_threads = 4;
      const rt::ScenarioResult par = rt::run_scenario(spec);
      const std::string label = std::string(rt::sched_family_name(sched.family)) + "/" +
                                adv.name;
      EXPECT_EQ(seq.failure, par.failure) << label;
      EXPECT_EQ(seq.detail, par.detail) << label;
      EXPECT_EQ(seq.rounds, par.rounds) << label;
      EXPECT_EQ(seq.total_ops, par.total_ops) << label;
      EXPECT_EQ(seq.max_contention, par.max_contention) << label;
      EXPECT_EQ(seq.max_finish_steps, par.max_finish_steps) << label;
    }
  }
}

// A failure artifact recorded under the parallel engine is byte-for-byte
// the artifact the sequential engine records (sim_threads is a host
// property, deliberately absent from the serialized spec), and it replays
// to the exact recorded failure under either engine.
TEST(WaitFreeCert, ReplayArtifactRoundTripsAcrossEngines) {
  rt::ScenarioSpec spec;
  spec.substrate = rt::Substrate::kSim;
  spec.n = 256;
  spec.procs = 16;
  spec.script = rt::staggered_kills(32, 48, spec.procs, 4);
  // A bound below the faultless per-processor cost fails deterministically,
  // giving the artifact a real FaultScript and a real failure to carry.
  spec.own_step_bound = 16;

  auto make_artifact = [&spec](std::uint32_t sim_threads) {
    rt::ScenarioSpec s = spec;
    s.sim_threads = sim_threads;
    const rt::ScenarioResult res = rt::run_scenario(s);
    EXPECT_EQ(res.failure, rt::FailureKind::kOwnStep) << "t=" << sim_threads;
    rt::ReplayArtifact a;
    a.spec = s;
    a.failure = res.failure;
    a.detail = res.detail;
    // observed stays null: the stats document embeds wall-clock shard spans,
    // which are the one legitimately nondeterministic part of a run.
    return a;
  };
  const rt::ReplayArtifact seq = make_artifact(1);
  const rt::ReplayArtifact par = make_artifact(4);
  EXPECT_EQ(rt::artifact_to_text(seq), rt::artifact_to_text(par));

  const std::string path = ::testing::TempDir() + "/wfsort_par_repro.json";
  ASSERT_TRUE(rt::write_artifact(par, path));
  rt::ReplayArtifact loaded;
  std::string error;
  ASSERT_TRUE(rt::load_artifact(path, &loaded, &error)) << error;
  EXPECT_EQ(rt::artifact_to_text(loaded), rt::artifact_to_text(par));

  // Replay the loaded artifact under both engines; each must reproduce the
  // recorded failure exactly (kind and detail).
  for (std::uint32_t t : {1u, 4u}) {
    loaded.spec.sim_threads = t;
    const rt::ReplayOutcome outcome = rt::replay(loaded);
    EXPECT_TRUE(outcome.reproduced) << "t=" << t;
    EXPECT_TRUE(outcome.exact) << "t=" << t;
  }
}

// Post-mortem flight rings: a sim scenario with staggered kills freezes each
// victim's last events into the result, stamped with round numbers — so two
// identical runs serialize byte-for-byte, and the last event in every ring
// is the kill fault marker itself.
TEST(WaitFreeCert, PostMortemRingsAreByteStableAndEndAtTheKill) {
  rt::ScenarioSpec spec;
  spec.substrate = rt::Substrate::kSim;
  spec.n = 256;
  spec.procs = 16;
  spec.script = rt::staggered_kills(32, 48, spec.procs, 4);
  spec.own_step_bound = certified_bound(spec.n);

  const rt::ScenarioResult first = rt::run_scenario(spec);
  const rt::ScenarioResult second = rt::run_scenario(spec);
  ASSERT_FALSE(first.rings.is_null());
  EXPECT_EQ(first.rings.dump_compact(), second.rings.dump_compact());

  const auto& rings = first.rings.items();
  EXPECT_EQ(rings.size(), spec.script.killed_targets().size());
  for (const wfsort::Json& ring : rings) {
    const auto& events = ring.at("events").items();
    ASSERT_FALSE(events.empty());
    const wfsort::Json& last = events.back();
    EXPECT_EQ(last.at("kind").as_string(), "fault");
    EXPECT_EQ(last.at("a8").as_u64(), 0u);  // FaultCode::kKill
    // Round stamps within one worker's ring are strictly increasing.
    std::uint64_t prev = 0;
    bool have_prev = false;
    for (const wfsort::Json& e : events) {
      const std::uint64_t t = e.at("t").as_u64();
      if (have_prev) {
        EXPECT_GT(t, prev);
      }
      prev = t;
      have_prev = true;
    }
  }
}

// The lone-survivor scenario is the bound's worst case: one processor must
// absorb the whole job.  Pin it explicitly so the calibration (and any
// future constant change) is anchored to the scenario that actually
// dominates.
TEST(WaitFreeCert, LoneSurvivorIsWithinBoundAndDominatesFaultless) {
  rt::ScenarioSpec spec;
  spec.n = 1024;
  spec.procs = 16;
  spec.own_step_bound = certified_bound(spec.n);

  const rt::ScenarioResult faultless = rt::run_scenario(spec);
  ASSERT_TRUE(faultless.ok()) << faultless.detail;

  spec.script = rt::single_survivor(4, 3, spec.procs);
  const rt::ScenarioResult lone = rt::run_scenario(spec);
  ASSERT_TRUE(lone.ok()) << rt::failure_kind_name(lone.failure) << ": " << lone.detail;
  // The survivor had to do (nearly) everything alone.
  EXPECT_GT(lone.max_finish_steps, faultless.max_finish_steps);
  EXPECT_LE(lone.max_finish_steps, certified_bound(spec.n));
}

// The bound is meaningful only if it is falsifiable: a bound below the
// faultless per-processor cost must be reported as an own-step violation,
// not silently accepted.
TEST(WaitFreeCert, BoundIsFalsifiable) {
  rt::ScenarioSpec spec;
  spec.n = 256;
  spec.procs = 16;
  spec.own_step_bound = 16;  // far below any real run's per-proc cost
  const rt::ScenarioResult res = rt::run_scenario(spec);
  EXPECT_EQ(res.failure, rt::FailureKind::kOwnStep);
}

// Native engine: the same numeric promise, measured in checkpoints.  Real
// threads are not deterministic, so this certifies the configuration rather
// than one interleaving; the bound uses the same calibrated form.
TEST(WaitFreeCert, NativeCheckpointBoundHolds) {
  rt::ScenarioSpec spec;
  spec.substrate = rt::Substrate::kNative;
  spec.n = 4096;
  spec.procs = 8;
  spec.own_step_bound = certified_bound(spec.n);
  const rt::ScenarioResult faultless = rt::run_scenario(spec);
  EXPECT_TRUE(faultless.ok()) << faultless.detail;

  spec.script = rt::fail_stop_at_round(32, 4, 7);
  const rt::ScenarioResult faulty = rt::run_scenario(spec);
  EXPECT_TRUE(faulty.ok())
      << rt::failure_kind_name(faulty.failure) << ": " << faulty.detail;
  EXPECT_GT(faulty.max_finish_steps, 0u);
}

// The blocked-partition phase 1 under the same calibrated bound: its three
// WAT-driven sweeps (classify, scatter, bucket-sort) replace the pivot-tree
// build, but the own-step promise is unchanged — every sweep is a
// fixed-size job pool claimed through the same batched WAT, so per-worker
// work stays O(N/P + log) per sweep and the 14 * N * ceil(log2 N) budget
// must hold with the identical margin discipline as the tree path.
// Sorted, reversed and organ-pipe input at 2^15 run the monotone classify
// and the run-merged bucket finish under the same bound.
TEST(WaitFreeCert, NativePartitionCheckpointBoundHolds) {
  using wfsort::exp::Dist;
  const std::pair<Dist, std::uint64_t> cases[] = {{Dist::kShuffled, 4096},
                                                  {Dist::kSorted, 1u << 15},
                                                  {Dist::kReversed, 1u << 15},
                                                  {Dist::kOrganPipe, 1u << 15}};
  for (const auto& [dist, n] : cases) {
    const std::string what =
        std::string(wfsort::exp::dist_name(dist)) + " n=" + std::to_string(n);
    rt::ScenarioSpec spec;
    spec.substrate = rt::Substrate::kNative;
    spec.n = n;
    spec.dist = dist;
    spec.procs = 8;
    spec.phase1 = rt::Phase1Kind::kPartition;
    spec.own_step_bound = certified_bound(spec.n);
    const rt::ScenarioResult faultless = rt::run_scenario(spec);
    EXPECT_TRUE(faultless.ok())
        << what << " " << rt::failure_kind_name(faultless.failure) << ": "
        << faultless.detail;
    EXPECT_LE(faultless.max_finish_steps, spec.own_step_bound) << what;

    spec.script = rt::fail_stop_at_round(32, 4, 7);
    const rt::ScenarioResult faulty = rt::run_scenario(spec);
    EXPECT_TRUE(faulty.ok())
        << what << " " << rt::failure_kind_name(faulty.failure) << ": " << faulty.detail;
    EXPECT_GT(faulty.max_finish_steps, 0u) << what;
    EXPECT_LE(faulty.max_finish_steps, spec.own_step_bound) << what;
  }
}

// The LC fast path under the same calibrated bound: probe bursts, line
// harvesting, the ALLDONE down-wave and the frontier fallback are all
// bounded per checkpoint poll, so the randomized variant's own-step count
// must stay inside the unchanged 14 * N * ceil(log2 N) budget — faultless
// and with half the crew failing mid-run.
TEST(WaitFreeCert, NativeLcCheckpointBoundHolds) {
  rt::ScenarioSpec spec;
  spec.substrate = rt::Substrate::kNative;
  spec.variant = rt::SortKind::kLc;
  spec.n = 4096;
  spec.procs = 8;
  spec.own_step_bound = certified_bound(spec.n);
  const rt::ScenarioResult faultless = rt::run_scenario(spec);
  EXPECT_TRUE(faultless.ok())
      << rt::failure_kind_name(faultless.failure) << ": " << faultless.detail;

  spec.script = rt::fail_stop_at_round(32, 4, 7);
  const rt::ScenarioResult faulty = rt::run_scenario(spec);
  EXPECT_TRUE(faulty.ok())
      << rt::failure_kind_name(faulty.failure) << ": " << faulty.detail;
  EXPECT_GT(faulty.max_finish_steps, 0u);
}

}  // namespace
