// Tests for the adversary engine: fault scripts and their JSON form, canned
// adversaries, the round-hook compiler, the mid-run invariant oracle, the
// scenario runner's determinism, and the full search -> artifact -> replay
// -> shrink round trip on the known-unsound Figure-6 pruning rule.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "common/json.h"
#include "core/sort.h"
#include "exp/workloads.h"
#include "pram/machine.h"
#include "pram/scheduler.h"
#include "pramsort/driver.h"
#include "runtime/adversaries.h"
#include "runtime/fault_plan.h"
#include "runtime/fault_script.h"
#include "runtime/oracle.h"
#include "runtime/scenario.h"
#include "runtime/sched_family.h"
#include "runtime/search.h"

namespace {

namespace rt = wfsort::runtime;
using wfsort::Json;

// ------------------------------------------------------------------- JSON

TEST(Json, DumpParseRoundTrip) {
  Json j = Json::object();
  j.set("i", std::int64_t{-42});
  j.set("b", true);
  j.set("s", "hi \"there\"\n");
  Json arr = Json::array();
  arr.push_back(1).push_back(Json()).push_back(2.5);
  j.set("a", std::move(arr));

  std::string error;
  const Json back = Json::parse(j.dump(), &error);
  EXPECT_TRUE(error.empty()) << error;
  EXPECT_EQ(back.at("i").as_int(), -42);
  EXPECT_TRUE(back.at("b").as_bool());
  EXPECT_EQ(back.at("s").as_string(), "hi \"there\"\n");
  EXPECT_EQ(back.at("a").items().size(), 3u);
  EXPECT_TRUE(back.at("a").items()[1].is_null());
  EXPECT_DOUBLE_EQ(back.at("a").items()[2].as_double(), 2.5);
  EXPECT_EQ(back.find("missing"), nullptr);
}

TEST(Json, ParseRejectsGarbage) {
  for (const char* bad : {"", "{", "[1,]", "{\"a\":}", "tru", "\"unterminated",
                          "{\"a\":1} trailing", "nul"}) {
    std::string error;
    Json::parse(bad, &error);
    EXPECT_FALSE(error.empty()) << "accepted: " << bad;
  }
}

// ---------------------------------------------------------- names & enums

TEST(FaultScript, NameParseInverses) {
  for (const auto a : {rt::FaultAction::kKill, rt::FaultAction::kSuspend,
                       rt::FaultAction::kRevive, rt::FaultAction::kSleep}) {
    rt::FaultAction back{};
    ASSERT_TRUE(rt::parse_fault_action(rt::fault_action_name(a), &back));
    EXPECT_EQ(back, a);
  }
  for (const auto t :
       {rt::TriggerKind::kRound, rt::TriggerKind::kPhase2Entry, rt::TriggerKind::kPhase3Entry,
        rt::TriggerKind::kFirstWatClaim, rt::TriggerKind::kLastWatClaim,
        rt::TriggerKind::kInstallCas}) {
    rt::TriggerKind back{};
    ASSERT_TRUE(rt::parse_trigger_kind(rt::trigger_kind_name(t), &back));
    EXPECT_EQ(back, t);
  }
  for (const auto k : {rt::FailureKind::kNone, rt::FailureKind::kHang,
                       rt::FailureKind::kUnsorted, rt::FailureKind::kValidation,
                       rt::FailureKind::kOracle, rt::FailureKind::kOwnStep}) {
    rt::FailureKind back{};
    ASSERT_TRUE(rt::parse_failure_kind(rt::failure_kind_name(k), &back));
    EXPECT_EQ(back, k);
  }
  rt::FaultAction a{};
  EXPECT_FALSE(rt::parse_fault_action("explode", &a));
}

// ----------------------------------------------------------- script model

TEST(FaultScript, JsonRoundTrip) {
  rt::FaultScript s;
  s.add({rt::FaultAction::kKill, rt::TriggerKind::kRound, 3, 17, 0});
  s.add({rt::FaultAction::kSleep, rt::TriggerKind::kRound, 1, 5, 64});
  s.add({rt::FaultAction::kSuspend, rt::TriggerKind::kRound, 2, 9, 0});
  s.add({rt::FaultAction::kRevive, rt::TriggerKind::kRound, 2, 30, 0});

  rt::FaultScript back;
  std::string error;
  ASSERT_TRUE(rt::script_from_json(rt::script_to_json(s), &back, &error)) << error;
  EXPECT_EQ(back, s);

  // Through text as well, as an artifact would carry it.
  const Json reparsed = Json::parse(rt::script_to_json(s).dump(), &error);
  ASSERT_TRUE(error.empty()) << error;
  ASSERT_TRUE(rt::script_from_json(reparsed, &back, &error)) << error;
  EXPECT_EQ(back, s);
}

TEST(FaultScript, ValidateCatchesBadScripts) {
  // Kill every processor: no survivor.
  rt::FaultScript all;
  all.add({rt::FaultAction::kKill, rt::TriggerKind::kRound, 0, 5, 0});
  all.add({rt::FaultAction::kKill, rt::TriggerKind::kRound, 1, 5, 0});
  EXPECT_FALSE(all.validate(2).empty());
  EXPECT_TRUE(all.validate(3).empty());

  // Target out of range.
  rt::FaultScript range;
  range.add({rt::FaultAction::kKill, rt::TriggerKind::kRound, 7, 5, 0});
  EXPECT_FALSE(range.validate(4).empty());

  // Suspend with no later revive or kill: the run could never finish.
  rt::FaultScript stuck;
  stuck.add({rt::FaultAction::kSuspend, rt::TriggerKind::kRound, 1, 5, 0});
  EXPECT_FALSE(stuck.validate(4).empty());
  stuck.add({rt::FaultAction::kRevive, rt::TriggerKind::kRound, 1, 9, 0});
  EXPECT_TRUE(stuck.validate(4).empty());

  // Sleep of zero duration.
  rt::FaultScript nosleep;
  nosleep.add({rt::FaultAction::kSleep, rt::TriggerKind::kRound, 0, 5, 0});
  EXPECT_FALSE(nosleep.validate(4).empty());
}

TEST(FaultScript, SymbolicScriptsAreNotConcrete) {
  rt::FaultScript s;
  s.add({rt::FaultAction::kKill, rt::TriggerKind::kPhase3Entry, 1, 0, 0});
  EXPECT_FALSE(s.concrete());
  rt::ProbeReport probe;
  probe.phase3_entry = 40;
  const rt::FaultScript resolved = rt::resolve_script(s, probe);
  EXPECT_TRUE(resolved.concrete());
  EXPECT_EQ(resolved.events[0].at, 40u);
}

// ------------------------------------------------------ canned adversaries

TEST(Adversaries, CannedScriptsValidate) {
  EXPECT_TRUE(rt::fail_stop_at_round(10, 1, 7).validate(8).empty());
  EXPECT_TRUE(rt::single_survivor(10, 3, 8).validate(8).empty());
  EXPECT_TRUE(rt::crash_and_revive(10, 40, 0, 7).validate(8).empty());
  EXPECT_TRUE(rt::staggered_kills(5, 3, 8, 2).validate(8).empty());

  const auto lone = rt::single_survivor(10, 3, 8);
  const auto killed = lone.killed_targets();
  EXPECT_EQ(killed.size(), 7u);
  EXPECT_EQ(std::find(killed.begin(), killed.end(), 3u), killed.end());

  const auto stag = rt::staggered_kills(5, 3, 8, 2);
  EXPECT_EQ(stag.killed_targets().size(), 6u);
}

TEST(Adversaries, RoundHookKillsAndRevives) {
  // A crew of sleepy workers that spin on yields; the script suspends one,
  // revives it, kills another.  The hook must track Machine state exactly.
  pram::Machine m;
  pram::SynchronousScheduler sched;
  auto keys = wfsort::exp::make_word_keys(32, wfsort::exp::Dist::kShuffled, 5);
  rt::FaultScript s;
  s.add({rt::FaultAction::kKill, rt::TriggerKind::kRound, 1, 4, 0});
  s.add({rt::FaultAction::kSleep, rt::TriggerKind::kRound, 2, 4, 6});
  // Reviving a killed processor must be ignored, not resurrect it.
  s.add({rt::FaultAction::kRevive, rt::TriggerKind::kRound, 1, 12, 0});
  // Targets beyond the crew are ignored.
  s.add({rt::FaultAction::kKill, rt::TriggerKind::kRound, 300, 4, 0});
  m.set_round_hook(rt::make_round_hook(s));
  auto res = wfsort::sim::run_det_sort(m, keys, 4, sched);
  EXPECT_TRUE(res.sorted);
  EXPECT_TRUE(m.killed(1));
  EXPECT_FALSE(m.killed(2));
  EXPECT_TRUE(m.finished(2));  // slept, woke, finished
}

// ------------------------------------------------------------- fault plan

TEST(FaultPlan, StepAccountingCountsEveryCheckpoint) {
  rt::FaultPlan plan(2);
  EXPECT_EQ(plan.steps(0), 0u);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(plan.checkpoint(0));
  EXPECT_EQ(plan.steps(0), 5u);
  EXPECT_EQ(plan.steps(1), 0u);

  plan.crash_at(1, 3);
  EXPECT_TRUE(plan.checkpoint(1));
  EXPECT_TRUE(plan.checkpoint(1));
  EXPECT_FALSE(plan.checkpoint(1));  // third checkpoint: crash
  EXPECT_EQ(plan.steps(1), 3u);
  EXPECT_EQ(plan.crashes(), 1u);
}

TEST(FaultPlanDeathTest, RejectsTriggerZero) {
  rt::FaultPlan plan(2);
  EXPECT_DEATH(plan.crash_at(0, 0), "at >= 1");
  EXPECT_DEATH(plan.sleep_at(0, 0, std::chrono::microseconds(10)), "at >= 1");
}

TEST(FaultPlan, ProgramPlanFromScript) {
  rt::FaultScript s;
  s.add({rt::FaultAction::kKill, rt::TriggerKind::kRound, 1, 2, 0});
  s.add({rt::FaultAction::kSleep, rt::TriggerKind::kRound, 0, 1, 50});
  rt::FaultPlan plan(2);
  rt::program_plan(s, plan);
  EXPECT_TRUE(plan.checkpoint(1));
  EXPECT_FALSE(plan.checkpoint(1));  // the programmed crash
  EXPECT_TRUE(plan.checkpoint(0));   // the programmed sleep just delays
}

// ------------------------------------------------------------------ oracle

TEST(Oracle, PassesOnHealthyRunAndCatchesPokedCorruption) {
  pram::Machine m;
  auto keys = wfsort::exp::make_word_keys(64, wfsort::exp::Dist::kShuffled, 7);
  auto res = wfsort::sim::run_det_sort_sync(m, keys, 8);
  ASSERT_TRUE(res.sorted);

  rt::SortOracle healthy(res.layout, 0);
  EXPECT_TRUE(healthy.check(m));
  EXPECT_FALSE(healthy.violated());

  // Duplicate a place.  Snapshot after the poke (a fresh oracle) so the
  // write-once check passes and the uniqueness invariant is the one to trip.
  const pram::Word orig = m.mem().peek(res.layout.place_addr(0));
  m.mem().poke(res.layout.place_addr(0), m.mem().peek(res.layout.place_addr(1)));
  rt::SortOracle dup(res.layout, 0);
  EXPECT_FALSE(dup.check(m));
  EXPECT_TRUE(dup.violated());
  EXPECT_NE(dup.error().find("assigned twice"), std::string::npos) << dup.error();
  m.mem().poke(res.layout.place_addr(0), orig);

  // A key changing between checks means a record was lost.
  rt::SortOracle keyo(res.layout, 0);
  ASSERT_TRUE(keyo.check(m));
  m.mem().poke(res.layout.key_addr(3), 999999);
  EXPECT_FALSE(keyo.check(m));
  EXPECT_NE(keyo.error().find("key of element 3"), std::string::npos) << keyo.error();
}

TEST(Oracle, CatchesChildPointerMutation) {
  pram::Machine m;
  auto keys = wfsort::exp::make_word_keys(32, wfsort::exp::Dist::kShuffled, 9);
  auto res = wfsort::sim::run_det_sort_sync(m, keys, 4);
  ASSERT_TRUE(res.sorted);
  rt::SortOracle oracle(res.layout, 0);
  ASSERT_TRUE(oracle.check(m));
  // Rewire a set child pointer: write-once monotonicity must trip.
  for (pram::Word i = 0; i < 32; ++i) {
    const pram::Addr a = res.layout.child_addr(i, wfsort::sim::SortLayout::kSmall);
    if (m.mem().peek(a) >= 0) {
      m.mem().poke(a, m.mem().peek(a) == 5 ? 6 : 5);
      break;
    }
  }
  EXPECT_FALSE(oracle.check(m));
  EXPECT_NE(oracle.error().find("child"), std::string::npos) << oracle.error();
}

// ---------------------------------------------------------------- scenario

rt::ScenarioSpec small_det_spec() {
  rt::ScenarioSpec spec;
  spec.substrate = rt::Substrate::kSim;
  spec.n = 64;
  spec.procs = 8;
  spec.variant = rt::SortKind::kDet;
  spec.oracle_period = 16;
  return spec;
}

TEST(Scenario, FaultlessRunsPassEverywhere) {
  rt::ScenarioSpec spec = small_det_spec();
  for (const rt::SchedSpec& sched : rt::all_sched_specs(spec.procs, 11)) {
    spec.sched = sched;
    const rt::ScenarioResult res = rt::run_scenario(spec);
    EXPECT_TRUE(res.ok()) << rt::failure_kind_name(res.failure) << ": " << res.detail;
    EXPECT_GT(res.rounds, 0u);
    EXPECT_GT(res.max_finish_steps, 0u);
  }

  spec.variant = rt::SortKind::kLc;
  spec.oracle_period = 0;
  spec.sched = rt::SchedSpec{};
  EXPECT_TRUE(rt::run_scenario(spec).ok());

  rt::ScenarioSpec native = small_det_spec();
  native.substrate = rt::Substrate::kNative;
  native.procs = 4;
  native.n = 5000;
  const rt::ScenarioResult res = rt::run_scenario(native);
  EXPECT_TRUE(res.ok()) << res.detail;
  EXPECT_GT(res.max_finish_steps, 0u);
}

TEST(Scenario, DeterministicAcrossRepeats) {
  rt::ScenarioSpec spec = small_det_spec();
  spec.sched = {rt::SchedFamily::kRandomSubset, 50, 77};
  spec.script = rt::fail_stop_at_round(20, 1, 6);
  const rt::ScenarioResult a = rt::run_scenario(spec);
  const rt::ScenarioResult b = rt::run_scenario(spec);
  EXPECT_EQ(a.failure, b.failure);
  EXPECT_EQ(a.detail, b.detail);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.total_ops, b.total_ops);
  EXPECT_EQ(a.max_finish_steps, b.max_finish_steps);
}

TEST(Scenario, OwnStepBoundViolationIsReported) {
  rt::ScenarioSpec spec = small_det_spec();
  spec.own_step_bound = 1;  // absurdly tight: every finisher exceeds it
  const rt::ScenarioResult res = rt::run_scenario(spec);
  EXPECT_EQ(res.failure, rt::FailureKind::kOwnStep);
  EXPECT_NE(res.detail.find("own steps"), std::string::npos);
}

TEST(Scenario, SpecJsonRoundTrip) {
  rt::ScenarioSpec spec = small_det_spec();
  spec.dist = wfsort::exp::Dist::kOrganPipe;
  spec.prune = wfsort::sim::PlacePrune::kNone;
  spec.memory = pram::MemoryModel::kStall;
  spec.sched = {rt::SchedFamily::kHalfFreeze, 8, 3};
  spec.script = rt::fail_stop_at_round(9, 2, 5);
  spec.own_step_bound = 123456;

  rt::ScenarioSpec back;
  std::string error;
  ASSERT_TRUE(rt::spec_from_json(rt::spec_to_json(spec), &back, &error)) << error;
  EXPECT_EQ(back.n, spec.n);
  EXPECT_EQ(back.dist, spec.dist);
  EXPECT_EQ(back.procs, spec.procs);
  EXPECT_EQ(back.prune, spec.prune);
  EXPECT_EQ(back.memory, spec.memory);
  EXPECT_EQ(back.sched, spec.sched);
  EXPECT_EQ(back.script, spec.script);
  EXPECT_EQ(back.own_step_bound, spec.own_step_bound);

  // A script that kills the whole crew must be rejected at load time.
  Json j = rt::spec_to_json(spec);
  Json bad = rt::script_to_json(rt::fail_stop_at_round(9, 0, 7));
  j.set("script", std::move(bad));
  EXPECT_FALSE(rt::spec_from_json(j, &back, &error));
  EXPECT_NE(error.find("invalid script"), std::string::npos) << error;
}

TEST(Scenario, NativeSpecWithoutCompletedPruneIsRejected) {
  // The native engine has one phase-3 rule; a native artifact asking for
  // another must fail to load, not run silently under the one rule.
  rt::ScenarioSpec spec = small_det_spec();
  spec.substrate = rt::Substrate::kNative;
  rt::ScenarioSpec back;
  std::string error;
  ASSERT_TRUE(rt::spec_from_json(rt::spec_to_json(spec), &back, &error)) << error;
  EXPECT_TRUE(rt::native_spec_error(back).empty());
  for (const auto prune : {wfsort::sim::PlacePrune::kNone, wfsort::sim::PlacePrune::kPlaced}) {
    spec.prune = prune;
    error.clear();
    EXPECT_FALSE(rt::spec_from_json(rt::spec_to_json(spec), &back, &error));
    EXPECT_NE(error.find("one phase-3 rule"), std::string::npos) << error;
    EXPECT_EQ(rt::native_spec_error(spec), error);
    // The simulator keeps all three rules.
    spec.substrate = rt::Substrate::kSim;
    EXPECT_TRUE(rt::spec_from_json(rt::spec_to_json(spec), &back, &error)) << error;
    spec.substrate = rt::Substrate::kNative;
  }
}

TEST(Scenario, LcSimPlacementSurvivesAKillBetweenItsWrites) {
  // A fuzz_sort find (seed 6, iteration 974).  The simulator's LC placement
  // wrote a child's place before its output slot; a processor killed
  // between the two left the slot unwritten for good, because every later
  // probe saw place > 0 and skipped the child.  The slot is now written
  // first.  Every processor is killed at every round around the window.
  rt::ScenarioSpec spec;
  spec.substrate = rt::Substrate::kSim;
  spec.n = 61;
  spec.dist = wfsort::exp::Dist::kFewDistinct;
  spec.workload_seed = 8299479635029064869ULL;
  spec.procs = 12;
  spec.variant = rt::SortKind::kLc;
  spec.random_first = true;
  spec.machine_seed = 9294872931742688451ULL;
  spec.sort_seed = 1347639959;
  spec.oracle_period = 0;
  for (std::uint32_t target = 0; target < spec.procs; ++target) {
    for (std::uint64_t at = 710; at <= 730; ++at) {
      spec.script = rt::FaultScript{}.add({.target = target, .at = at});
      const rt::ScenarioResult res = rt::run_scenario(spec);
      EXPECT_TRUE(res.ok()) << "kill " << target << " at " << at << ": "
                            << rt::failure_kind_name(res.failure) << ": " << res.detail;
    }
  }
}

// ------------------------------------------------------------------ probe

TEST(Probe, LandmarksAreOrderedAndPresent) {
  rt::ScenarioSpec spec = small_det_spec();
  const rt::ProbeReport probe = rt::probe_scenario(spec);
  EXPECT_GT(probe.rounds, 0u);
  EXPECT_GT(probe.first_wat_claim, 0u);
  EXPECT_GE(probe.last_wat_claim, probe.first_wat_claim);
  EXPECT_GT(probe.phase2_entry, 0u);
  EXPECT_GT(probe.phase3_entry, probe.phase2_entry);
  // 64 elements insert below the root: 63 install CASes.
  EXPECT_EQ(probe.cas_install_rounds.size(), 63u);
  EXPECT_TRUE(std::is_sorted(probe.cas_install_rounds.begin(),
                             probe.cas_install_rounds.end()));
}

// ------------------------------------------- the acceptance round trip

TEST(SearchRoundTrip, PlacedPruneBugIsFoundReplayedAndShrunk) {
  // Figure 6's placed-prune rule is documented-unsound under crashes
  // (DESIGN.md): the searching adversary must find a failing script, the
  // artifact must replay to the identical failure, and the shrunk artifact
  // must still reproduce it.
  rt::ScenarioSpec spec = small_det_spec();
  spec.prune = wfsort::sim::PlacePrune::kPlaced;

  rt::SearchOptions sopts;
  sopts.max_runs = 300;
  rt::ReplayArtifact artifact;
  rt::SearchStats stats;
  ASSERT_TRUE(rt::search_for_violation(spec, sopts, &artifact, &stats))
      << "no violation in " << stats.runs << " runs";
  EXPECT_NE(artifact.failure, rt::FailureKind::kNone);

  // Serialize -> parse -> replay: identical failure.
  rt::ReplayArtifact loaded;
  std::string error;
  ASSERT_TRUE(rt::artifact_from_text(rt::artifact_to_text(artifact), &loaded, &error))
      << error;
  const rt::ReplayOutcome replayed = rt::replay(loaded);
  EXPECT_TRUE(replayed.reproduced)
      << "replay got " << rt::failure_kind_name(replayed.result.failure) << ": "
      << replayed.result.detail;
  EXPECT_TRUE(replayed.exact);

  // Shrink: no larger than the original, still reproduces.
  const rt::ReplayArtifact shrunk = rt::shrink_artifact(artifact);
  EXPECT_LE(shrunk.spec.script.events.size(), artifact.spec.script.events.size());
  EXPECT_GE(shrunk.spec.script.events.size(), 1u);
  const rt::ReplayOutcome again = rt::replay(shrunk);
  EXPECT_TRUE(again.reproduced)
      << "shrunk replay got " << rt::failure_kind_name(again.result.failure) << ": "
      << again.result.detail;
}

TEST(SearchRoundTrip, SoundPolicySurvivesBudgetedSweep) {
  rt::ScenarioSpec spec = small_det_spec();
  spec.n = 48;
  spec.procs = 6;
  rt::SearchOptions sopts;
  sopts.max_runs = 60;
  sopts.random_scripts = 8;
  rt::ReplayArtifact artifact;
  EXPECT_FALSE(rt::search_for_violation(spec, sopts, &artifact))
      << rt::failure_kind_name(artifact.failure) << ": " << artifact.detail;
}

TEST(SearchRoundTrip, ArtifactFileRoundTrip) {
  rt::ReplayArtifact artifact;
  artifact.spec = small_det_spec();
  artifact.spec.script = rt::single_survivor(12, 0, 8);
  artifact.failure = rt::FailureKind::kUnsorted;
  artifact.detail = "synthetic";

  const std::string path = ::testing::TempDir() + "/wfsort_artifact_rt.json";
  ASSERT_TRUE(rt::write_artifact(artifact, path));
  rt::ReplayArtifact loaded;
  std::string error;
  ASSERT_TRUE(rt::load_artifact(path, &loaded, &error)) << error;
  EXPECT_EQ(loaded.failure, artifact.failure);
  EXPECT_EQ(loaded.detail, artifact.detail);
  EXPECT_EQ(loaded.spec.script, artifact.spec.script);
  std::remove(path.c_str());
}

}  // namespace
