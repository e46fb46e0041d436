// Unit tests for the LC fast path's building blocks: bounded backoff,
// per-worker per-stage RNG streams, the LC-WAT line-harvest / ALLDONE-wave
// refinements, the fat tree's fill quota, the randomized-phase burst budget,
// and the canned-fault replay round trip for the LC variant.  The end-to-end
// LC behaviour (sortedness, adversaries, depth on sorted input) lives in
// test_sort_native.cpp; these tests pin the component-level contracts the
// fast path relies on.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <span>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/detail/build_phase.h"
#include "core/detail/engine.h"
#include "core/detail/lc_phase.h"
#include "core/detail/tree_state.h"
#include "core/sort.h"
#include "lowcontention/fat_tree.h"
#include "runtime/adversaries.h"
#include "runtime/scenario.h"
#include "workalloc/lcwat.h"

namespace {

namespace rt = wfsort::runtime;
using State = wfsort::detail::TreeState<std::uint64_t, std::less<std::uint64_t>>;
using wfsort::detail::LcMarks;
using wfsort::detail::LcProbeTally;

constexpr auto kKeepGoing = [] { return true; };

// ------------------------------------------------------------ backoff

TEST(Backoff, FirstAttemptAndDisabledLimitNeverSpin) {
  for (std::uint32_t limit : {0u, 1u, 6u, 31u}) {
    EXPECT_EQ(wfsort::detail::backoff_spins(0, limit), 0u) << limit;
  }
  for (std::uint32_t attempt : {0u, 1u, 5u, 100u}) {
    EXPECT_EQ(wfsort::detail::backoff_spins(attempt, 0), 0u) << attempt;
  }
}

TEST(Backoff, GrowsExponentiallyThenSaturates) {
  constexpr std::uint32_t kLimit = 6;
  for (std::uint32_t attempt = 1; attempt <= kLimit; ++attempt) {
    EXPECT_EQ(wfsort::detail::backoff_spins(attempt, kLimit), 1u << attempt);
  }
  // Beyond the limit the spin count is capped, never wraps, never grows.
  for (std::uint32_t attempt : {kLimit + 1, 2 * kLimit, 1000u}) {
    EXPECT_EQ(wfsort::detail::backoff_spins(attempt, kLimit), 1u << kLimit);
  }
}

TEST(Backoff, PauseIsCallable) {
  for (int i = 0; i < 8; ++i) wfsort::detail::cpu_pause();
}

// ------------------------------------------------------------ RNG streams

using wfsort::detail::LcRngStage;
using wfsort::detail::worker_stage_rng;

TEST(WorkerStageRng, SameSeedTidStageReplaysIdentically) {
  wfsort::Rng a = worker_stage_rng(1234, 3, LcRngStage::kInsert);
  wfsort::Rng b = worker_stage_rng(1234, 3, LcRngStage::kInsert);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(a.below(1 << 20), b.below(1 << 20));
}

TEST(WorkerStageRng, StagesAndWorkersGetDistinctStreams) {
  const LcRngStage stages[] = {LcRngStage::kWinner, LcRngStage::kFatten,
                               LcRngStage::kInsert, LcRngStage::kSum,
                               LcRngStage::kPlace};
  std::vector<std::uint64_t> firsts;
  for (std::uint32_t tid : {0u, 1u, 2u}) {
    for (LcRngStage s : stages) {
      firsts.push_back(worker_stage_rng(99, tid, s).below(std::uint64_t{1} << 62));
    }
  }
  for (std::size_t i = 0; i < firsts.size(); ++i) {
    for (std::size_t j = i + 1; j < firsts.size(); ++j) {
      EXPECT_NE(firsts[i], firsts[j]) << i << " vs " << j;
    }
  }
}

TEST(WorkerStageRng, StageStreamUnaffectedByDrawsOnOtherStages) {
  // The replay property: a stage's stream depends only on (seed, tid,
  // stage), never on how many draws other stages happened to consume —
  // which varies run to run with the interleaving.
  wfsort::Rng insert_a = worker_stage_rng(7, 1, LcRngStage::kInsert);
  wfsort::Rng sum_a = worker_stage_rng(7, 1, LcRngStage::kSum);
  const std::uint64_t first_sum = sum_a.below(1000000);

  wfsort::Rng insert_b = worker_stage_rng(7, 1, LcRngStage::kInsert);
  for (int i = 0; i < 1000; ++i) insert_b.below(17);  // burn insert draws
  wfsort::Rng sum_b = worker_stage_rng(7, 1, LcRngStage::kSum);
  EXPECT_EQ(sum_b.below(1000000), first_sum);
  (void)insert_a;
}

// ------------------------------------------------------------ LC-WAT

TEST(LcWatFastPath, SolveExecutesEveryJobAndSweepsAllDone) {
  for (std::uint64_t jobs : {1ull, 7ull, 64ull, 200ull}) {
    wfsort::LcWat wat(jobs);
    std::vector<int> runs(jobs, 0);
    wfsort::Rng rng(jobs * 31 + 1);
    wat.solve(rng, [&](std::uint64_t j) { runs[j]++; });
    for (std::uint64_t j = 0; j < jobs; ++j) {
      EXPECT_GE(runs[j], 1) << "job " << j << " of " << jobs;
    }
    EXPECT_TRUE(wat.all_done());
    // The announcer's full down-wave: EVERY node carries the announcement,
    // so any later probe quits wherever it lands.
    for (std::uint64_t i = 0; i < wat.nodes(); ++i) {
      EXPECT_EQ(wat.node_state(i), wfsort::LcWat::State::kAllDone) << i;
    }
  }
}

TEST(LcWatFastPath, LateWorkerQuitsOnFirstProbeAfterSweep) {
  wfsort::LcWat wat(128);
  wfsort::Rng first(1);
  wat.solve(first, [](std::uint64_t) {});
  // A straggler arriving after the sweep must quit on its very first probe
  // without re-running any job.
  int extra_runs = 0;
  wfsort::Rng late(2);
  const auto outcome = wat.step(late, [&](std::uint64_t) { ++extra_runs; });
  EXPECT_EQ(outcome, wfsort::LcWat::Outcome::kQuit);
  EXPECT_EQ(extra_runs, 0);
}

TEST(LcWatFastPath, NoWorkerQuitsBeforeEveryJobIsDone) {
  // The announcement is only ever derived from a completed root, so a
  // worker returning from solve() must find every job executed — whichever
  // worker it is and however the threads interleaved.
  constexpr std::uint64_t kJobs = 256;
  constexpr std::uint32_t kThreads = 4;
  wfsort::LcWat wat(kJobs);
  std::vector<std::atomic<int>> done(kJobs);
  for (auto& d : done) d.store(0, std::memory_order_relaxed);

  std::vector<int> saw_all(kThreads, 0);
  std::vector<std::thread> crew;
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    crew.emplace_back([&, t] {
      wfsort::Rng rng(1000 + t);
      wat.solve(rng, [&](std::uint64_t j) {
        done[j].fetch_add(1, std::memory_order_acq_rel);
      });
      int all = 1;
      for (std::uint64_t j = 0; j < kJobs; ++j) {
        if (done[j].load(std::memory_order_acquire) == 0) all = 0;
      }
      saw_all[t] = all;
    });
  }
  for (auto& th : crew) th.join();
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(saw_all[t], 1) << "worker " << t << " quit early";
  }
}

// ------------------------------------------------------------ fat tree

TEST(FatTreeQuota, PerParticipantQuotaFillsWhp) {
  // participants * fill_quota(participants) writes must leave (nearly) no
  // empty cell, for any crew size — that is the whole point of the quota.
  for (std::uint32_t participants : {1u, 4u, 16u}) {
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
      wfsort::FatTree fat(/*levels=*/6, /*copies=*/4);  // 63 nodes * 4
      std::vector<std::int64_t> slice(fat.node_count());
      for (std::size_t i = 0; i < slice.size(); ++i) {
        slice[i] = static_cast<std::int64_t>(i);
      }
      for (std::uint32_t p = 0; p < participants; ++p) {
        wfsort::Rng rng(seed * 100 + p);
        fat.write_random_cells(slice, fat.fill_quota(participants), rng);
      }
      EXPECT_GT(fat.fill_fraction(), 0.98)
          << "participants=" << participants << " seed=" << seed;
    }
  }
}

// ------------------------------------------------------------ burst budget

// Build a pivot tree sequentially so the randomized phases can run on it.
struct BuiltTree {
  std::vector<std::uint64_t> keys;
  std::unique_ptr<wfsort::RunArena> arena;  // the state's record storage
  std::unique_ptr<State> state;
};

BuiltTree build_tree(std::uint64_t n, std::uint64_t seed) {
  BuiltTree t;
  wfsort::Rng rng(seed);
  for (std::uint64_t i = 0; i < n; ++i) t.keys.push_back(rng.below(1 << 30));
  t.arena = std::make_unique<wfsort::RunArena>();
  t.state = std::make_unique<State>(
      std::span<const std::uint64_t>(t.keys.data(), t.keys.size()),
      std::less<std::uint64_t>{}, *t.arena);
  for (std::int64_t i = 0; i < t.state->n(); ++i) {
    wfsort::detail::build_one(*t.state, i);
  }
  return t;
}

TEST(LcPhaseBurst, VisitsStayWithinProbesTimesBudget) {
  // The burst contract: one probe expands into at most `burst` charged node
  // visits, so over a whole phase visits <= probes * burst — the bound that
  // keeps each probe (and hence the checkpoint-polling cadence) O(burst).
  for (std::uint32_t burst : {1u, 2u, 8u, 64u}) {
    auto t = build_tree(512, 7);
    LcMarks sum_marks(t.keys.size()), place_marks(t.keys.size());
    wfsort::Rng rng(17);
    LcProbeTally tally;
    ASSERT_TRUE(wfsort::detail::lc_tree_sum(*t.state, sum_marks, rng, burst,
                                            tally, kKeepGoing));
    EXPECT_LE(tally.visits, tally.probes * burst) << "sum burst=" << burst;
    ASSERT_TRUE(wfsort::detail::lc_find_place_emit(*t.state, place_marks, rng,
                                                   burst, tally, kKeepGoing));
    EXPECT_LE(tally.visits, tally.probes * burst) << "place burst=" << burst;
    EXPECT_TRUE(t.state->all_placed());
  }
}

TEST(LcPhaseBurst, PaperLiteralBurstOfOneStillCompletes) {
  // burst = 1 degenerates to the paper's one-node probes (plus the frontier
  // fallback); both phases must still terminate and place everything.
  auto t = build_tree(256, 11);
  LcMarks sum_marks(t.keys.size()), place_marks(t.keys.size());
  wfsort::Rng rng(3);
  LcProbeTally tally;
  ASSERT_TRUE(wfsort::detail::lc_tree_sum(*t.state, sum_marks, rng, 1, tally,
                                          kKeepGoing));
  EXPECT_EQ(t.state->size_of(t.state->root_idx()), t.state->n());
  ASSERT_TRUE(wfsort::detail::lc_find_place_emit(*t.state, place_marks, rng, 1,
                                                 tally, kKeepGoing));
  EXPECT_TRUE(t.state->all_placed());
}

// ------------------------------------------------------------ LC replay

TEST(LcReplay, SingleThreadedRunsAreBitStable) {
  // With per-worker per-stage RNG streams there is no interleaving left at
  // threads = 1: two runs with the same seed must take the same random
  // decisions and build the identical tree.
  wfsort::SortStats a, b;
  for (wfsort::SortStats* stats : {&a, &b}) {
    std::vector<std::uint64_t> v;
    wfsort::Rng rng(555);
    for (int i = 0; i < 3000; ++i) v.push_back(rng.below(1 << 28));
    wfsort::sort(std::span<std::uint64_t>(v),
                 wfsort::Options{.threads = 1,
                                 .variant = wfsort::Variant::kLowContention,
                                 .seed = 42},
                 stats);
  }
  EXPECT_EQ(a.tree_depth, b.tree_depth);
  EXPECT_EQ(a.total_build_iters, b.total_build_iters);
  EXPECT_EQ(a.cas_successes, b.cas_successes);
  EXPECT_EQ(a.fat_read_misses, b.fat_read_misses);
}

TEST(LcReplay, CannedFaultScriptRoundTrips) {
  // An LC scenario with a canned staggered-kills script survives the full
  // artifact cycle: serialize -> parse -> replay.  The spec must come back
  // field-for-field (else "replay" would re-run a different scenario), and
  // the replayed run must pass — this is a regression harness for the LC
  // fault path, not a bug repro.  (Kills, not suspend/revive: the native
  // substrate has no suspend/revive equivalent — see program_plan.)
  rt::ScenarioSpec spec;
  spec.substrate = rt::Substrate::kNative;
  spec.n = 2048;
  spec.procs = 4;
  spec.variant = rt::SortKind::kLc;
  spec.sort_seed = 777;
  spec.script = rt::staggered_kills(/*first_round=*/40, /*stride=*/400,
                                    /*procs=*/4, /*survivors=*/1);

  rt::ReplayArtifact artifact;
  artifact.spec = spec;
  artifact.failure = rt::FailureKind::kNone;
  artifact.detail = "lc canned regression";

  const std::string text = rt::artifact_to_text(artifact);
  rt::ReplayArtifact loaded;
  std::string error;
  ASSERT_TRUE(rt::artifact_from_text(text, &loaded, &error)) << error;
  EXPECT_EQ(loaded.spec.substrate, spec.substrate);
  EXPECT_EQ(loaded.spec.n, spec.n);
  EXPECT_EQ(loaded.spec.procs, spec.procs);
  EXPECT_EQ(loaded.spec.variant, spec.variant);
  EXPECT_EQ(loaded.spec.sort_seed, spec.sort_seed);
  EXPECT_EQ(loaded.spec.script.events.size(), spec.script.events.size());

  const rt::ReplayOutcome outcome = rt::replay(loaded);
  EXPECT_EQ(outcome.result.failure, rt::FailureKind::kNone)
      << rt::failure_kind_name(outcome.result.failure) << ": "
      << outcome.result.detail;
}

}  // namespace
