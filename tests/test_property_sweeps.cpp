// Parameterized property sweeps: named grids of configurations, each
// asserting the library's core invariants.  (The fuzz_sort tool covers the
// randomized version of this; these sweeps are the deterministic, named,
// always-run subset.)
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <type_traits>
#include <vector>

#include "common/rng.h"
#include "core/sort.h"
#include "exp/workloads.h"
#include "pram/machine.h"
#include "pram/scheduler.h"
#include "pramsort/driver.h"
#include "pramsort/validate.h"
#include "workalloc/lcwat.h"
#include "workalloc/wat.h"

namespace {

using wfsort::Rng;

// ------------------------------------------------ machine: counter property

enum class SchedKind { kSync, kSerial, kSubset, kFreeze };

const char* sched_name(SchedKind k) {
  switch (k) {
    case SchedKind::kSync: return "sync";
    case SchedKind::kSerial: return "serial";
    case SchedKind::kSubset: return "subset";
    case SchedKind::kFreeze: return "freeze";
  }
  return "?";
}

std::unique_ptr<pram::Scheduler> make_sched(SchedKind k, std::uint64_t seed) {
  switch (k) {
    case SchedKind::kSync: return std::make_unique<pram::SynchronousScheduler>();
    case SchedKind::kSerial: return std::make_unique<pram::RoundRobinScheduler>(1);
    case SchedKind::kSubset:
      return std::make_unique<pram::RandomSubsetScheduler>(0.5, seed);
    case SchedKind::kFreeze: return std::make_unique<pram::HalfFreezeScheduler>(4);
  }
  return nullptr;
}

struct CounterParam {
  SchedKind sched;
  std::uint32_t procs;
  std::uint64_t seed;
};

class CounterSweep : public testing::TestWithParam<CounterParam> {};

pram::Task add_three(pram::Ctx& ctx, pram::Addr a) {
  for (int i = 0; i < 3; ++i) (void)co_await ctx.faa(a, 1);
}

// Linearizable counter: the final value is exact under EVERY schedule.
TEST_P(CounterSweep, FaaCounterIsExactUnderAnySchedule) {
  const auto p = GetParam();
  pram::Machine m(pram::MachineOptions{.seed = p.seed});
  auto cell = m.mem().alloc("ctr", 1, 0);
  for (std::uint32_t i = 0; i < p.procs; ++i) {
    m.spawn([&cell](pram::Ctx& ctx) { return add_three(ctx, cell.base); });
  }
  auto sched = make_sched(p.sched, p.seed);
  auto r = m.run(*sched);
  ASSERT_TRUE(r.all_finished);
  EXPECT_EQ(m.mem().peek(cell.base), static_cast<pram::Word>(p.procs) * 3);
}

std::vector<CounterParam> counter_grid() {
  std::vector<CounterParam> out;
  for (SchedKind s : {SchedKind::kSync, SchedKind::kSerial, SchedKind::kSubset,
                      SchedKind::kFreeze}) {
    for (std::uint32_t procs : {1u, 7u, 32u}) {
      out.push_back({s, procs, 11 * procs + 1});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Grid, CounterSweep, testing::ValuesIn(counter_grid()),
                         [](const testing::TestParamInfo<CounterParam>& pi) {
                           return std::string(sched_name(pi.param.sched)) + "_p" +
                                  std::to_string(pi.param.procs);
                         });

// ------------------------------------------------ sim sort: validated grid

// gtest prints a parameter without a PrintTo as its raw bytes, and those
// bytes end up in the registered test name.  The fields fill 20 of the
// struct's 24 bytes, so `pad` names the last four and zeroes them: padding
// bytes are indeterminate, and a name built from them changes from build to
// build.
struct SimSortParam {
  std::size_t n;
  std::uint32_t procs;
  SchedKind sched;
  wfsort::sim::PlacePrune prune;
  std::uint32_t pad = 0;
};
static_assert(std::has_unique_object_representations_v<SimSortParam>);

class SimSortSweep : public testing::TestWithParam<SimSortParam> {};

TEST_P(SimSortSweep, SortsAndValidates) {
  const auto p = GetParam();
  pram::Machine m;
  auto keys = wfsort::exp::make_word_keys(p.n, wfsort::exp::Dist::kShuffled, p.n + p.procs);
  auto sched = make_sched(p.sched, 3);
  auto res = wfsort::sim::run_det_sort(m, keys, p.procs, *sched,
                                       wfsort::sim::DetSortConfig{.prune = p.prune});
  ASSERT_TRUE(res.sorted);
  auto report = wfsort::sim::validate_sort_run(m, res.layout, 0);
  EXPECT_TRUE(report.ok) << report.error;
}

std::vector<SimSortParam> sim_grid() {
  using wfsort::sim::PlacePrune;
  std::vector<SimSortParam> out;
  for (SchedKind s : {SchedKind::kSync, SchedKind::kSubset}) {
    for (std::uint32_t procs : {1u, 16u, 96u}) {
      for (PlacePrune prune :
           {PlacePrune::kNone, PlacePrune::kPlaced, PlacePrune::kCompleted}) {
        out.push_back({96, procs, s, prune});
      }
    }
  }
  // The serial adversary, sound policies only (kPlaced is lockstep-only).
  out.push_back({48, 8, SchedKind::kSerial, PlacePrune::kCompleted});
  out.push_back({48, 8, SchedKind::kSerial, PlacePrune::kNone});
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SimSortSweep, testing::ValuesIn(sim_grid()),
    [](const testing::TestParamInfo<SimSortParam>& pi) {
      const auto& p = pi.param;
      const char* prune = p.prune == wfsort::sim::PlacePrune::kNone       ? "none"
                          : p.prune == wfsort::sim::PlacePrune::kPlaced   ? "placed"
                                                                          : "done";
      return std::string(sched_name(p.sched)) + "_p" + std::to_string(p.procs) + "_" +
             prune;
    });

// ------------------------------------------------ native: crash-mask grid

class CrashMaskSweep : public testing::TestWithParam<int> {};

// Crash every subset of workers {1,2,3} (worker 0 always survives): the
// sort must complete and be correct for all 8 masks.
TEST_P(CrashMaskSweep, AnySubsetOfWorkersMayDie) {
  const int mask = GetParam();
  auto v = wfsort::exp::make_u64_keys(3000, wfsort::exp::Dist::kUniform, 500 + mask);
  auto expected = v;
  std::sort(expected.begin(), expected.end());

  wfsort::runtime::FaultPlan plan(4);
  for (int t = 1; t <= 3; ++t) {
    if ((mask >> (t - 1)) & 1) plan.crash_at(static_cast<std::uint32_t>(t), 40u * t + 5);
  }
  const bool ok = wfsort::sort_with_faults(std::span<std::uint64_t>(v),
                                           wfsort::Options{.threads = 4}, plan);
  ASSERT_TRUE(ok);
  EXPECT_EQ(v, expected);
}

INSTANTIATE_TEST_SUITE_P(AllMasks, CrashMaskSweep, testing::Range(0, 8));

// ------------------------------------------------ work allocation coverage

class WatSeedSweep : public testing::TestWithParam<std::uint64_t> {};

// Whatever interleaving the OS produces (varied via thread count and seed),
// a WAT hands out every job and an LC-WAT completes every job.
TEST_P(WatSeedSweep, BothAllocatorsCoverEveryJob) {
  const std::uint64_t seed = GetParam();
  const std::uint64_t jobs = 100 + seed * 37 % 200;

  wfsort::Wat wat(jobs);
  std::set<std::uint64_t> handed;
  std::int64_t node = wat.initial_leaf(static_cast<std::uint32_t>(seed % 5), 5);
  while (node != wfsort::Wat::kAllJobsDone) {
    if (wat.is_job_leaf(node)) handed.insert(wat.job_of(node));
    node = wat.next_element(node);
  }
  EXPECT_EQ(handed.size(), jobs);

  wfsort::LcWat lc(jobs);
  Rng rng(seed);
  std::set<std::uint64_t> done;
  lc.solve(rng, [&done](std::uint64_t j) { done.insert(j); });
  EXPECT_EQ(done.size(), jobs);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WatSeedSweep, testing::Values(1, 2, 3, 5, 8, 13, 21));

}  // namespace
