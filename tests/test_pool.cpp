// SortPool (ISSUE 10) — pooled submits must be indistinguishable from cold
// one-shot sorts in every observable except speed.
//
// The load-bearing assertions:
//   * Bit-identical output: consecutive pooled runs across all three
//     engine variants, shrinking and growing N, default and non-default
//     knobs — each compared element-for-element against a cold
//     wfsort::sort of the same input.
//   * Fault recycling: a staggered-kills adversary run through the pool
//     must not poison its arena — the next clean pooled run on the same
//     arena must succeed and match cold output.
//   * Zero steady-state allocations: once the pool's one arena has seen
//     the high-water shape of every variant, a telemetry-off caller-only
//     submit of any variant performs NO heap allocations (counted by the
//     global operator-new hooks below).  The
//     worker-wake path asserts the weaker arena-level invariant (no grow
//     events) because a parked worker's thread-local warmup is
//     schedule-dependent.
//
// The whole file runs under TSan in CI (pool suite + 4-thread pooled sort).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/pool.h"
#include "core/sort.h"
#include "runtime/fault_plan.h"

// ---------------------------------------------------------------------------
// Counting allocator hooks: every global operator new in this binary bumps
// g_allocs.  The zero-alloc test reads the delta around a pooled submit.
// ---------------------------------------------------------------------------
namespace {
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_alloc(std::size_t n, std::align_val_t al) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(al);
  // aligned_alloc demands size be a multiple of alignment.
  const std::size_t sz = (std::max<std::size_t>(n, 1) + a - 1) / a * a;
  void* p = std::aligned_alloc(a, sz);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_alloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using wfsort::Options;
using wfsort::Phase1;
using wfsort::PoolStats;
using wfsort::SortPool;
using wfsort::SortStats;
using wfsort::Variant;

std::vector<std::uint64_t> random_values(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint64_t> v(n);
  for (auto& x : v) x = rng();
  return v;
}

// Pooled run and cold run of the same input must agree bit for bit.
void expect_pooled_matches_cold(SortPool& pool, std::size_t n,
                                const Options& opts, std::uint64_t seed) {
  std::vector<std::uint64_t> cold = random_values(n, seed);
  std::vector<std::uint64_t> pooled = cold;
  wfsort::sort(std::span<std::uint64_t>(cold), opts);
  pool.sort(std::span<std::uint64_t>(pooled), opts);
  ASSERT_TRUE(std::is_sorted(pooled.begin(), pooled.end()))
      << "n=" << n << " variant=" << static_cast<int>(opts.variant);
  EXPECT_EQ(pooled, cold) << "n=" << n
                          << " variant=" << static_cast<int>(opts.variant)
                          << " phase1=" << static_cast<int>(opts.phase1);
}

Options det_tree_opts() {
  Options o;
  o.threads = 4;
  return o;
}

Options det_partition_opts() {
  Options o;
  o.threads = 4;
  o.phase1 = Phase1::kPartition;
  return o;
}

Options lc_opts() {
  Options o;
  o.threads = 4;
  o.variant = Variant::kLowContention;
  return o;
}

// Shrink-and-grow N schedule: exercises both arena reuse (smaller run on a
// larger retained footprint) and grow (larger run after smaller).
const std::size_t kNSchedule[] = {4096, 100, 70000, 0,  1,    2,
                                  63,   64,  4096,  65, 20000};

TEST(SortPoolGolden, BackToBackDetTreeMatchesCold) {
  SortPool pool(4);
  std::uint64_t seed = 100;
  for (const std::size_t n : kNSchedule) {
    expect_pooled_matches_cold(pool, n, det_tree_opts(), seed++);
  }
}

TEST(SortPoolGolden, BackToBackDetPartitionMatchesCold) {
  SortPool pool(4);
  std::uint64_t seed = 200;
  for (const std::size_t n : kNSchedule) {
    expect_pooled_matches_cold(pool, n, det_partition_opts(), seed++);
  }
}

TEST(SortPoolGolden, BackToBackLowContentionMatchesCold) {
  SortPool pool(4);
  std::uint64_t seed = 300;
  for (const std::size_t n : kNSchedule) {
    expect_pooled_matches_cold(pool, n, lc_opts(), seed++);
  }
}

// Non-default knobs change the arena allocation shapes (batching, leaf
// cutoffs, fat-tree copies) — reuse must stay correct across them, and the
// arena must tolerate knob changes BETWEEN runs.
TEST(SortPoolGolden, NonDefaultKnobsAndKnobChangesBetweenRuns) {
  SortPool pool(4);
  Options tuned_det = det_tree_opts();
  tuned_det.wat_batch = 8;
  tuned_det.seq_cutoff = 32;

  Options tuned_lc = lc_opts();
  tuned_lc.lc_burst = 16;
  tuned_lc.lc_copies = 3;
  tuned_lc.wat_batch = 8;

  std::uint64_t seed = 400;
  for (const std::size_t n : {5000u, 200u, 60000u}) {
    expect_pooled_matches_cold(pool, n, tuned_det, seed++);
    expect_pooled_matches_cold(pool, n, det_tree_opts(), seed++);
    expect_pooled_matches_cold(pool, n, tuned_lc, seed++);
    expect_pooled_matches_cold(pool, n, lc_opts(), seed++);
  }
}

// The three variants share the pool's one arena: each run starts on the
// slots (and stale bytes) another variant's run left behind, and
// interleaving them one after another must not cross-contaminate the output.
TEST(SortPoolGolden, InterleavedVariantsShareOnePool) {
  SortPool pool(4);
  std::uint64_t seed = 500;
  for (int round = 0; round < 3; ++round) {
    expect_pooled_matches_cold(pool, 3000, det_tree_opts(), seed++);
    expect_pooled_matches_cold(pool, 3000, det_partition_opts(), seed++);
    expect_pooled_matches_cold(pool, 3000, lc_opts(), seed++);
  }
  EXPECT_EQ(pool.stats().runs, 9u);  // only the pooled halves count
}

// A staggered-kills adversary run through the pool: workers die at spread
// checkpoints, the run still completes (wait-freedom is per-run and the
// caller drains unclaimed ids), and — the recycling claim — the next clean
// runs reuse the killed run's arena slots safely.
TEST(SortPoolFaults, StaggeredKillsThenCleanReuse) {
  SortPool pool(4);
  const Options opts = det_tree_opts();

  std::vector<std::uint64_t> cold = random_values(20000, 600);
  std::vector<std::uint64_t> pooled = cold;
  wfsort::sort(std::span<std::uint64_t>(cold), opts);

  wfsort::runtime::FaultPlan plan(8);
  plan.crash_at(0, 40);   // the submitting caller dies early...
  plan.crash_at(1, 80);   // ...and the parked workers at staggered steps
  plan.crash_at(2, 120);  // (worker 3 survives and finishes the sort).
  SortStats stats;
  const bool ok = pool.sort_with_faults(std::span<std::uint64_t>(pooled), opts,
                                        plan, &stats);
  ASSERT_TRUE(ok);
  EXPECT_EQ(pooled, cold);
  EXPECT_GE(stats.crashed_workers, 1u);

  // Clean pooled reuse of the arena the killed run just used — shrink and
  // grow to walk the recycled slots both ways.
  std::uint64_t seed = 700;
  for (const std::size_t n : {20000u, 500u, 50000u}) {
    expect_pooled_matches_cold(pool, n, opts, seed++);
  }
}

// Everybody dies: the pooled fault run reports failure exactly like the
// cold path (data untouched is the cold contract; here we only require the
// failure report and that the arena recovers).
TEST(SortPoolFaults, AllWorkersKilledReportsFailureAndLaneRecovers) {
  SortPool pool(2);
  Options opts;
  opts.threads = 3;
  std::vector<std::uint64_t> v = random_values(20000, 800);
  wfsort::runtime::FaultPlan plan(8);
  for (std::uint32_t tid = 0; tid < 3; ++tid) plan.crash_at(tid, 5);
  const bool ok =
      pool.sort_with_faults(std::span<std::uint64_t>(v), opts, plan);
  EXPECT_FALSE(ok);
  expect_pooled_matches_cold(pool, 20000, det_tree_opts(), 801);
}

// The 14·N·⌈log2 N⌉ own-step certification on the POOLED wake path: the
// pool's claim protocol decides who starts a worker id, never a step
// inside the engine, so a steady-state pooled run must stay inside the
// same calibrated budget as the cold path (tests/test_waitfree_cert.cpp).
// The fault plan is passive here — it only counts checkpoints per tid.
TEST(SortPoolFaults, PooledRunStaysInsideOwnStepBudget) {
  SortPool pool(4);
  const std::size_t n = 4096;
  // Warm the arena so the certified run is a steady-state (recycled) one.
  for (int i = 0; i < 2; ++i) {
    std::vector<std::uint64_t> v = random_values(n, 850 + i);
    pool.sort(std::span<std::uint64_t>(v), det_tree_opts());
  }
  std::vector<std::uint64_t> v = random_values(n, 852);
  wfsort::runtime::FaultPlan plan(8);
  ASSERT_TRUE(
      pool.sort_with_faults(std::span<std::uint64_t>(v), det_tree_opts(), plan));
  ASSERT_TRUE(std::is_sorted(v.begin(), v.end()));
  std::uint64_t log2n = 0;
  while ((std::size_t{1} << log2n) < n) ++log2n;
  const std::uint64_t budget = 14 * n * log2n;
  for (std::uint32_t tid = 0; tid < 4; ++tid) {
    EXPECT_LE(plan.steps(tid), budget) << "tid " << tid;
  }
  EXPECT_GT(plan.steps(0), 0u);  // the caller really ran as worker 0
}

// Steady state, caller-only path (small N, telemetry off, no stats): zero
// heap allocations per submit, proven by the operator-new hooks.  The three
// variants interleave on the pool's one arena, whose slots each grow to the
// largest request any variant makes of them; the measured inputs are fresh,
// so neither the arena nor the calling thread's worker scratch (DFS stacks,
// det-partition's bucket scratch) may grow with the keys.
TEST(SortPoolAlloc, SteadyStateCallerOnlySubmitMakesZeroAllocations) {
  SortPool pool(2);
  const Options shapes[] = {det_tree_opts(), det_partition_opts(), lc_opts()};
  // Just under the cutoff (three det-partition buckets), then half of it
  // (two).
  for (const std::size_t n :
       {wfsort::kCallerOnlyCutoff - 1, wfsort::kCallerOnlyCutoff / 2}) {
    // Warm the arena and the calling thread's worker scratch.
    for (int i = 0; i < 3; ++i) {
      for (const Options& opts : shapes) {
        std::vector<std::uint64_t> v = random_values(n, 900 + i);
        pool.sort(std::span<std::uint64_t>(v), opts);
        ASSERT_TRUE(std::is_sorted(v.begin(), v.end()));
      }
    }
    for (int i = 0; i < 5; ++i) {
      for (const Options& opts : shapes) {
        std::vector<std::uint64_t> v = random_values(n, 910 + i);
        const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
        pool.sort(std::span<std::uint64_t>(v), opts);
        const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
        EXPECT_EQ(after - before, 0u)
            << "n " << n << " steady-state submit " << i << " variant "
            << static_cast<int>(opts.variant) << " phase1 "
            << static_cast<int>(opts.phase1);
        ASSERT_TRUE(std::is_sorted(v.begin(), v.end()));
      }
    }
  }
  const PoolStats ps = pool.stats();
  EXPECT_EQ(ps.caller_only_runs, 48u);
  EXPECT_EQ(ps.bypass_runs, 0u);
  EXPECT_GT(ps.arena_reuse_bytes, 0u);
}

// Steady state, worker-wake path (large N): the arena must not grow once
// the high-water shape is retained.  (Strict heap-zero is asserted only on
// the caller-only path: which parked worker claims first — and whether its
// thread-locals are already warm — is schedule-dependent.)
TEST(SortPoolAlloc, SteadyStateWakePathArenaStopsGrowing) {
  SortPool pool(4);
  const std::size_t n = std::size_t{1} << 17;
  for (int i = 0; i < 2; ++i) {
    std::vector<std::uint64_t> v = random_values(n, 920 + i);
    pool.sort(std::span<std::uint64_t>(v), det_tree_opts());
    ASSERT_TRUE(std::is_sorted(v.begin(), v.end()));
  }
  const std::uint64_t grow_before = pool.stats().arena_grow_events;
  for (int i = 0; i < 3; ++i) {
    std::vector<std::uint64_t> v = random_values(n, 930 + i);
    pool.sort(std::span<std::uint64_t>(v), det_tree_opts());
    ASSERT_TRUE(std::is_sorted(v.begin(), v.end()));
  }
  const PoolStats ps = pool.stats();
  EXPECT_EQ(ps.arena_grow_events, grow_before);
  EXPECT_EQ(ps.runs, 5u);
  EXPECT_GT(ps.arena_reuse_bytes, 0u);
}

// Telemetry-on pooled runs recycle the pool's Recorder (rings and span
// vectors keep their buffers) and still produce a coherent report.
TEST(SortPoolTelemetry, RecorderIsRecycledAcrossPooledRuns) {
  SortPool pool(2);
  Options opts = det_tree_opts();
  opts.telemetry = wfsort::telemetry::Level::kPhases;
  for (int i = 0; i < 3; ++i) {
    std::vector<std::uint64_t> v = random_values(50000, 940 + i);
    SortStats stats;
    pool.sort(std::span<std::uint64_t>(v), opts, &stats);
    ASSERT_TRUE(std::is_sorted(v.begin(), v.end()));
    ASSERT_NE(stats.telemetry, nullptr) << "run " << i;
    EXPECT_FALSE(stats.telemetry->workers.empty()) << "run " << i;
    // A recycled recorder must not leak the previous run's spans: every
    // span fits inside this run's wall clock.
    for (const auto& w : stats.telemetry->workers) {
      for (const auto& s : w.spans) {
        EXPECT_LE(s.end_us, stats.telemetry->wall_us);
      }
    }
  }
}

// The default pool is a process singleton and serves concurrent submitters
// (arena contention falls back to the bypass arena, never blocks).
TEST(SortPoolConcurrency, ParallelSubmittersOnOnePool) {
  SortPool pool(2);
  constexpr int kThreads = 4;
  std::vector<std::jthread> submitters;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&pool, &failures, t] {
      for (int i = 0; i < 8; ++i) {
        std::vector<std::uint64_t> v =
            random_values(2000 + 137 * t + i, 1000 + 16 * t + i);
        std::vector<std::uint64_t> expect = v;
        std::sort(expect.begin(), expect.end());
        pool.sort(std::span<std::uint64_t>(v));
        if (v != expect) failures.fetch_add(1);
      }
    });
  }
  submitters.clear();  // join
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(pool.stats().runs, 32u);
}

// Per-variant shared state, measured where the pool keeps it: the arena of a
// pool that has only run det/partition holds only the partition's arrays
// (key copy, bucket ids, scattered keys, output — about 26 bytes per u64
// element), never the pivot tree that only the tree path reads: 32-byte
// records plus the 8-byte output slots, 40 bytes per element.  A pool that
// has run det/tree holds those.
TEST(SortPoolFootprint, PartitionLaneHoldsNoPivotTree) {
  const std::size_t n = std::size_t{1} << 16;
  {
    SortPool pool(4);
    std::vector<std::uint64_t> v = random_values(n, 1200);
    pool.sort(std::span<std::uint64_t>(v), det_partition_opts());
    ASSERT_TRUE(std::is_sorted(v.begin(), v.end()));
    EXPECT_LE(pool.stats().arena_held_bytes, 32 * n);
  }
  {
    SortPool pool(4);
    std::vector<std::uint64_t> v = random_values(n, 1201);
    pool.sort(std::span<std::uint64_t>(v), det_tree_opts());
    ASSERT_TRUE(std::is_sorted(v.begin(), v.end()));
    EXPECT_GE(pool.stats().arena_held_bytes, 40 * n);
  }
}

std::vector<std::uint64_t> pattern_values(int pattern, std::size_t n,
                                          std::uint64_t seed) {
  if (pattern == 0) return random_values(n, seed);
  std::vector<std::uint64_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = pattern == 1 ? 7 : (i < n / 2 ? i : n - i);  // all-equal, organ-pipe
  }
  return v;
}

// The partition arrays are taken from the arena uninitialised, so a run
// starts on the previous run's bytes: its keys, bucket ids, scattered pairs
// and output.  Every slot must be written before it is read, also when
// workers die mid-sweep and survivors redo their jobs.  Sizes straddle the
// 2048-element chunk (one bucket, two buckets with a one-element last chunk,
// three buckets plus one element).
TEST(SortPoolStaleStorage, PartitionLaneNeverReadsPreviousRunBytes) {
  SortPool pool(4);
  const Options opts = det_partition_opts();
  std::uint64_t seed = 1300;
  for (const std::size_t n : {std::size_t{2047}, std::size_t{2049},
                              std::size_t{3 * 2048 + 1}}) {
    for (int pattern = 0; pattern < 3; ++pattern) {
      const std::string label =
          "n=" + std::to_string(n) + " pattern=" + std::to_string(pattern);
      std::vector<std::uint64_t> a = random_values(n, seed++);
      pool.sort(std::span<std::uint64_t>(a), opts);
      ASSERT_TRUE(std::is_sorted(a.begin(), a.end())) << label;

      const std::vector<std::uint64_t> b = pattern_values(pattern, n, seed++);
      std::vector<std::uint64_t> expect = b;
      std::sort(expect.begin(), expect.end());
      std::vector<std::uint64_t> got = b;
      // Staggered kills spread over the sweeps; worker 3 survives.
      wfsort::runtime::FaultPlan plan(8);
      plan.crash_at(0, n / 8 + 1);
      plan.crash_at(1, n / 2 + 1);
      plan.crash_at(2, n + 1);
      ASSERT_TRUE(pool.sort_with_faults(std::span<std::uint64_t>(got), opts, plan))
          << label;
      EXPECT_EQ(got, expect) << label;

      // The stable argsort, as (key, index) order: std::stable_sort would
      // allocate through the nothrow operator new this file does not hook.
      std::vector<std::uint32_t> argsort(n);
      for (std::size_t i = 0; i < n; ++i) argsort[i] = static_cast<std::uint32_t>(i);
      std::sort(argsort.begin(), argsort.end(), [&b](std::uint32_t x, std::uint32_t y) {
        return b[x] != b[y] ? b[x] < b[y] : x < y;
      });
      EXPECT_EQ(wfsort::sort_permutation(std::span<const std::uint64_t>(b), opts),
                argsort)
          << label;
    }
  }
}

// Sanity on the PoolStats lifetime counters.
TEST(SortPoolStats, CountersAreCoherent) {
  SortPool pool(2);
  EXPECT_EQ(pool.stats().runs, 0u);
  EXPECT_EQ(pool.thread_count(), 2u);
  std::vector<std::uint64_t> small = random_values(1024, 1100);
  pool.sort(std::span<std::uint64_t>(small));
  std::vector<std::uint64_t> big = random_values(std::size_t{1} << 17, 1101);
  pool.sort(std::span<std::uint64_t>(big), det_tree_opts());
  const PoolStats ps = pool.stats();
  EXPECT_EQ(ps.runs, 2u);
  EXPECT_EQ(ps.caller_only_runs, 1u);
  EXPECT_GT(ps.arena_held_bytes, 0u);
  // The big run woke parked workers; if one claimed before the caller
  // finished, wake_ns was measured.  Either way it must not go backwards.
  EXPECT_GE(ps.wake_ns, 0u);
}

// ------------------------------------------------------ caller-only cutoff

// Records which threads compared keys: the caller (the thread that built
// the witness) or any other.
struct ThreadWitness {
  std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> on_caller{false};
  std::atomic<bool> off_caller{false};
};

struct WitnessLess {
  ThreadWitness* w;
  bool operator()(std::uint64_t a, std::uint64_t b) const {
    std::atomic<bool>& seen =
        std::this_thread::get_id() == w->caller ? w->on_caller : w->off_caller;
    if (!seen.load(std::memory_order_relaxed)) seen.store(true, std::memory_order_relaxed);
    return a < b;
  }
};

// One width rule for every blocking entry point, at N = cutoff-1, cutoff
// and cutoff+1: below the cutoff, or at t = 1, no key is compared off the
// caller's thread; at or above it with t = 4, the caller compares keys
// itself (it is worker 0).  Outputs equal std::sort or the stable argsort.
TEST(CallerOnlyCutoff, WidthRuleAtTheBoundary) {
  using wfsort::kCallerOnlyCutoff;
  const struct {
    const char* name;
    Options opts;
  } configs[] = {{"det-tree", det_tree_opts()},
                 {"det-partition", det_partition_opts()},
                 {"lc", lc_opts()}};
  enum class Entry { kSort, kPermutation, kSorter, kPool };
  const struct {
    Entry entry;
    const char* name;
  } entries[] = {{Entry::kSort, "sort"},
                 {Entry::kPermutation, "sort_permutation"},
                 {Entry::kSorter, "Sorter"},
                 {Entry::kPool, "SortPool::sort"}};
  SortPool pool(4);
  for (const std::uint64_t n : {kCallerOnlyCutoff - 1, kCallerOnlyCutoff, kCallerOnlyCutoff + 1}) {
    std::vector<std::uint64_t> input = random_values(n, 1200 + n);
    for (auto& x : input) x %= n / 2;  // ties exercise the index tie-break
    std::vector<std::uint64_t> sorted = input;
    std::sort(sorted.begin(), sorted.end());
    std::vector<std::uint32_t> argsort(n);
    for (std::uint32_t i = 0; i < n; ++i) argsort[i] = i;
    std::stable_sort(argsort.begin(), argsort.end(),
                     [&input](std::uint32_t x, std::uint32_t y) { return input[x] < input[y]; });
    for (const std::uint32_t t : {1u, 4u}) {
      const bool solo = n < kCallerOnlyCutoff || t == 1;
      for (const auto& c : configs) {
        Options opts = c.opts;
        opts.threads = t;
        for (const auto& [entry, entry_name] : entries) {
          const std::string where = std::string(entry_name) + " " + c.name + " n=" +
                                    std::to_string(n) + " t=" + std::to_string(t);
          // A descheduled caller can find every job of a tree run already
          // done and so compare nothing; only a witness that it never
          // compared in several tries would show it is not worker 0.
          bool caller_compared = false;
          for (int attempt = 0; attempt < 5 && !caller_compared; ++attempt) {
            ThreadWitness w;
            const WitnessLess cmp{&w};
            SortStats stats;
            if (entry == Entry::kPermutation) {
              EXPECT_EQ(wfsort::sort_permutation(std::span<const std::uint64_t>(input), opts,
                                                 cmp, &stats),
                        argsort)
                  << where;
            } else {
              std::vector<std::uint64_t> v = input;
              if (entry == Entry::kSort) {
                wfsort::sort(std::span<std::uint64_t>(v), opts, &stats, cmp);
              } else if (entry == Entry::kSorter) {
                wfsort::Sorter<std::uint64_t, WitnessLess> sorter(opts, cmp);
                sorter(std::span<std::uint64_t>(v));
                stats = sorter.last_stats();
              } else {
                pool.sort(std::span<std::uint64_t>(v), opts, &stats, cmp);
              }
              EXPECT_EQ(v, sorted) << where;
            }
            EXPECT_EQ(stats.completed_workers + stats.crashed_workers, stats.workers) << where;
            if (solo) {
              EXPECT_FALSE(w.off_caller.load()) << where;
              EXPECT_EQ(stats.workers, 1u) << where;
            } else if (entry != Entry::kPool) {
              EXPECT_EQ(stats.workers, t) << where;  // a pool may leave ids unclaimed
            }
            caller_compared = w.on_caller.load();
          }
          if (!solo) {
            EXPECT_TRUE(caller_compared) << where;
          }
        }
      }
    }
  }
}

}  // namespace
